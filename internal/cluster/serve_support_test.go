package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/rrset"
)

// TestFetchNewIncremental: FetchNewSpans must return exactly the RR sets
// generated since the previous fetch, in worker order, and the union of
// incremental fetches must equal a one-shot GatherAll.
func TestFetchNewIncremental(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 3, diffusion.IC, 7)

	union := rrset.NewCollection(1 << 10)
	var since []int
	var perRound []int
	for round := 0; round < 3; round++ {
		if _, err := cl.Generate(50); err != nil {
			t.Fatal(err)
		}
		before := union.Count()
		var err error
		since, _, err = cl.FetchNewSpans(since, union)
		if err != nil {
			t.Fatal(err)
		}
		perRound = append(perRound, union.Count()-before)
	}
	for r, added := range perRound {
		if added != 50 {
			t.Fatalf("round %d fetched %d new RR sets, want 50", r, added)
		}
	}
	var cursorSum int
	for _, s := range since {
		cursorSum += s
	}
	if cursorSum != 150 {
		t.Fatalf("fetch cursors sum to %d, want 150", cursorSum)
	}

	// An empty growth round must fetch nothing.
	before := union.Count()
	since2, _, err := cl.FetchNewSpans(since, union)
	if err != nil {
		t.Fatal(err)
	}
	if union.Count() != before {
		t.Fatalf("fetched %d sets with no new generation", union.Count()-before)
	}
	for i := range since2 {
		if since2[i] != since[i] {
			t.Fatalf("cursor %d moved from %d to %d without generation", i, since[i], since2[i])
		}
	}

	// Cross-check content against GatherAll on an identically seeded,
	// identically driven cluster.
	cl2 := localCluster(t, g, 3, diffusion.IC, 7)
	for round := 0; round < 3; round++ {
		if _, err := cl2.Generate(50); err != nil {
			t.Fatal(err)
		}
	}
	all, err := cl2.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != union.Count() || all.TotalSize() != union.TotalSize() {
		t.Fatalf("incremental union (%d sets / %d nodes) != gather-all (%d sets / %d nodes)",
			union.Count(), union.TotalSize(), all.Count(), all.TotalSize())
	}
	// GatherAll concatenates whole per-worker collections while FetchNewSpans
	// interleaves per round, so compare as multisets of encoded sets.
	seen := map[string]int{}
	for i := 0; i < union.Count(); i++ {
		seen[string(encodeSetKey(union.Set(i)))]++
	}
	for i := 0; i < all.Count(); i++ {
		key := string(encodeSetKey(all.Set(i)))
		seen[key]--
		if seen[key] == 0 {
			delete(seen, key)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("incremental union and gather-all differ on %d RR sets", len(seen))
	}
}

func encodeSetKey(set []uint32) []byte {
	b := make([]byte, 0, 4*len(set))
	for _, v := range set {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// TestFetchNewRejectsBadCursor: a cursor beyond the worker's collection
// must produce a worker-side error, not a crash or silent truncation.
func TestFetchNewRejectsBadCursor(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 1, diffusion.IC, 7)
	if _, err := cl.Generate(10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.FetchNewSpans([]int{99}, rrset.NewCollection(16)); err == nil {
		t.Fatal("expected an error for a fetch cursor past the collection")
	}
}

// TestCallTimeout: a hung worker (accepts, never replies) must fail the
// call with the typed *CallTimeoutError instead of blocking forever, and
// poison the connection for subsequent calls.
func TestCallTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		<-hold // swallow the request, never answer
	}()

	conn, err := DialWorkerTimeout(lis.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	_, err = conn.Call(encodeSimpleReq(msgStats))
	var te *CallTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Call returned %v, want *CallTimeoutError", err)
	}
	if te.After != 100*time.Millisecond {
		t.Fatalf("timeout error reports deadline %v", te.After)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out call took %v", elapsed)
	}
	if _, err := conn.Call(encodeSimpleReq(msgStats)); err == nil {
		t.Fatal("expected subsequent calls on a timed-out connection to fail fast")
	}
}

// TestCallTimeoutHappyPath: with a responsive worker the deadline must
// not interfere with normal operation.
func TestCallTimeoutHappyPath(t *testing.T) {
	g := testGraph(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(lis, func() (*Worker, error) {
		return NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
	})
	conn, err := DialWorkerTimeout(lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl, err := New([]Conn{conn}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Generate(20); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 20 {
		t.Fatalf("worker holds %d RR sets, want 20", stats.Count)
	}
}

// TestWorkerServerGracefulShutdown: Shutdown must answer the in-flight
// request, then stop; Serve must return nil (exit 0 path).
func TestWorkerServerGracefulShutdown(t *testing.T) {
	g := testGraph(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWorkerServer(lis, func() (*Worker, error) {
		return NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	conn, err := DialWorker(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A request issued concurrently with Shutdown must still be answered.
	resp := make(chan error, 1)
	go func() {
		_, err := conn.Call(encodeGenerateReq(2000))
		resp <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call reach the worker
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-resp; err != nil {
		t.Fatalf("in-flight call failed during graceful shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// New masters must be refused.
	if _, err := net.DialTimeout("tcp", lis.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestWorkerServerShutdownIdle: shutting down with an idle connected
// master completes within the grace period.
func TestWorkerServerShutdownIdle(t *testing.T) {
	g := testGraph(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWorkerServer(lis, func() (*Worker, error) {
		return NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	conn, err := DialWorker(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call(encodeSimpleReq(msgStats)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := srv.Shutdown(300 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle shutdown took %v", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
}
