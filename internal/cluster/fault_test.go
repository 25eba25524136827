package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
)

// TestLocalConnCallCloseRace is the ISSUE 5 regression test for the
// localConn "send on closed channel" panic: Close could close reqCh
// between Call's closed-flag check and its send. Run under -race; the
// historic code panics within a few hundred iterations.
func TestLocalConnCallCloseRace(t *testing.T) {
	g := testGraph(t)
	for iter := 0; iter < 200; iter++ {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := NewLocalConn(w)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				if _, err := c.Call(encodeSimpleReq(msgStats)); err != nil {
					if !errors.Is(err, ErrConnClosed) {
						panic(fmt.Sprintf("unexpected call error: %v", err))
					}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			_ = c.Close()
		}()
		close(start)
		wg.Wait()
		_ = c.Close()
	}
}

// TestTimedOutConnFailsFastTyped is the regression test for the tcpConn
// stream-desync bug, which timeouts are only one way into: after any
// failed exchange, stale bytes may sit in the socket (a timed-out call's
// late reply, the payload behind a rejected header, or the rest of a
// half-read frame), so the next Call must fail fast with the typed
// *ConnBrokenError instead of pairing them with a new request.
func TestTimedOutConnFailsFastTyped(t *testing.T) {
	var oversized [4]byte
	binary.LittleEndian.PutUint32(oversized[:], maxFrameSize+1)
	cases := []struct {
		name    string
		reply   func(nc net.Conn) // answers the first request
		wantErr func(error) bool
	}{
		{"timeout", func(nc net.Conn) {
			time.Sleep(300 * time.Millisecond)
			_ = writeFrame(nc, encodeAckResp(0)) // the stale frame
		}, func(err error) bool { var te *CallTimeoutError; return errors.As(err, &te) }},
		{"oversized reply header", func(nc net.Conn) {
			nc.Write(oversized[:])
			nc.Write(make([]byte, 64))
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds limit") }},
		{"peer closes mid-frame", func(nc net.Conn) {
			nc.Write([]byte{100, 0, 0, 0})
			nc.Write(make([]byte, 10))
			nc.Close()
		}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			replied := make(chan struct{})
			go func() {
				nc, err := lis.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				if _, err := readFrame(nc, maxFrameSize); err == nil {
					tc.reply(nc)
				}
				close(replied)
				io.Copy(io.Discard, nc)
			}()
			conn, err := DialWorkerTimeout(lis.Addr().String(), 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			if _, err := conn.Call(encodeGenerateReq(3)); !tc.wantErr(err) {
				t.Fatalf("first call returned %v", err)
			}
			<-replied // the stale bytes are in the socket now
			_, err = conn.Call(encodeSimpleReq(msgStats))
			var be *ConnBrokenError
			if !errors.As(err, &be) {
				t.Fatalf("call on poisoned conn returned %v, want *ConnBrokenError", err)
			}
			if be.Addr != lis.Addr().String() {
				t.Fatalf("broken-conn error names %q, want %q", be.Addr, lis.Addr().String())
			}
		})
	}
}

// faultyCluster builds a machines-worker cluster with NewLocal — whose
// recovery respawns fresh workers from the same configs (replay
// failover) — and wraps the victim's conn in the returned FaultConn.
func faultyCluster(t *testing.T, g *graph.Graph, machines, victim int, seed uint64) (*Cluster, *FaultConn) {
	t.Helper()
	cl, err := NewLocal(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: seed}, machines, g.NumNodes(),
		Recovery{Retries: 2, Backoff: time.Millisecond, Salt: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	fc := NewFaultConn(cl.conns[victim])
	cl.conns[victim] = fc
	return cl, fc
}

// driveServePath runs the serve-layer call sequence — two generate
// rounds each followed by an incremental fetch, then a greedy selection —
// and returns the seeds, coverage, fetched union and final cursors. The
// exact sequence of generate counts matters: replay-based failover must
// reproduce it call for call for the streams to match.
func driveServePath(t *testing.T, cl *Cluster) ([]uint32, int64, *rrset.Collection, []int) {
	t.Helper()
	union := rrset.NewCollection(1 << 10)
	var since []int
	var err error
	for _, add := range []int64{200, 150} {
		if _, err := cl.Generate(add); err != nil {
			t.Fatal(err)
		}
		if since, _, err = cl.FetchNewSpans(since, union); err != nil {
			t.Fatal(err)
		}
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 6)
	if err != nil {
		t.Fatal(err)
	}
	return res.Seeds, res.Coverage, union, since
}

// TestFailoverByteIdentical is the ISSUE 5 acceptance test: a worker
// killed mid-run and failed over by replay must leave the run's output —
// seed set, coverage, fetched RR sets, fetch cursors — byte-identical to
// the fault-free run at the same seed, wherever the kill lands.
func TestFailoverByteIdentical(t *testing.T) {
	g := testGraph(t)
	const machines, victim = 3, 1
	baseCl := localCluster(t, g, machines, diffusion.IC, 99)
	wantSeeds, wantCov, wantUnion, wantSince := driveServePath(t, baseCl)

	// Kill the victim's conn at different protocol moments: first
	// generate, degree sync, fetch, second round, begin-select, and
	// mid-greedy (two seeds in).
	for _, killAt := range []int64{1, 2, 3, 4, 5, 7, 9} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			cl, fc := faultyCluster(t, g, machines, victim, 99)
			fc.KillAtCall(killAt)
			seeds, cov, union, since := driveServePath(t, cl)
			if fc.Faults() == 0 {
				t.Fatalf("fault at call %d never fired (only %d calls made)", killAt, fc.Calls())
			}
			if cov != wantCov {
				t.Fatalf("coverage %d != fault-free %d", cov, wantCov)
			}
			for i := range wantSeeds {
				if seeds[i] != wantSeeds[i] {
					t.Fatalf("seeds diverged at %d: %v vs %v", i, seeds, wantSeeds)
				}
			}
			for i := range wantSince {
				if since[i] != wantSince[i] {
					t.Fatalf("fetch cursors diverged: %v vs %v", since, wantSince)
				}
			}
			if union.Count() != wantUnion.Count() || union.TotalSize() != wantUnion.TotalSize() {
				t.Fatalf("fetched union %d sets / %d nodes, fault-free %d / %d",
					union.Count(), union.TotalSize(), wantUnion.Count(), wantUnion.TotalSize())
			}
			for i := 0; i < union.Count(); i++ {
				a, b := union.Set(i), wantUnion.Set(i)
				if len(a) != len(b) {
					t.Fatalf("RR set %d differs in size", i)
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("RR set %d differs at element %d", i, j)
					}
				}
			}
			h := cl.Health()
			if !h[victim].Up || h[victim].Failovers == 0 {
				t.Fatalf("victim health after failover: %+v", h[victim])
			}
		})
	}
}

// TestFailoverDroppedReply: a reply lost after the worker executed the
// request is the ambiguous half-executed case; failover must discard the
// old worker wholesale and rebuild from the journal, keeping the run
// byte-identical (the un-acked call is replayed exactly once).
func TestFailoverDroppedReply(t *testing.T) {
	g := testGraph(t)
	const machines, victim = 3, 2
	baseCl := localCluster(t, g, machines, diffusion.IC, 31)
	wantSeeds, wantCov, _, _ := driveServePath(t, baseCl)

	cl, fc := faultyCluster(t, g, machines, victim, 31)
	fc.DropReplyAt(1) // generate executed, ack lost
	seeds, cov, _, _ := driveServePath(t, cl)
	if fc.Faults() == 0 {
		t.Fatal("drop-reply fault never fired")
	}
	if cov != wantCov {
		t.Fatalf("coverage %d != fault-free %d", cov, wantCov)
	}
	for i := range wantSeeds {
		if seeds[i] != wantSeeds[i] {
			t.Fatalf("seeds diverged: %v vs %v", seeds, wantSeeds)
		}
	}
}

// TestFailoverTransientBlip: a transient network failure (conn survives,
// call fails) takes the replay-failover path too and stays
// byte-identical.
func TestFailoverTransientBlip(t *testing.T) {
	g := testGraph(t)
	const machines, victim = 2, 0
	baseCl := localCluster(t, g, machines, diffusion.IC, 7)
	wantSeeds, wantCov, _, _ := driveServePath(t, baseCl)

	cl, fc := faultyCluster(t, g, machines, victim, 7)
	fc.FailFirst(1)
	seeds, cov, _, _ := driveServePath(t, cl)
	if cov != wantCov {
		t.Fatalf("coverage %d != fault-free %d", cov, wantCov)
	}
	for i := range wantSeeds {
		if seeds[i] != wantSeeds[i] {
			t.Fatalf("seeds diverged: %v vs %v", seeds, wantSeeds)
		}
	}
}

// quarantineCluster is faultyCluster with a Respawn that always fails,
// forcing tier-2 recovery: quarantine plus regeneration on survivors.
func quarantineCluster(t *testing.T, g *graph.Graph, machines, victim int, seed uint64) (*Cluster, *FaultConn) {
	t.Helper()
	conns := make([]Conn, machines)
	var fc *FaultConn
	for i := range conns {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(seed, i)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalConn(w)
		if i == victim {
			fc = NewFaultConn(conns[i])
			conns[i] = fc
		}
	}
	cl, err := New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.EnableRecovery(Recovery{
		Respawn: func(i int) (Conn, error) { return nil, errors.New("worker host gone") },
		Retries: 1,
		Backoff: time.Millisecond,
		Salt:    seed,
	}); err != nil {
		t.Fatal(err)
	}
	return cl, fc
}

// TestQuarantineRebalancePreservesSample: when no replacement exists the
// victim is quarantined and its share regenerated on the survivors under
// fresh epoch-salted streams — the pooled sample keeps its exact size
// and i.i.d. law (Corollary 1), so selection still works and an
// independent coverage recount agrees.
func TestQuarantineRebalancePreservesSample(t *testing.T) {
	g := testGraph(t)
	for _, killAt := range []int64{1, 2} { // mid-generate (in-flight loss) and mid-sync
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			cl, fc := quarantineCluster(t, g, 3, 2, 55)
			fc.KillAtCall(killAt)
			stats, err := cl.Generate(300)
			if err != nil {
				t.Fatalf("generate with quarantine: %v", err)
			}
			if stats.Count != 300 {
				t.Fatalf("sample holds %d RR sets after rebalance, want 300", stats.Count)
			}
			h := cl.Health()
			if h[2].Up {
				t.Fatal("victim still marked up after failed respawns")
			}
			if h[0].Up != true || h[1].Up != true {
				t.Fatalf("survivors marked down: %+v", h)
			}
			all, err := cl.GatherAll()
			if err != nil {
				t.Fatal(err)
			}
			if all.Count() != 300 {
				t.Fatalf("gathered %d RR sets, want 300", all.Count())
			}
			res, err := coverage.RunGreedy(cl.Oracle(), 5)
			if err != nil {
				t.Fatalf("greedy on rebalanced cluster: %v", err)
			}
			recount, err := cl.CoverageOf(res.Seeds)
			if err != nil {
				t.Fatal(err)
			}
			if recount != res.Coverage {
				t.Fatalf("distributed recount %d != greedy coverage %d", recount, res.Coverage)
			}
			if got := coverage.CoverageOf(all, res.Seeds); got != res.Coverage {
				t.Fatalf("local recount %d != greedy coverage %d", got, res.Coverage)
			}
		})
	}
}

// TestMidSelectQuarantineRestarts: a quarantine during the greedy leaves
// the in-flight degree vector stale; Select must surface the typed
// *RebalancedError, and a restarted greedy over the repaired sample must
// complete with a self-consistent result.
func TestMidSelectQuarantineRestarts(t *testing.T) {
	g := testGraph(t)
	cl, fc := quarantineCluster(t, g, 3, 1, 21)
	if _, err := cl.Generate(300); err != nil {
		t.Fatal(err)
	}
	// Worker call sequence so far: generate(1), degree sync(2). Kill two
	// seeds into the greedy: beginSelect(3), select(4), select(5).
	fc.KillAtCall(5)
	_, err := coverage.RunGreedy(cl.Oracle(), 6)
	var reb *RebalancedError
	if !errors.As(err, &reb) {
		t.Fatalf("mid-select quarantine returned %v, want *RebalancedError", err)
	}
	if len(reb.Quarantined) != 1 || reb.Quarantined[0] != 1 {
		t.Fatalf("quarantined %v, want [1]", reb.Quarantined)
	}
	if !IsWorkerLoss(err) {
		t.Fatal("RebalancedError not classified as worker loss")
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 6)
	if err != nil {
		t.Fatalf("restarted greedy: %v", err)
	}
	recount, err := cl.CoverageOf(res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if recount != res.Coverage {
		t.Fatalf("recount %d != coverage %d", recount, res.Coverage)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 300 {
		t.Fatalf("sample size %d after mid-select rebalance, want 300", stats.Count)
	}
}

// TestAllWorkersLost: losing every worker must surface ErrNoLiveWorkers,
// and Reset must revive quarantined workers once respawn works again.
func TestAllWorkersLost(t *testing.T) {
	g := testGraph(t)
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultConn(NewLocalConn(w))
	cl, err := New([]Conn{fc}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	respawnOK := false
	if err := cl.EnableRecovery(Recovery{
		Respawn: func(i int) (Conn, error) {
			if !respawnOK {
				return nil, errors.New("still down")
			}
			w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 3})
			if err != nil {
				return nil, err
			}
			return NewLocalConn(w), nil
		},
		Retries: 1,
		Backoff: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	fc.KillAtCall(1)
	_, err = cl.Generate(50)
	if !errors.Is(err, ErrNoLiveWorkers) {
		t.Fatalf("losing the only worker returned %v, want ErrNoLiveWorkers", err)
	}
	if !IsWorkerLoss(err) {
		t.Fatal("ErrNoLiveWorkers not classified as worker loss")
	}
	// Operator "restarts" the worker; Reset brings it back.
	respawnOK = true
	if err := cl.Reset(); err != nil {
		t.Fatalf("reset after recovery: %v", err)
	}
	if h := cl.Health(); !h[0].Up {
		t.Fatalf("worker still down after reset: %+v", h[0])
	}
	stats, err := cl.Generate(50)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 50 {
		t.Fatalf("post-revival sample %d, want 50", stats.Count)
	}
}

// resetPath runs a generate round, a Reset, a second round and a greedy
// selection, with mid between the reset and the second round.
func resetPath(t *testing.T, cl *Cluster, mid func()) ([]uint32, int64) {
	t.Helper()
	if _, err := cl.Generate(200); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
	mid()
	stats, err := cl.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 200 {
		t.Fatalf("%d RR sets after the reset, want 200", stats.Count)
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 6)
	if err != nil {
		t.Fatal(err)
	}
	return res.Seeds, res.Coverage
}

// TestFailoverAfterResetKeepsStreamPosition: a Reset keeps every
// worker's stream position, so a replacement that replays the journal
// after one must draw the victim's sets from where the victim's stream
// stood (ordinals 100–199 here), not from ordinal 0. Wherever the kill
// lands — the reset itself, the second round, its degree sync, the
// relabel or mid-greedy — the run equals the fault-free one.
func TestFailoverAfterResetKeepsStreamPosition(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 2, 1, 61
	wantSeeds, wantCov := resetPath(t, localCluster(t, g, machines, diffusion.IC, seed), func() {})
	for _, killAt := range []int64{3, 4, 5, 6, 8} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			cl, fc := faultyCluster(t, g, machines, victim, seed)
			fc.KillAtCall(killAt)
			seeds, cov := resetPath(t, cl, func() {})
			if fc.Faults() == 0 {
				t.Fatalf("fault at call %d never fired", killAt)
			}
			sameRun(t, seeds, cov, wantSeeds, wantCov)
		})
	}
}

// TestResetReinstatesAtStreamPosition: a worker quarantined during one
// Reset and respawned by the next rejoins at its predecessor's stream
// position, so the run equals a fault-free one that reset twice.
func TestResetReinstatesAtStreamPosition(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 2, 0, 67
	twoResets := func(cl *Cluster) func() {
		return func() {
			if err := cl.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := localCluster(t, g, machines, diffusion.IC, seed)
	wantSeeds, wantCov := resetPath(t, base, twoResets(base))

	cfgs := make([]WorkerConfig, machines)
	conns := make([]Conn, machines)
	var fc *FaultConn
	for i := range cfgs {
		cfgs[i] = WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(seed, i)}
		w, err := NewWorker(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalConn(w)
		if i == victim {
			fc = NewFaultConn(conns[i]).KillAtCall(3) // the first Reset
			conns[i] = fc
		}
	}
	cl, err := New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	var hostUp bool
	if err := cl.EnableRecovery(Recovery{
		Respawn: func(i int) (Conn, error) {
			if !hostUp {
				return nil, errors.New("worker host down")
			}
			w, err := NewWorker(cfgs[i])
			if err != nil {
				return nil, err
			}
			return NewLocalConn(w), nil
		},
		Retries: 1,
		Backoff: time.Millisecond,
		Salt:    seed,
	}); err != nil {
		t.Fatal(err)
	}
	seeds, cov := resetPath(t, cl, func() {
		if cl.Health()[victim].Up {
			t.Fatal("victim still up after its failed reset")
		}
		hostUp = true
		twoResets(cl)()
		if !cl.Health()[victim].Up {
			t.Fatal("the second Reset did not reinstate the victim")
		}
	})
	sameRun(t, seeds, cov, wantSeeds, wantCov)
}
