package cluster

import (
	"net"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 300, AvgDegree: 6, Seed: 17, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func localCluster(t testing.TB, g *graph.Graph, machines int, model diffusion.Model, seed uint64) *Cluster {
	t.Helper()
	cl, err := NewLocal(WorkerConfig{Graph: g, Model: model, Seed: seed}, machines, g.NumNodes(), Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestProtoRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		// The codec's domain, which Drain emits: ascending distinct
		// nodes with positive values.
		nodes := make([]uint32, r.Intn(200))
		for i := range nodes {
			nodes[i] = uint32(r.Uint64())
		}
		slices.Sort(nodes)
		pairs := make([]DeltaPair, 0, len(nodes))
		for _, v := range slices.Compact(nodes) {
			pairs = append(pairs, DeltaPair{Node: v, Dec: int32(1 + r.Intn(1<<20))})
		}
		nanos := int64(r.Uint64() >> 1)
		frame, err := encodeDeltasResp(nanos, pairs)
		if err != nil {
			return false
		}
		gotNanos, got, err := decodeDeltasResp(frame, nil, -1)
		if err != nil || gotNanos != nanos || len(got) != len(pairs) {
			return false
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProtoStatsRoundTrip(t *testing.T) {
	s := GenerateStats{Count: 12345, TotalSize: 999999999999, EdgesExamined: 7}
	frame := encodeStatsResp(0, 42, s)
	nanos, got, err := decodeStatsResp(frame)
	if err != nil || nanos != 42 || got != s {
		t.Fatalf("round trip: %v %v %v", nanos, got, err)
	}
}

func TestProtoErrors(t *testing.T) {
	if _, _, err := decodeRespHeader([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, _, err := decodeDeltasResp(encodeErrorResp(errTest("boom")), nil, -1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("worker error not surfaced: %v", err)
	}
	// Corrupt pair count.
	frame, _ := encodeDeltasResp(0, []DeltaPair{{Node: 1, Dec: 2}})
	frame = frame[:len(frame)-3]
	if _, _, err := decodeDeltasResp(frame, nil, -1); err == nil {
		t.Fatal("truncated delta frame accepted")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestWorkerRejectsGarbage(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Graph: testGraph(t), Model: diffusion.IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range [][]byte{nil, {0xee}, {msgGenerate}, {msgSelect, 1}, {msgSelect, 1, 2, 3, 4}} {
		resp := w.Handle(req)
		if _, _, err := decodeRespHeader(resp); err == nil {
			t.Fatalf("garbage request %v produced a non-error reply", req)
		}
	}
	// Select before beginSelection must error, not panic.
	resp := w.Handle(encodeSelectReq(0))
	if _, _, err := decodeRespHeader(resp); err == nil {
		t.Fatal("select before beginSelection accepted")
	}
}

func TestGenerateSplitsEvenly(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 4, diffusion.IC, 5)
	stats, err := cl.Generate(1003)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 1003 {
		t.Fatalf("cluster holds %d RR sets, want 1003", stats.Count)
	}
	if stats.TotalSize < 1003 {
		t.Fatalf("total size %d below count", stats.TotalSize)
	}
	// Generation is incremental.
	stats, err = cl.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 1010 {
		t.Fatalf("after top-up: %d, want 1010", stats.Count)
	}
	m := cl.Metrics()
	if m.BytesSent == 0 || m.BytesReceived == 0 || m.Rounds == 0 {
		t.Fatalf("metrics not recorded: %+v", m)
	}
}

// TestDistributedEqualsLocalOracle is the core NEWGREEDI correctness
// property over the real protocol: a cluster of ℓ workers and a
// single-machine oracle holding the union of the same RR sets must yield
// the identical seed sequence and coverage.
func TestDistributedEqualsLocalOracle(t *testing.T) {
	g := testGraph(t)
	for _, machines := range []int{1, 2, 3, 8} {
		cl := localCluster(t, g, machines, diffusion.IC, 77)
		if _, err := cl.Generate(800); err != nil {
			t.Fatal(err)
		}
		distRes, err := coverage.RunGreedy(cl.Oracle(), 10)
		if err != nil {
			t.Fatal(err)
		}
		// Regenerate the identical RR sets locally: same per-machine seeds,
		// same per-machine counts, concatenated in machine order.
		union := rrset.NewCollection(1 << 16)
		per := 800 / machines
		extra := 800 % machines
		for i := 0; i < machines; i++ {
			count := per
			if i < extra {
				count++
			}
			s, err := rrset.NewSampler(g, diffusion.IC, DeriveSeed(77, i), false)
			if err != nil {
				t.Fatal(err)
			}
			s.SampleManyInto(union, int64(count))
		}
		idx, err := rrset.BuildIndex(union, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		o, err := coverage.NewLocalOracle(union, idx, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		localRes, err := coverage.RunGreedy(o, 10)
		if err != nil {
			t.Fatal(err)
		}
		if distRes.Coverage != localRes.Coverage {
			t.Fatalf("ℓ=%d: distributed coverage %d != local %d", machines, distRes.Coverage, localRes.Coverage)
		}
		for i := range localRes.Seeds {
			if distRes.Seeds[i] != localRes.Seeds[i] {
				t.Fatalf("ℓ=%d: seed %d differs: %v vs %v", machines, i, distRes.Seeds, localRes.Seeds)
			}
		}
		// Independent recount of the distributed result.
		if got := coverage.CoverageOf(union, distRes.Seeds); got != distRes.Coverage {
			t.Fatalf("ℓ=%d: recount %d != reported %d", machines, got, distRes.Coverage)
		}
	}
}

// TestRepeatedSelectionRuns: NEWGREEDI is called repeatedly at growing θ
// (as DIIMM does); each call must see all RR sets uncovered again.
func TestRepeatedSelectionRuns(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 3, diffusion.LT, 9)
	var prev int64
	for round := 0; round < 3; round++ {
		if _, err := cl.Generate(300); err != nil {
			t.Fatal(err)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < prev {
			t.Fatalf("coverage shrank from %d to %d as θ grew", prev, res.Coverage)
		}
		prev = res.Coverage
		// Re-running at the same θ must give the identical result.
		again, err := coverage.RunGreedy(cl.Oracle(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if again.Coverage != res.Coverage {
			t.Fatalf("round %d: rerun coverage %d != %d", round, again.Coverage, res.Coverage)
		}
	}
}

func TestClusterReset(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 2, diffusion.IC, 3)
	if _, err := cl.Generate(100); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 0 {
		t.Fatalf("after reset: %d RR sets", stats.Count)
	}
	// Post-reset runs still work.
	if _, err := cl.Generate(50); err != nil {
		t.Fatal(err)
	}
	if _, err := coverage.RunGreedy(cl.Oracle(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestIngestMaxCoverage(t *testing.T) {
	// Two workers share an element-partitioned instance; greedy over the
	// cluster must match a local greedy over the union.
	lists := [][]uint32{{0, 1}, {1, 2}, {2}, {0, 3}, {3}, {1}}
	cl, err := NewLocal(WorkerConfig{}, 2, 4, Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var shard0, shard1 [][]uint32
	for e, l := range lists {
		if e%2 == 0 {
			shard0 = append(shard0, l)
		} else {
			shard1 = append(shard1, l)
		}
	}
	if err := cl.Ingest(0, shard0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ingest(1, shard1); err != nil {
		t.Fatal(err)
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 2)
	if err != nil {
		t.Fatal(err)
	}
	union := rrset.NewCollection(64)
	for _, l := range lists {
		union.Append(l, 0)
	}
	idx, _ := rrset.BuildIndex(union, 4)
	o, _ := coverage.NewLocalOracle(union, idx, 4)
	want, err := coverage.RunGreedy(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != want.Coverage {
		t.Fatalf("ingested cluster coverage %d != local %d", res.Coverage, want.Coverage)
	}
}

func TestIngestRejectsOutOfRange(t *testing.T) {
	cl, err := NewLocal(WorkerConfig{}, 1, 3, Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ingest(0, [][]uint32{{5}}); err == nil {
		t.Fatal("member outside item space accepted")
	}
	if err := cl.Ingest(7, nil); err == nil {
		t.Fatal("bad worker index accepted")
	}
}

func TestTCPTransport(t *testing.T) {
	g := testGraph(t)
	const machines = 3
	conns := make([]Conn, machines)
	for i := 0; i < machines; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		seed := DeriveSeed(77, i)
		go func() {
			_ = Serve(lis, func() (*Worker, error) {
				return NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: seed})
			})
		}()
		t.Cleanup(func() { lis.Close() })
		conn, err := DialWorker(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	tcpCl, err := New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer tcpCl.Close()
	if _, err := tcpCl.Generate(600); err != nil {
		t.Fatal(err)
	}
	tcpRes, err := coverage.RunGreedy(tcpCl.Oracle(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// The same seeds over the in-process transport must give the same
	// outcome bit for bit.
	localCl := localCluster(t, g, machines, diffusion.IC, 77)
	if _, err := localCl.Generate(600); err != nil {
		t.Fatal(err)
	}
	localRes, err := coverage.RunGreedy(localCl.Oracle(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tcpRes.Coverage != localRes.Coverage {
		t.Fatalf("TCP coverage %d != local %d", tcpRes.Coverage, localRes.Coverage)
	}
	for i := range tcpRes.Seeds {
		if tcpRes.Seeds[i] != localRes.Seeds[i] {
			t.Fatal("TCP and local transports disagree on seeds")
		}
	}
	m := tcpCl.Metrics()
	if m.BytesSent == 0 || m.BytesReceived == 0 {
		t.Fatal("TCP byte accounting empty")
	}
}

func TestWorkerFailureSurfaces(t *testing.T) {
	// Killing a TCP worker mid-session must produce an error on the next
	// call, not a hang or panic.
	g := testGraph(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = Serve(lis, func() (*Worker, error) {
			return NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
		})
	}()
	conn, err := DialWorker(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New([]Conn{conn}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Generate(10); err != nil {
		t.Fatal(err)
	}
	lis.Close()
	conn.Close()
	if _, err := cl.Generate(10); err == nil {
		t.Fatal("call after worker death succeeded")
	}
}

func TestLocalConnClosed(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Graph: testGraph(t), Model: diffusion.IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewLocalConn(w)
	if _, err := c.Call(encodeSimpleReq(msgStats)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(encodeSimpleReq(msgStats)); err == nil {
		t.Fatal("call on closed conn succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close failed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 5); err == nil {
		t.Fatal("empty cluster accepted")
	}
	w, _ := NewWorker(WorkerConfig{})
	c := NewLocalConn(w)
	defer c.Close()
	if _, err := New([]Conn{c}, 0); err == nil {
		t.Fatal("zero item count accepted")
	}
}

func TestSequentialAndConcurrentBroadcastAgree(t *testing.T) {
	g := testGraph(t)
	run := func(sequential bool) *coverage.Result {
		cl := localCluster(t, g, 4, diffusion.IC, 55)
		cl.SetSequentialBroadcast(sequential)
		if _, err := cl.Generate(600); err != nil {
			t.Fatal(err)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, conc := run(true), run(false)
	if seq.Coverage != conc.Coverage {
		t.Fatalf("broadcast strategy changed coverage: %d vs %d", seq.Coverage, conc.Coverage)
	}
	for i := range seq.Seeds {
		if seq.Seeds[i] != conc.Seeds[i] {
			t.Fatal("broadcast strategy changed seeds")
		}
	}
}

func TestCriticalPathMetric(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 4, diffusion.IC, 21)
	if _, err := cl.Generate(40000); err != nil {
		t.Fatal(err)
	}
	if _, err := coverage.RunGreedy(cl.Oracle(), 10); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.GenCritical <= 0 || m.GenTotal < m.GenCritical {
		t.Fatalf("generation accounting wrong: critical %v total %v", m.GenCritical, m.GenTotal)
	}
	if m.SelTotal < m.SelCritical {
		t.Fatalf("selection accounting wrong: critical %v total %v", m.SelCritical, m.SelTotal)
	}
	if m.CriticalPath() <= 0 {
		t.Fatal("critical path empty")
	}
	// With 4 workers sharing the sampling, no worker may carry half of
	// it. Counted in sets and edge probes, not handler time: wall-clock
	// shares depend on what else the host runs.
	per, err := cl.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	var total GenerateStats
	for _, w := range per {
		total.Add(w)
	}
	for i, w := range per {
		if 2*w.Count > total.Count || 2*w.EdgesExamined > total.EdgesExamined {
			t.Fatalf("4-way generation shows no sharing: worker %d holds %d of %d sets, %d of %d edge probes",
				i, w.Count, total.Count, w.EdgesExamined, total.EdgesExamined)
		}
	}
}
