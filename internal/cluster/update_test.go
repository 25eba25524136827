package cluster

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"dimm/internal/checksum"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/mutate"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
	"dimm/internal/xrand"
)

// dynGraph builds a fresh, mutation-enabled copy of the deterministic
// test graph. Each call returns an independent instance with identical
// content, so workers of a simulated deployment can own private copies
// (ApplyUpdates is not safe for concurrent broadcast on a shared graph —
// the serve layer pre-applies under its own lock for that topology).
func dynGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	g.EnableMutation()
	t.Cleanup(func() { g.Close() })
	return g
}

// dynOps derives a deterministic update batch from the graph content:
// removals of existing edges, high-probability additions of absent edges
// (so the IC refined plan is exercised, not vacuously empty), and one
// reweight. Twin graph copies yield the same ops.
func dynOps(t testing.TB, g *graph.Graph) []graph.EdgeUpdate {
	t.Helper()
	var ops []graph.EdgeUpdate
	seen := make(map[[2]uint32]bool)
	for v := uint32(0); v < uint32(g.NumNodes()) && len(ops) < 10; v++ {
		adj, probs := g.InNeighbors(v)
		for i, u := range adj {
			if probs[i] > 0 && !seen[[2]uint32{u, v}] {
				seen[[2]uint32{u, v}] = true
				ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v})
				break
			}
		}
	}
	if len(ops) < 10 {
		t.Fatalf("test graph too sparse: only %d removable edges found", len(ops))
	}
	r := xrand.New(0xD15EA5E + g.Version())
	n := uint32(g.NumNodes())
	for added := 0; added < 6; {
		u, v := r.Uint32n(n), r.Uint32n(n)
		if u == v || seen[[2]uint32{u, v}] {
			continue
		}
		if _, probs := g.InNeighbors(v); hasLiveEdge(g, u, v, probs) {
			continue
		}
		seen[[2]uint32{u, v}] = true
		ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: 0.9})
		added++
	}
	// Reweight one surviving edge to half its probability.
	for v := uint32(0); v < n; v++ {
		adj, probs := g.InNeighbors(v)
		for i, u := range adj {
			if probs[i] > 0 && !seen[[2]uint32{u, v}] {
				return append(ops, graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: probs[i] / 2})
			}
		}
	}
	t.Fatal("no edge left to reweight")
	return nil
}

func hasLiveEdge(g *graph.Graph, u, v uint32, probs []float32) bool {
	adj, _ := g.InNeighbors(v)
	for i, w := range adj {
		if w == u && probs[i] > 0 {
			return true
		}
	}
	for _, e := range g.InOverlay(v) {
		if e.Node == u && e.Prob > 0 {
			return true
		}
	}
	return false
}

// dynCluster builds a machines-worker cluster where every worker owns a
// private graph copy, mirroring a real deployment. Returns the cluster
// and the per-worker graphs.
func dynCluster(t testing.TB, machines int, seed uint64) (*Cluster, []*graph.Graph) {
	t.Helper()
	graphs := make([]*graph.Graph, machines)
	conns := make([]Conn, machines)
	for i := range conns {
		graphs[i] = dynGraph(t)
		w, err := NewWorker(WorkerConfig{Graph: graphs[i], Model: diffusion.IC, Seed: DeriveSeed(seed, i)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalConn(w)
	}
	cl, err := New(conns, graphs[0].NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, graphs
}

// compareCollections asserts two RR collections are byte-identical.
func compareCollections(t *testing.T, got, want *rrset.Collection) {
	t.Helper()
	if got.Count() != want.Count() || got.TotalSize() != want.TotalSize() {
		t.Fatalf("collection shape %d sets / %d nodes, want %d / %d",
			got.Count(), got.TotalSize(), want.Count(), want.TotalSize())
	}
	for i := 0; i < got.Count(); i++ {
		a, b := got.Set(i), want.Set(i)
		if len(a) != len(b) {
			t.Fatalf("RR set %d has %d members, want %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("RR set %d differs at member %d: %d vs %d", i, j, a[j], b[j])
			}
		}
	}
}

// TestUpdateRequestWireRoundTrip covers the request codec and its
// integrity trailer.
func TestUpdateRequestWireRoundTrip(t *testing.T) {
	b := mutate.Batch{Seq: 7, Ops: []graph.EdgeUpdate{
		{Op: graph.OpAdd, From: 1, To: 2, Prob: 0.25},
		{Op: graph.OpRemove, From: 3, To: 4},
		{Op: graph.OpReweight, From: 5, To: 6, Prob: 0.75},
	}}
	req := encodeUpdateReq(b)
	if req[0] != msgUpdate {
		t.Fatalf("request tag %#x, want msgUpdate", req[0])
	}
	got, err := decodeUpdateReq(req[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != b.Seq || len(got.Ops) != len(b.Ops) {
		t.Fatalf("decoded %+v, want %+v", got, b)
	}
	for i := range b.Ops {
		if got.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d decoded %+v, want %+v", i, got.Ops[i], b.Ops[i])
		}
	}
	// A flipped payload bit must be caught by the CRC, not the decoder.
	bad := append([]byte(nil), req...)
	bad[len(bad)-1] ^= 0x40
	_, err = decodeUpdateReq(bad[1:])
	wantFrameError(t, "corrupted request", err, sealed.ErrChecksum, "master")
	// Trailing junk past the declared batch is rejected even with a valid
	// trailer over it.
	long := mutate.EncodeBatch(nil, b)
	long = append(long, 0xEE)
	framed := []byte{msgUpdate}
	framed = appendU32(framed, uint32(len(long)))
	framed = appendU32(framed, checksum.Sum(long))
	framed = append(framed, long...)
	_, err = decodeUpdateReq(framed[1:])
	wantFrameError(t, "oversized batch payload", err, sealed.ErrFormat, "master")
}

// TestRepairRespWireRoundTrip covers the response codec, including the
// empty-repair frame and truncation defenses.
func TestRepairRespWireRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		patches []rrset.Patch
		deltas  []DeltaPair
	}{
		{nil, nil},
		{
			[]rrset.Patch{{Pos: 3, Members: []uint32{9, 1, 4}}, {Pos: 17, Members: nil}, {Pos: 40, Members: []uint32{2}}},
			[]DeltaPair{{Node: 1, Dec: -2}, {Node: 9, Dec: 3}},
		},
	} {
		patches := tc.patches
		frame, err := encodeRepairResp(time.Millisecond, patches, tc.deltas)
		if err != nil {
			t.Fatal(err)
		}
		nanos, rest, err := decodeRespHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if nanos != time.Millisecond.Nanoseconds() {
			t.Fatalf("handler nanos %d, want %d", nanos, time.Millisecond.Nanoseconds())
		}
		got, pairs, err := decodeRepairResp(0, rest)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(patches) {
			t.Fatalf("decoded %d patches, want %d", len(got), len(patches))
		}
		for i, p := range patches {
			if got[i].Pos != p.Pos || len(got[i].Members) != len(p.Members) {
				t.Fatalf("patch %d decoded %+v, want %+v", i, got[i], p)
			}
			for j := range p.Members {
				if got[i].Members[j] != p.Members[j] {
					t.Fatalf("patch %d member %d: %d vs %d", i, j, got[i].Members[j], p.Members[j])
				}
			}
		}
		if len(pairs) != len(tc.deltas) {
			t.Fatalf("decoded %d deltas, want %d", len(pairs), len(tc.deltas))
		}
		for i, d := range tc.deltas {
			if pairs[i] != d {
				t.Fatalf("delta %d decoded %+v, want %+v", i, pairs[i], d)
			}
		}
	}
	// Truncating the member array of the last patch must fail typed.
	frame, _ := encodeRepairResp(0, []rrset.Patch{{Pos: 0, Members: []uint32{1, 2, 3}}}, nil)
	short := frame[:len(frame)-4]
	patchLen := len(short) - framePayloadOffset
	// Re-stamp a consistent trailer so only the structural check can fire.
	reframed := append([]byte(nil), short[:9]...)
	reframed = appendU32(reframed, uint32(patchLen))
	reframed = appendU32(reframed, checksum.Sum(short[framePayloadOffset:]))
	reframed = append(reframed, short[framePayloadOffset:]...)
	_, _, err := decodeRepairResp(0, reframed[9:]) // past the tag and handler nanos
	wantFrameError(t, "truncated repair frame", err, sealed.ErrFormat, "worker 0")
}

// TestClusterUpdateRepairMatchesFresh is the cluster-level repair
// theorem: after Update, every worker's resident sample is byte-identical
// to what the same worker streams would have generated had the graph
// always been the post-update graph — so the pooled sample is i.i.d. on
// the new graph and certificate math carries over unchanged.
func TestClusterUpdateRepairMatchesFresh(t *testing.T) {
	const machines, perWorker = 3, 400
	cl, graphs := dynCluster(t, machines, 77)
	if _, err := cl.Generate(machines * perWorker); err != nil {
		t.Fatal(err)
	}
	ops := dynOps(t, graphs[0])
	patches, err := cl.Update(mutate.Batch{Seq: graphs[0].Version() + 1, Ops: ops})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	repaired := 0
	for _, ps := range patches {
		repaired += len(ps)
	}
	if repaired == 0 {
		t.Fatal("update repaired zero RR sets; the batch should touch the sample")
	}
	if repaired == machines*perWorker {
		t.Fatal("update repaired the whole sample; the refined plan is not refining")
	}
	met := cl.Metrics()
	if met.UpdateCalls != 1 || met.RepairedSets != int64(repaired) {
		t.Fatalf("metrics UpdateCalls=%d RepairedSets=%d, want 1 and %d", met.UpdateCalls, met.RepairedSets, repaired)
	}

	// Reference: same worker seeds generating on graphs that were mutated
	// BEFORE any sampling.
	refCl, refGraphs := dynCluster(t, machines, 77)
	for _, rg := range refGraphs {
		if _, _, err := rg.ApplyUpdates(rg.Version()+1, ops); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refCl.Generate(machines * perWorker); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refCl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	compareCollections(t, got, want)

	// The repaired cluster must keep functioning end to end: greedy
	// selection over the repaired baseline agrees with a recount.
	res, err := coverage.RunGreedy(cl.Oracle(), 5)
	if err != nil {
		t.Fatal(err)
	}
	recount, err := cl.CoverageOf(res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if recount != res.Coverage {
		t.Fatalf("post-update recount %d != greedy coverage %d", recount, res.Coverage)
	}
}

// TestClusterUpdateSecondBatch applies a second batch on the mutated
// graph (touching overlay state from the first) and checks the same
// freshness invariant.
func TestClusterUpdateSecondBatch(t *testing.T) {
	const machines, perWorker = 2, 300
	cl, graphs := dynCluster(t, machines, 13)
	if _, err := cl.Generate(machines * perWorker); err != nil {
		t.Fatal(err)
	}
	ops1 := dynOps(t, graphs[0])
	if _, err := cl.Update(mutate.Batch{Seq: 1, Ops: ops1}); err != nil {
		t.Fatal(err)
	}
	ops2 := dynOps(t, graphs[0]) // version-salted RNG: differs from ops1
	if _, err := cl.Update(mutate.Batch{Seq: 2, Ops: ops2}); err != nil {
		t.Fatal(err)
	}

	refCl, refGraphs := dynCluster(t, machines, 13)
	for _, rg := range refGraphs {
		if _, _, err := rg.ApplyUpdates(1, ops1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rg.ApplyUpdates(2, ops2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refCl.Generate(machines * perWorker); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refCl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	compareCollections(t, got, want)
}

// TestUpdateRejections covers the typed refusals: frozen graph, empty
// batch, sample without lane provenance (ingested sets), and a stale
// sequence number surviving as a no-op.
func TestUpdateRejections(t *testing.T) {
	t.Run("frozen graph", func(t *testing.T) {
		g := testGraph(t) // mutation NOT enabled
		cl := localCluster(t, g, 1, diffusion.IC, 5)
		_, err := cl.Update(mutate.Batch{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpRemove, From: 0, To: 1}}})
		if err == nil || !strings.Contains(err.Error(), "frozen") {
			t.Fatalf("update on frozen graph: %v, want frozen-graph error", err)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		cl, _ := dynCluster(t, 1, 5)
		if _, err := cl.Update(mutate.Batch{Seq: 1}); err == nil {
			t.Fatal("empty batch accepted")
		}
	})
	t.Run("no lane provenance", func(t *testing.T) {
		cl, graphs := dynCluster(t, 1, 5)
		if _, err := cl.Generate(50); err != nil {
			t.Fatal(err)
		}
		if err := cl.Ingest(0, [][]uint32{{1, 2}, {3}}); err != nil {
			t.Fatal(err)
		}
		ops := dynOps(t, graphs[0])
		_, err := cl.Update(mutate.Batch{Seq: 1, Ops: ops})
		if err == nil || !strings.Contains(err.Error(), "lane provenance") {
			t.Fatalf("update over ingested sets: %v, want lane-provenance error", err)
		}
	})
	t.Run("stale seq no-ops", func(t *testing.T) {
		cl, graphs := dynCluster(t, 1, 5)
		if _, err := cl.Generate(100); err != nil {
			t.Fatal(err)
		}
		ops := dynOps(t, graphs[0])
		if _, err := cl.Update(mutate.Batch{Seq: 1, Ops: ops}); err != nil {
			t.Fatal(err)
		}
		before, err := cl.GatherAll()
		if err != nil {
			t.Fatal(err)
		}
		// Replaying the same batch must be harmless and leave the sample
		// unchanged (the recompute is value-idempotent).
		if _, err := cl.Update(mutate.Batch{Seq: 1, Ops: ops}); err != nil {
			t.Fatalf("idempotent replay: %v", err)
		}
		after, err := cl.GatherAll()
		if err != nil {
			t.Fatal(err)
		}
		compareCollections(t, after, before)
		if v := graphs[0].Version(); v != 1 {
			t.Fatalf("graph version %d after replay, want 1", v)
		}
	})
}

// dynFaultyCluster is dynCluster with the victim's conn wrapped in a
// FaultConn and replay-based recovery enabled. Respawned workers reuse
// the victim's graph instance, as a restarted process on the same host
// would reload the same (possibly already-mutated) graph state.
func dynFaultyCluster(t *testing.T, machines, victim int, seed uint64) (*Cluster, *FaultConn, []*graph.Graph) {
	t.Helper()
	graphs := make([]*graph.Graph, machines)
	cfgs := make([]WorkerConfig, machines)
	conns := make([]Conn, machines)
	var fc *FaultConn
	for i := range cfgs {
		graphs[i] = dynGraph(t)
		cfgs[i] = WorkerConfig{Graph: graphs[i], Model: diffusion.IC, Seed: DeriveSeed(seed, i)}
		w, err := NewWorker(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalConn(w)
		if i == victim {
			fc = NewFaultConn(conns[i])
			conns[i] = fc
		}
	}
	cl, err := New(conns, graphs[0].NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.EnableRecovery(Recovery{
		Respawn: func(i int) (Conn, error) {
			w, err := NewWorker(cfgs[i])
			if err != nil {
				return nil, err
			}
			return NewLocalConn(w), nil
		},
		Retries: 2,
		Backoff: time.Millisecond,
		Salt:    seed,
	}); err != nil {
		t.Fatal(err)
	}
	return cl, fc, graphs
}

// driveUpdatePath is the deterministic call sequence the failover tests
// replay: generate, update, generate again (post-update growth), and a
// final gather.
func driveUpdatePath(t *testing.T, cl *Cluster, ops []graph.EdgeUpdate) *rrset.Collection {
	t.Helper()
	if _, err := cl.Generate(450); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(mutate.Batch{Seq: 1, Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Generate(150); err != nil {
		t.Fatal(err)
	}
	all, err := cl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestUpdateFailoverDeterminism is the ISSUE 8 determinism acceptance
// test: a worker killed around the update RPC and failed over by journal
// replay must hold exactly the bytes of the uninterrupted worker —
// whether the kill lands before the update executed (replay applies it
// fresh) or after (replay no-ops the apply and recomputes the repair
// idempotently).
func TestUpdateFailoverDeterminism(t *testing.T) {
	const machines, victim = 3, 1
	refOps := dynOps(t, dynGraph(t))
	refCl, _ := dynCluster(t, machines, 42)
	want := driveUpdatePath(t, refCl, refOps)

	// Worker call sequence: generate(1), degree sync(2), update(3),
	// rebuild-baseline setReported(4) + degreeDelta(5), generate(6), ...
	cases := map[string]func(*FaultConn){
		"killed before update executes": func(fc *FaultConn) { fc.KillAtCall(3) },
		"update reply dropped":          func(fc *FaultConn) { fc.DropReplyAt(3) },
		"killed mid rebuild":            func(fc *FaultConn) { fc.KillAtCall(4) },
		"killed on post-update growth":  func(fc *FaultConn) { fc.KillAtCall(6) },
	}
	for name, arm := range cases {
		t.Run(name, func(t *testing.T) {
			cl, fc, _ := dynFaultyCluster(t, machines, victim, 42)
			arm(fc)
			got := driveUpdatePath(t, cl, refOps)
			if fc.Faults() == 0 {
				t.Fatalf("fault never fired (%d calls made)", fc.Calls())
			}
			compareCollections(t, got, want)
			h := cl.Health()
			if !h[victim].Up || h[victim].Failovers == 0 {
				t.Fatalf("victim health after failover: %+v", h[victim])
			}
		})
	}
}

// TestUpdateQuarantineTypedError: when the victim cannot be respawned
// mid-update, Update must repair the cluster (regenerate the lost shard
// on survivors, on their post-update graphs) and surface the typed
// *RebalancedError — never a silent partial apply, never a panic.
func TestUpdateQuarantineTypedError(t *testing.T) {
	const machines, victim = 3, 2
	graphs := make([]*graph.Graph, machines)
	conns := make([]Conn, machines)
	var fc *FaultConn
	for i := range graphs {
		graphs[i] = dynGraph(t)
		w, err := NewWorker(WorkerConfig{Graph: graphs[i], Model: diffusion.IC, Seed: DeriveSeed(23, i)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = NewLocalConn(w)
		if i == victim {
			fc = NewFaultConn(conns[i])
			conns[i] = fc
		}
	}
	cl, err := New(conns, graphs[0].NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.EnableRecovery(Recovery{
		Respawn: func(i int) (Conn, error) { return nil, errors.New("worker host gone") },
		Retries: 1,
		Backoff: time.Millisecond,
		Salt:    23,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Generate(300); err != nil {
		t.Fatal(err)
	}
	fc.KillAtCall(3) // generate(1), sync(2), update(3)
	ops := dynOps(t, graphs[0])
	_, err = cl.Update(mutate.Batch{Seq: 1, Ops: ops})
	var reb *RebalancedError
	if !errors.As(err, &reb) {
		t.Fatalf("mid-update quarantine returned %v, want *RebalancedError", err)
	}
	if len(reb.Quarantined) != 1 || reb.Quarantined[0] != victim {
		t.Fatalf("quarantined %v, want [%d]", reb.Quarantined, victim)
	}
	if !IsWorkerLoss(err) {
		t.Fatal("RebalancedError not classified as worker loss")
	}
	// The rebalanced cluster holds a full-size sample on the mutated
	// graph and still selects consistently.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != 300 {
		t.Fatalf("sample size %d after rebalance, want 300", stats.Count)
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 5)
	if err != nil {
		t.Fatal(err)
	}
	recount, err := cl.CoverageOf(res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if recount != res.Coverage {
		t.Fatalf("recount %d != coverage %d", recount, res.Coverage)
	}
}

// TestUpdateOverTCP runs the update RPC through the real TCP transport:
// frame trailers verified on both sides, repair patches decoded from the
// wire, and the remote worker's post-repair shard matching an in-process
// worker driven identically.
func TestUpdateOverTCP(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(lis, func() (*Worker, error) {
		return NewWorker(WorkerConfig{Graph: dynGraph(t), Model: diffusion.IC, Seed: 9})
	})
	conn, err := DialWorker(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New([]Conn{conn}, dynGraph(t).NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	localG := dynGraph(t)
	localW, err := NewWorker(WorkerConfig{Graph: localG, Model: diffusion.IC, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	localCl, err := New([]Conn{NewLocalConn(localW)}, localG.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer localCl.Close()

	ops := dynOps(t, dynGraph(t))
	var tcpPatches, localPatches [][]rrset.Patch
	for _, c := range []*Cluster{cl, localCl} {
		if _, err := c.Generate(200); err != nil {
			t.Fatal(err)
		}
		ps, err := c.Update(mutate.Batch{Seq: 1, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		if c == cl {
			tcpPatches = ps
		} else {
			localPatches = ps
		}
	}
	if len(tcpPatches[0]) == 0 || len(tcpPatches[0]) != len(localPatches[0]) {
		t.Fatalf("TCP repair returned %d patches, local %d", len(tcpPatches[0]), len(localPatches[0]))
	}
	for i := range tcpPatches[0] {
		a, b := tcpPatches[0][i], localPatches[0][i]
		if a.Pos != b.Pos || len(a.Members) != len(b.Members) {
			t.Fatalf("patch %d: TCP %+v vs local %+v", i, a, b)
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				t.Fatalf("patch %d member %d differs", i, j)
			}
		}
	}
	got, err := cl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := localCl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	compareCollections(t, got, want)
}

// TestLaneSpansExpandToLaneSeeds: the worker journals one lane span per
// generation request (or extends the last), and the spans expand to
// exactly the seeds AppendLaneSeeds peeks before each request: across
// the worker's own stream, a rebalance stream (generateAux), a failover
// replay after msgSeek, and a reset. Repair reads the expansion, built
// on first use and then extended.
func TestLaneSpansExpandToLaneSeeds(t *testing.T) {
	g := testGraph(t)
	const seed = 7
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: seed, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.release()
	own, err := rrset.NewShardedSampler(g, diffusion.IC, seed, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	// peek appends what s journals for its next count sets and advances it.
	peek := func(s *rrset.ShardedSampler, count int64) {
		want = s.AppendLaneSeeds(want, count)
		_, next := s.Stream()
		s.Seek(next + uint64(count))
	}
	do := func(req []byte) {
		t.Helper()
		if _, err := w.dispatch(req); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, spans int) {
		t.Helper()
		if !w.lanesComplete() {
			t.Fatalf("%s: lanes incomplete", when)
		}
		if len(w.spans) != spans {
			t.Fatalf("%s: %d spans, want %d", when, len(w.spans), spans)
		}
		if got := w.laneSeeds(); !slices.Equal(got, want) {
			t.Fatalf("%s: spans expand to %d seeds, differing from AppendLaneSeeds' %d", when, len(got), len(want))
		}
	}

	do(encodeGenerateReq(100))
	peek(own, 100)
	check("first generate", 1)
	do(encodeGenerateReq(57)) // continues the stream: the span grows
	peek(own, 57)
	check("second generate", 1)
	do(encodeGenerateAuxReq(99, 30))
	aux, err := rrset.NewShardedSampler(g, diffusion.IC, 99, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	peek(aux, 30)
	do(encodeGenerateReq(20))
	peek(own, 20)
	check("rebalance", 3)
	do(encodeSeekReq(40)) // failover replay: regenerate ordinals 40.. of the own stream
	own.Seek(40)
	do(encodeGenerateReq(25))
	peek(own, 25)
	check("replay after seek", 4)

	do(encodeSimpleReq(msgReset))
	want = want[:0]
	if len(w.spans) != 0 || len(w.laneSeeds()) != 0 {
		t.Fatalf("reset left %d spans and %d lane seeds", len(w.spans), len(w.laneSeeds()))
	}
	do(encodeGenerateReq(33))
	peek(own, 33)
	check("generate after reset", 1)
}
