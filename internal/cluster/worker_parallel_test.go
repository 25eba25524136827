package cluster

import (
	"slices"
	"testing"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
)

func mustAck(t *testing.T, w *Worker, req []byte) {
	t.Helper()
	if _, _, err := decodeRespHeader(w.Handle(req)); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerIncrementalIndex asserts the DIIMM doubling loop never
// rebuilds the inverted index: after generate → select → generate →
// select the worker has done exactly one full build, extended in place
// each round, and the grown index answers AppendCovers identically to a
// from-scratch build over the same collection.
func TestWorkerIncrementalIndex(t *testing.T) {
	g := testGraph(t)
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.release)
	mustAck(t, w, encodeGenerateReq(100))
	mustAck(t, w, encodeSimpleReq(msgBeginSelect))
	if w.idx.FullBuilds() != 1 || w.idx.Count() != 100 {
		t.Fatalf("after first round: %d full builds over %d sets", w.idx.FullBuilds(), w.idx.Count())
	}
	mustAck(t, w, encodeGenerateReq(200))
	mustAck(t, w, encodeSimpleReq(msgBeginSelect))
	if w.idx.FullBuilds() != 1 {
		t.Fatalf("doubling round triggered a full rebuild (%d builds)", w.idx.FullBuilds())
	}
	if w.idx.Count() != 300 {
		t.Fatalf("after second round: index over %d sets, want 300", w.idx.Count())
	}
	ref, err := rrset.BuildIndex(w.coll, w.numItems())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < w.numItems(); v++ {
		want := ref.AppendCovers(nil, uint32(v))
		if got := w.idx.AppendCovers(nil, uint32(v)); !slices.Equal(got, want) {
			t.Fatalf("node %d: incremental index %v diverges from full build %v", v, got, want)
		}
	}
}

// TestParallelClusterDeterministic: a full generate+greedy run is a pure
// function of (seed, ℓ): clusters at every Parallelism agree seed for
// seed with the sequential one.
func TestParallelClusterDeterministic(t *testing.T) {
	g := testGraph(t)
	run := func(p int) ([]uint32, int64) {
		cl, err := NewLocal(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 41, Parallelism: p}, 2, g.NumNodes(), Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Generate(600); err != nil {
			t.Fatal(err)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seeds, res.Coverage
	}
	s0, c0 := run(0) // the zero value: sequential
	for _, p := range []int{1, 2, 4} {
		s, c := run(p)
		if c != c0 || !slices.Equal(s, s0) {
			t.Fatalf("P=%d: seeds %v coverage %d, sequential %v / %d", p, s, c, s0, c0)
		}
	}
}

// TestCoverageOfEpochMarks hits the reusable covered bitset across
// repeated and interleaved coverage queries, checking against an
// independent recount each time, before and after the collection grows.
func TestCoverageOfEpochMarks(t *testing.T) {
	g := testGraph(t)
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(8, 0), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.release)
	mustAck(t, w, encodeGenerateReq(400))
	seedSets := [][]uint32{{0}, {1, 2, 3}, {0}, {5, 5, 5}, {}, {7, 11, 13, 17}}
	check := func() {
		t.Helper()
		for _, seeds := range seedSets {
			got, err := w.coverageOf(seeds)
			if err != nil {
				t.Fatal(err)
			}
			if want := coverage.CoverageOf(w.coll, seeds); got != want {
				t.Fatalf("coverageOf(%v) = %d, want %d", seeds, got, want)
			}
		}
	}
	check()
	// Growing the collection mid-stream must extend both index and bitset.
	mustAck(t, w, encodeGenerateReq(150))
	check()
}

// TestGenerateReservesArena pins the reserve-before-sampling rule over a
// doubling schedule (the shape of DIIMM's θ rounds). The first Generate
// on an empty worker has no mean set size to go by: it must still size
// the offset table for the request in one step (the member arena doubles
// up from its hint). Every later Generate reserves both arenas from the
// observed mean, so it reallocates each at most once — and an
// under-estimate falls back to doubling, so even then the count stays
// logarithmic, never append's 1.25× ladder.
func TestGenerateReservesArena(t *testing.T) {
	for _, p := range []int{1, 2} {
		w, err := NewWorker(WorkerConfig{Graph: testGraph(t), Model: diffusion.LT, Seed: DeriveSeed(77, 0), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.release)
		count := int64(200000) // past the 64 K-member, 1 K-set hints
		mustAck(t, w, encodeGenerateReq(count))
		// One offset-table reservation; the member arena grows 2^16 → ≥
		// count·mean by doubling, mean < 4 on this graph: ≤ 4 steps.
		if got := w.coll.Regrows(); got > 5 {
			t.Fatalf("P=%d: first Generate reallocated %d times, want ≤ 5 (1 offset reservation + member doublings)", p, got)
		}
		for round := 2; round <= 3; round++ {
			before := w.coll.Regrows()
			mustAck(t, w, encodeGenerateReq(count))
			if got := w.coll.Regrows() - before; got > 2 {
				t.Fatalf("P=%d round %d: Generate(%d) reallocated %d times, want ≤ 1 per arena", p, round, count, got)
			}
			count *= 2
		}
	}
}

// BenchmarkWorkerSelectRound times one NEWGREEDI round on the worker —
// msgSelect request in, reply frame out — averaged over a k = 200 greedy
// sequence on an LT sample, the shape of the diimm_lt_tcp workload where
// most rounds touch few nodes. A sort of the reply pairs or a per-round
// buffer would show here as ns/op and B/op.
func BenchmarkWorkerSelectRound(b *testing.B) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 1 << 15, AvgDegree: 16, Seed: 17}})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.LT, Seed: DeriveSeed(5, 0)})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := New([]Conn{NewLocalConn(w)}, g.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Generate(400000); err != nil {
		b.Fatal(err)
	}
	res, err := coverage.RunGreedy(cl.Oracle(), 200)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([][]byte, len(res.Seeds))
	for i, u := range res.Seeds {
		reqs[i] = encodeSelectReq(u)
	}
	begin := encodeSimpleReq(msgBeginSelect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(reqs) == 0 {
			b.StopTimer()
			w.Handle(begin)
			b.StartTimer()
		}
		if frame := w.Handle(reqs[i%len(reqs)]); frame[0] == msgError {
			b.Fatalf("select failed: %s", frame[9:])
		}
	}
}
