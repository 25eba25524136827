package rrset

import (
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// dynGraph builds a mutation-enabled preferential graph. IC gets
// trivalency weights; LT gets a small uniform weight so per-node
// incoming sums stay below 1 even after churn adds edges.
func dynGraph(t testing.TB, n int, model diffusion.Model) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: n, AvgDegree: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if model == diffusion.LT {
		p := float32(0.5 / float64(g.MaxInDegree()))
		g, err = graph.AssignWeights(g, graph.UniformWeight, p, 0)
	} else {
		g, err = graph.AssignWeights(g, graph.Trivalency, 0, 17)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.EnableMutation()
	t.Cleanup(func() { g.Close() })
	return g
}

// churn applies a deterministic batch of removals (first live edges in
// CSR order) and additions (pseudo-random absent pairs) to g.
func churn(t testing.TB, g *graph.Graph, removes, adds int) []graph.EdgeDelta {
	t.Helper()
	var ops []graph.EdgeUpdate
	g.Edges(func(from, to uint32, prob float32) {
		if len(ops) < removes && prob > 0 {
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: from, To: to})
		}
	})
	rng := xrand.New(uint64(g.Version())*0x9e37 + 5)
	n := uint32(g.NumNodes())
	for added := 0; added < adds; {
		u, v := rng.Uint32n(n), rng.Uint32n(n)
		if u == v {
			continue
		}
		dup := false
		for _, op := range ops {
			if op.Op == graph.OpAdd && op.From == u && op.To == v {
				dup = true
				break
			}
		}
		if dup || hasEdge(g, u, v) {
			continue
		}
		ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: 0.02})
		added++
	}
	deltas, fresh, err := g.ApplyUpdates(g.Version()+1, ops)
	if err != nil || !fresh {
		t.Fatalf("churn: fresh=%v err=%v", fresh, err)
	}
	return deltas
}

func hasEdge(g *graph.Graph, u, v uint32) bool {
	adj, probs := g.OutNeighbors(u)
	for i, w := range adj {
		if w == v && probs[i] > 0 {
			return true
		}
	}
	for _, e := range g.OutOverlay(u) {
		if e.Node == v && e.Prob > 0 {
			return true
		}
	}
	return false
}

// A mutated graph must sample identically before and after Compact: the
// fold preserves every coin's slot position, so the scan stream lands on
// the same draws. This is the positional-stability contract repair
// relies on.
func TestDynamicSampleCompactInvariance(t *testing.T) {
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		a, b := dynGraph(t, 300, model), dynGraph(t, 300, model)
		for _, g := range []*graph.Graph{a, b} {
			churn(t, g, 20, 20)
			churn(t, g, 0, 10)
		}
		if a.ContentHash() != b.ContentHash() {
			t.Fatal("twin graphs diverged before compact")
		}
		b.Compact()
		sa, err := NewSampler(a, model, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSampler(b, model, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := NewCollection(1024), NewCollection(1024)
		sa.SampleManyInto(ca, 200)
		sb.SampleManyInto(cb, 200)
		if ca.Count() != cb.Count() {
			t.Fatalf("%v: counts %d vs %d", model, ca.Count(), cb.Count())
		}
		for i := 0; i < ca.Count(); i++ {
			x, y := ca.Set(i), cb.Set(i)
			if len(x) != len(y) {
				t.Fatalf("%v set %d: sizes %d vs %d", model, i, len(x), len(y))
			}
			for j := range x {
				if x[j] != y[j] {
					t.Fatalf("%v set %d diverged at member %d", model, i, j)
				}
			}
		}
	}
}

// ResampleLane(LaneSeed(base, t)) must reproduce set t of stream base
// byte for byte when the graph is unchanged — the identity that makes a
// repaired slot exactly the set the original stream would have drawn.
func TestResampleLaneReproducesSets(t *testing.T) {
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		g := dynGraph(t, 300, model)
		churn(t, g, 10, 10)
		const base, count = uint64(9), 100
		s, err := NewSampler(g, model, base, false)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollection(1024)
		s.SampleManyInto(c, count)
		repair, err := NewSampler(g, model, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			got, _ := repair.ResampleLane(xrand.LaneSeed(base, uint64(i)))
			want := c.Set(i)
			if len(got) != len(want) {
				t.Fatalf("%v lane %d: size %d, want %d", model, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v lane %d diverged at member %d", model, i, j)
				}
			}
		}
	}
}

// AppendLaneSeeds grows its destination once per call, not up append's
// ladder one seed at a time: a DIIMM round peeks θ/2 seeds in one call.
func TestAppendLaneSeedsAllocatesOnce(t *testing.T) {
	g := dynGraph(t, 300, diffusion.IC)
	ss, err := NewShardedSampler(g, diffusion.IC, 21, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]uint64, 0, 16)
	if a := testing.AllocsPerRun(20, func() {
		lanes = ss.AppendLaneSeeds(lanes[:16:16], 5000)
	}); a > 1 && !raceDetector {
		t.Fatalf("AppendLaneSeeds of 5000 seeds onto a full slice made %.0f allocations, want at most 1", a)
	}
	if len(lanes) != 16+5000 {
		t.Fatalf("%d lane seeds, want %d", len(lanes), 16+5000)
	}
}

// AppendLaneSeeds must map every upcoming merge position to the lane
// seed its shard will actually use, across rounds of different sizes,
// and must not advance any stream.
func TestAppendLaneSeedsMatchesGeneration(t *testing.T) {
	g := dynGraph(t, 300, diffusion.IC)
	ss, err := NewShardedSampler(g, diffusion.IC, 21, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	var lanes []uint64
	for _, round := range []int64{10, 7, 1, 13} {
		peek := ss.AppendLaneSeeds(nil, round)
		again := ss.AppendLaneSeeds(nil, round)
		for i := range peek {
			if peek[i] != again[i] {
				t.Fatal("AppendLaneSeeds advanced state between calls")
			}
		}
		lanes = append(lanes, peek...)
		ss.SampleManyInto(c, round)
	}
	if len(lanes) != c.Count() {
		t.Fatalf("%d lane seeds for %d sets", len(lanes), c.Count())
	}
	repair, err := NewSampler(g, diffusion.IC, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Count(); i++ {
		got, _ := repair.ResampleLane(lanes[i])
		want := c.Set(i)
		if len(got) != len(want) {
			t.Fatalf("set %d: resampled size %d, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("set %d diverged at member %d", i, j)
			}
		}
	}
}

func TestApplyPatches(t *testing.T) {
	c := NewCollection(16)
	c.Append([]uint32{1, 2, 3}, 0)
	c.Append([]uint32{4}, 0)
	c.Append([]uint32{5, 6}, 0)
	if err := c.ApplyPatches([]Patch{
		{Pos: 0, Members: []uint32{9, 8, 7, 6}},
		{Pos: 2, Members: nil},
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]uint32{{9, 8, 7, 6}, {4}, {}}
	for i, w := range want {
		got := c.Set(i)
		if len(got) != len(w) {
			t.Fatalf("set %d = %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("set %d = %v, want %v", i, got, w)
			}
		}
	}
	if c.TotalSize() != 5 {
		t.Fatalf("total size %d", c.TotalSize())
	}
	// A snapshot taken after the patch sees the patched sets.
	if snap := c.Snapshot(); snap.Count() != 3 || snap.TotalSize() != 5 || len(snap.Set(0)) != 4 || snap.Set(0)[0] != 9 || len(snap.Set(2)) != 0 {
		t.Fatalf("snapshot after the patch: %d sets, %d members, set 0 = %v", snap.Count(), snap.TotalSize(), snap.Set(0))
	}
	if err := c.ApplyPatches([]Patch{{Pos: 3, Members: nil}}); err == nil {
		t.Fatal("out-of-range patch accepted")
	}
	if err := c.ApplyPatches([]Patch{{Pos: 1}, {Pos: 1}}); err == nil {
		t.Fatal("duplicate patch accepted")
	}
	if err := c.ApplyPatches(nil); err != nil {
		t.Fatal(err)
	}
}

// Satellite: the inverted index stays exact across ≥3 incremental growth
// epochs interleaved with repairs (postings pruned and replaced via
// ApplyPatches + rebuild), matching a from-scratch build node for node.
func TestIndexAppendFromEpochsWithRepairs(t *testing.T) {
	g := dynGraph(t, 200, diffusion.IC)
	s, err := NewSampler(g, diffusion.IC, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	check := func(idx *Index, stage string) {
		t.Helper()
		fresh, err := BuildIndex(c, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if idx.Count() != fresh.Count() {
			t.Fatalf("%s: index covers %d sets, rebuild covers %d", stage, idx.Count(), fresh.Count())
		}
		for v := 0; v < g.NumNodes(); v++ {
			a, b := idx.AppendCovers(nil, uint32(v)), fresh.AppendCovers(nil, uint32(v))
			if len(a) != len(b) {
				t.Fatalf("%s: node %d postings %v vs rebuild %v", stage, v, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: node %d postings %v vs rebuild %v", stage, v, a, b)
				}
			}
			if idx.Degree(uint32(v)) != len(b) {
				t.Fatalf("%s: node %d degree %d, want %d", stage, v, idx.Degree(uint32(v)), len(b))
			}
		}
	}

	// Epoch 1: initial build.
	s.SampleManyInto(c, 60)
	idx, err := BuildIndex(c, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	check(idx, "epoch 1")

	// Repair: prune postings of three sets, rebuild (as the worker does
	// after splicing patches), then keep growing incrementally.
	if err := c.ApplyPatches([]Patch{
		{Pos: 5, Members: []uint32{0, 1}},
		{Pos: 17, Members: nil},
		{Pos: 42, Members: []uint32{9}},
	}); err != nil {
		t.Fatal(err)
	}
	if idx, err = BuildIndex(c, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	check(idx, "repair 1")

	// Epochs 2-4: incremental growth, with another repair in between.
	for epoch, grow := range []int64{40, 30, 50} {
		s.SampleManyInto(c, grow)
		if err := idx.AppendFrom(c, idx.Count()); err != nil {
			t.Fatal(err)
		}
		check(idx, "growth epoch")
		if epoch == 1 {
			if err := c.ApplyPatches([]Patch{{Pos: 70, Members: []uint32{2, 3, 4}}}); err != nil {
				t.Fatal(err)
			}
			if idx, err = BuildIndex(c, g.NumNodes()); err != nil {
				t.Fatal(err)
			}
			check(idx, "repair 2")
		}
	}
	if len(idx.segs) < 2 {
		t.Fatalf("incremental path not exercised: %d segments", len(idx.segs))
	}
}
