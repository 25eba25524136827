package rrset

import (
	"hash/crc32"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// randomProbGraph builds a preferential graph whose edge probabilities
// are independent uniform draws: no two neighbouring in-slots share a
// value, so nothing about one coin's threshold carries to the next.
func randomProbGraph(t testing.TB, nodes int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: nodes, AvgDegree: 6, Seed: seed, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilderHint(g.NumNodes(), int(g.NumEdges()))
	r := xrand.New(seed ^ 0xc01)
	g.Edges(func(from, to uint32, _ float32) {
		if err := b.AddEdge(from, to, float32(r.Float64()*0.3)); err != nil {
			t.Fatal(err)
		}
	})
	return b.Build()
}

// TestICStreamGolden pins the IC sample stream from outside the code
// under test. The scalar and batched samplers flip every edge coin
// through the one xrand coin-scan kernel, so TestBatchBitIdenticalToScalar
// cannot see a kernel that is wrong in both; these digests (CRC32C of
// Collection.AppendWire, plus EdgesExamined) were recorded at the commit
// before the kernel existed, from the hand-written per-edge loops that
// compared one Float64 draw against each probability, and must never
// change without a sample format bump.
func TestICStreamGolden(t *testing.T) {
	trivalency, err := graph.AssignWeights(testGraph(t, 400, 7), graph.Trivalency, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Overlay entries and p = 0 tombstones on base and overlay slots:
	// the second batch removes edges the first one added.
	mutated := dynGraph(t, 300, diffusion.IC)
	churn(t, mutated, 25, 40)
	r := xrand.New(99)
	n := uint32(mutated.NumNodes())
	var ops []graph.EdgeUpdate
	for len(ops) < 60 {
		u, v := r.Uint32n(n), r.Uint32n(n/4) // concentrate heads: longer overlay lists
		if u != v && !hasEdge(mutated, u, v) {
			// Likely coins, so overlay successes shape the sets.
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: [3]float32{0.3, 0.7, 1}[len(ops)%3]})
		}
	}
	applyOps := func(ops []graph.EdgeUpdate) {
		t.Helper()
		if _, fresh, err := mutated.ApplyUpdates(mutated.Version()+1, ops); err != nil || !fresh {
			t.Fatalf("ApplyUpdates: fresh=%v err=%v", fresh, err)
		}
	}
	applyOps(ops)
	ops = ops[:0]
	for v := uint32(0); v < n && len(ops) < 10; v++ {
		for _, e := range mutated.InOverlay(v) {
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: e.Node, To: v})
		}
	}
	applyOps(ops)
	if mutated.OverlayEdges() == 0 || mutated.Tombstones() < 30 {
		t.Fatalf("mutated graph has %d overlay slots, %d tombstones: the case lost its point",
			mutated.OverlayEdges(), mutated.Tombstones())
	}

	cases := []struct {
		name   string
		g      *graph.Graph
		sets   int64
		crc    uint32
		probes int64
	}{
		{"weighted-cascade", testGraph(t, 400, 7), 3000, 0x51a1d172, 22798},
		{"trivalency", trivalency, 3000, 0xea1ca53f, 24216},
		{"random-prob", randomProbGraph(t, 400, 7), 3000, 0x4abbc8a8, 45573},
		{"mutated", mutated, 3000, 0x6c8acfba, 15726},
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, tc := range cases {
		for _, b := range []int{1, 64} {
			// P = 1: the shard stream is the seed's own. Mutation-enabled
			// graphs coerce any width to the scalar kernel.
			s, err := NewShardedSamplerBatch(tc.g, diffusion.IC, 42, false, 1, b)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCollection(64)
			s.SampleManyInto(c, tc.sets)
			crc := crc32.Checksum(c.AppendWire(nil), castagnoli)
			if crc != tc.crc || c.EdgesExamined() != tc.probes {
				t.Errorf("%s B=%d: crc32c %#08x probes %d over %d members, golden %#08x / %d",
					tc.name, b, crc, c.EdgesExamined(), c.TotalSize(), tc.crc, tc.probes)
			}
		}
	}
}
