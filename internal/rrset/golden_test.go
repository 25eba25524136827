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

// goldenSplits is the call sequence the golden streams are sampled in:
// a single set, requests one below, at and above B = 64, a long run, and
// a short tail — every batched call boundary a stream must not notice.
var goldenSplits = []int64{1, 63, 64, 65, 1000, 7}

// goldenShards are the shard counts every golden stream is checked at:
// shards split a request into contiguous ordinal ranges of the one
// stream, so P never changes a byte.
var goldenShards = []int{1, 2, 4}

// sampleSplit samples total sets into c: goldenSplits first, then the rest
// in one call.
func sampleSplit(s interface{ SampleManyInto(*Collection, int64) }, c *Collection, total int64) {
	for _, n := range goldenSplits {
		s.SampleManyInto(c, n)
		total -= n
	}
	s.SampleManyInto(c, total)
}

// TestICStreamGolden pins the IC sample stream from outside the code
// under test. The scalar and batched samplers flip every edge coin
// through the one xrand coin-scan kernel, so TestBatchBitIdenticalToScalar
// cannot see a kernel that is wrong in both; these digests (CRC32C of
// Collection.AppendWire, plus EdgesExamined) were recorded at the commit
// before the kernel existed, from the hand-written per-edge loops that
// compared one Float64 draw against each probability, and must never
// change without a sample format bump. Sets are requested in the split
// sequence of goldenSplits, so a batched stream that loses or reorders
// sets across call boundaries cannot match either.
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
		for _, p := range goldenShards {
			for _, b := range []int{1, 7, 64} {
				// Mutation-enabled graphs coerce any width to the scalar kernel.
				s, err := NewShardedSamplerBatch(tc.g, diffusion.IC, 42, false, p, b)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCollection(64)
				sampleSplit(s, c, tc.sets)
				crc := crc32.Checksum(c.AppendWire(nil), castagnoli)
				if crc != tc.crc || c.EdgesExamined() != tc.probes {
					t.Errorf("%s P=%d B=%d: crc32c %#08x probes %d over %d members, golden %#08x / %d",
						tc.name, p, b, crc, c.EdgesExamined(), c.TotalSize(), tc.crc, tc.probes)
				}
			}
		}
	}
}

// ltGoldenRMAT is the LT golden streams' graph: R-MAT with
// weighted-cascade weights, whose in-sums of 1 make every walk run until
// it revisits a node or reaches one with no in-edges.
func ltGoldenRMAT(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 2000, AvgDegree: 8, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// ltRandomProbGraph reweights the R-MAT graph with independent
// probabilities scaled so every in-sum is at most 0.9: the pick is the
// cumulative scan, and walks also stop on the 1 − Σp draw.
func ltRandomProbGraph(t testing.TB) *graph.Graph {
	t.Helper()
	src := ltGoldenRMAT(t)
	r := xrand.New(0xc01)
	b := graph.NewBuilderHint(src.NumNodes(), int(src.NumEdges()))
	src.Edges(func(from, to uint32, p float32) {
		if err := b.AddEdge(from, to, float32(0.9*float64(p)*(0.5+r.Float64())/(1.5*src.InProbSum(to)))); err != nil {
			t.Fatal(err)
		}
	})
	return b.Build()
}

// TestLTStreamGolden pins the LT reverse-walk stream the way
// TestICStreamGolden pins IC: CRC32C of Collection.AppendWire plus
// EdgesExamined, recorded at the commit before the streaming driver and
// the staged walk step existed (cohort barrier, one lane at a time per
// step), for the scalar sampler and B ∈ {1, 7, 64}, sampled in the
// goldenSplits call sequence. The sharded sampler must match the same
// digests at every goldenShards P.
func TestLTStreamGolden(t *testing.T) {
	wc := ltGoldenRMAT(t)
	randomProb := ltRandomProbGraph(t)
	if randomProb.UniformIn() {
		t.Fatal("random-probability graph has uniform in-weights: the scan path is not covered")
	}
	for v := 0; v < randomProb.NumNodes(); v++ {
		if sum := randomProb.InProbSum(uint32(v)); sum >= 1 {
			t.Fatalf("node %d in-sum %g: walks would never stop on the 1 - sum draw there", v, sum)
		}
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		targeted bool
		crc      uint32
		probes   int64
	}{
		{"weighted-cascade", wc, false, 0x87cd7ff6, 29426},
		{"random-prob", randomProb, false, 0xc1faeceb, 117822},
		{"targeted", wc, true, 0xe9a4caac, 29344},
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, tc := range cases {
		for _, p := range append([]int{0}, goldenShards...) { // 0: unsharded
			for _, b := range []int{0, 1, 7, 64} { // 0: the scalar Sampler
				var s interface {
					SampleManyInto(*Collection, int64)
					SetRootWeights([]float64) error
				}
				var err error
				switch {
				case p > 0:
					s, err = NewShardedSamplerBatch(tc.g, diffusion.LT, 42, false, p, b)
				case b == 0:
					s, err = NewSampler(tc.g, diffusion.LT, 42, false)
				default:
					s, err = NewBatchSampler(tc.g, diffusion.LT, 42, false, b)
				}
				if err != nil {
					t.Fatal(err)
				}
				if tc.targeted {
					if err := s.SetRootWeights(targetedWeights(tc.g.NumNodes())); err != nil {
						t.Fatal(err)
					}
				}
				c := NewCollection(64)
				sampleSplit(s, c, 3000)
				crc := crc32.Checksum(c.AppendWire(nil), castagnoli)
				if crc != tc.crc || c.EdgesExamined() != tc.probes {
					t.Errorf("%s P=%d B=%d: crc32c %#08x probes %d over %d members, golden %#08x / %d",
						tc.name, p, b, crc, c.EdgesExamined(), c.TotalSize(), tc.crc, tc.probes)
				}
			}
		}
	}
}

// TestICSubsetStreamGolden pins the SUBSIM stream (geometric jumps over
// a node's in-slots) the way TestICStreamGolden pins the coin scan:
// CRC32C of Collection.AppendWire plus EdgesExamined on two
// weighted-cascade graphs, for the scalar sampler and B = 64, unsharded
// and at every goldenShards P, sampled in the goldenSplits call
// sequence. Weighted cascade gives every in-degree-1 node p = 1, so the
// draw-free p ≥ 1 jump is covered beside the logarithmic one. Recorded
// before the jump loops computed log(1 − p) once per scan instead of
// once per jump.
func TestICSubsetStreamGolden(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		crc    uint32
		probes int64
	}{
		{"preferential", testGraph(t, 400, 7), 0x404f282b, 4951},
		{"rmat", ltGoldenRMAT(t), 0x73271a51, 34267},
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, tc := range cases {
		certain := 0
		for v := 0; v < tc.g.NumNodes(); v++ {
			if _, prob := tc.g.InNeighbors(uint32(v)); len(prob) > 0 && prob[0] >= 1 {
				certain++
			}
		}
		if certain == 0 {
			t.Fatalf("%s: no node has p = 1 in-edges: the draw-free jump is not covered", tc.name)
		}
		for _, p := range append([]int{0}, goldenShards...) { // 0: unsharded
			for _, b := range []int{0, 64} { // 0: the scalar Sampler
				var s interface{ SampleManyInto(*Collection, int64) }
				var err error
				switch {
				case p > 0:
					s, err = NewShardedSamplerBatch(tc.g, diffusion.IC, 42, true, p, b)
				case b == 0:
					s, err = NewSampler(tc.g, diffusion.IC, 42, true)
				default:
					s, err = NewBatchSampler(tc.g, diffusion.IC, 42, true, b)
				}
				if err != nil {
					t.Fatal(err)
				}
				c := NewCollection(64)
				sampleSplit(s, c, 3000)
				crc := crc32.Checksum(c.AppendWire(nil), castagnoli)
				if crc != tc.crc || c.EdgesExamined() != tc.probes {
					t.Errorf("%s P=%d B=%d: crc32c %#08x probes %d over %d members, golden %#08x / %d",
						tc.name, p, b, crc, c.EdgesExamined(), c.TotalSize(), tc.crc, tc.probes)
				}
			}
		}
	}
}
