package rrset

import (
	"encoding/binary"
	"math"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// testGraph builds a small weighted-cascade preferential-attachment graph.
func testGraph(t testing.TB, nodes int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: nodes, AvgDegree: 6, Seed: seed, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// collectionsEqual reports whether two collections hold identical RR sets
// in identical order (byte-identical arenas).
func collectionsEqual(a, b *Collection) bool {
	if a.Count() != b.Count() || a.TotalSize() != b.TotalSize() || a.EdgesExamined() != b.EdgesExamined() {
		return false
	}
	for i := 0; i < a.Count(); i++ {
		sa, sb := a.Set(i), b.Set(i)
		if len(sa) != len(sb) {
			return false
		}
		for j := range sa {
			if sa[j] != sb[j] {
				return false
			}
		}
	}
	return true
}

func TestShardedP1BitIdenticalToPlainSampler(t *testing.T) {
	g := testGraph(t, 400, 7)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		plain, err := NewSampler(g, model, 42, false)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewShardedSampler(g, model, 42, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, got := NewCollection(64), NewCollection(64)
		plain.SampleManyInto(want, 500)
		sharded.SampleManyInto(got, 500)
		if !collectionsEqual(want, got) {
			t.Fatalf("%v: P=1 sharded sampler diverges from the plain sampler", model)
		}
	}
}

// TestShardedDeterministicAcrossRuns: at every P, a request sequence
// yields the plain sampler's stream, whatever the per-request split.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	g := testGraph(t, 400, 9)
	plain, err := NewSampler(g, diffusion.IC, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	want := NewCollection(64)
	plain.SampleManyInto(want, 358)
	for _, p := range []int{2, 3, 4, 8} {
		a, err := NewShardedSampler(g, diffusion.IC, 5, false, p)
		if err != nil {
			t.Fatal(err)
		}
		ca := NewCollection(64)
		// Different batch sizes within a run exercise the per-request
		// split, including requests smaller than P.
		for _, batch := range []int64{1, 7, 250, 100} {
			a.SampleManyInto(ca, batch)
		}
		if !collectionsEqual(ca, want) {
			t.Fatalf("P=%d: sharded stream diverges from the plain sampler's", p)
		}
		if ca.Count() != 358 {
			t.Fatalf("P=%d: generated %d sets, want 358", p, ca.Count())
		}
	}
}

func TestShardedSubsetAndTargetedModes(t *testing.T) {
	g := testGraph(t, 300, 3)
	// Subset sampling is valid on weighted-cascade graphs.
	s, err := NewShardedSampler(g, diffusion.IC, 11, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for i := range weights {
		weights[i] = float64(i%5) + 0.5
	}
	if err := s.SetRootWeights(weights); err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, 300)
	if c.Count() != 300 {
		t.Fatalf("generated %d sets, want 300", c.Count())
	}
	// Same seed, same mode: reproducible under targeted roots too.
	s2, err := NewShardedSampler(g, diffusion.IC, 11, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SetRootWeights(weights); err != nil {
		t.Fatal(err)
	}
	c2 := NewCollection(64)
	s2.SampleManyInto(c2, 300)
	if !collectionsEqual(c, c2) {
		t.Fatal("targeted sharded sampling not reproducible")
	}
	if err := s.SetRootWeights(make([]float64, 3)); err == nil {
		t.Fatal("want error for mismatched weight vector length")
	}
	if err := s.SetRootWeights(nil); err != nil {
		t.Fatalf("clearing root weights: %v", err)
	}
}

func TestCollectionResetAndAppendCollection(t *testing.T) {
	a := NewCollection(8)
	a.Append([]uint32{1, 2}, 3)
	a.Append([]uint32{5}, 1)
	b := NewCollection(8)
	b.Append([]uint32{9}, 7)
	b.Append(nil, 0)
	b.Append([]uint32{0, 4, 6}, 2)

	merged := NewCollection(8)
	merged.AppendCollection(a)
	merged.AppendCollection(b)
	if merged.Count() != 5 || merged.TotalSize() != 7 || merged.EdgesExamined() != 13 {
		t.Fatalf("merged stats: count=%d size=%d probes=%d", merged.Count(), merged.TotalSize(), merged.EdgesExamined())
	}
	want := [][]uint32{{1, 2}, {5}, {9}, {}, {0, 4, 6}}
	for i, w := range want {
		got := merged.Set(i)
		if len(got) != len(w) {
			t.Fatalf("set %d = %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("set %d = %v, want %v", i, got, w)
			}
		}
	}

	b.Reset()
	if b.Count() != 0 || b.TotalSize() != 0 || b.EdgesExamined() != 0 {
		t.Fatal("reset collection not empty")
	}
	b.Append([]uint32{8}, 1)
	if b.Count() != 1 || b.Set(0)[0] != 8 {
		t.Fatal("append after reset broken")
	}
}

// TestAppendWireMatchesLegacyEncoding pins the bulk encoder to the exact
// wire bytes the per-element encoder produced.
func TestAppendWireMatchesLegacyEncoding(t *testing.T) {
	g := testGraph(t, 200, 1)
	s, err := NewSampler(g, diffusion.IC, 13, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, 150)
	c.Append(nil, 0) // empty RR set edge case

	legacy := []byte{0xAB} // non-empty prefix: AppendWire must append, not overwrite
	legacy = binary.LittleEndian.AppendUint32(legacy, uint32(c.Count()))
	for i := 0; i < c.Count(); i++ {
		set := c.Set(i)
		legacy = binary.LittleEndian.AppendUint32(legacy, uint32(len(set)))
		for _, v := range set {
			legacy = binary.LittleEndian.AppendUint32(legacy, v)
		}
	}

	got := c.AppendWire([]byte{0xAB})
	if len(got) != 1+c.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize promises %d", len(got)-1, c.WireSize())
	}
	if string(got) != string(legacy) {
		t.Fatal("bulk wire encoding differs from the legacy per-element encoding")
	}
}

// TestSamplerEpochWraparound drives nextEpoch across the uint32 overflow
// and asserts the visited scratch is correctly reset (the epoch == 0
// branch of sampler.go).
func TestSamplerEpochWraparound(t *testing.T) {
	g := testGraph(t, 150, 4)
	s, err := NewSampler(g, diffusion.IC, 21, false)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the visited array with arbitrary stale stamps, including the
	// value the wrapped epoch would otherwise collide with (0).
	s.epoch = math.MaxUint32
	for i := range s.visited {
		s.visited[i] = uint32(i) * 2654435761
	}
	s.nextEpoch()
	if s.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", s.epoch)
	}
	for i, v := range s.visited {
		if v != 0 {
			t.Fatalf("visited[%d] = %d after wraparound reset, want 0", i, v)
		}
	}

	// Functional check: a sampler pushed to the brink of overflow must
	// produce exactly the sets a fresh sampler with the same seed does —
	// the RNG streams are aligned, so any divergence means stale visited
	// state leaked across the wrap. The wrapping sampler first runs a few
	// organic samples so its visited array carries genuine low-valued
	// stamps (1, 2, …) — exactly the values the post-wrap epochs would
	// falsely collide with if nextEpoch failed to clear the array.
	fresh, err := NewSampler(g, diffusion.IC, 33, false)
	if err != nil {
		t.Fatal(err)
	}
	wrapping, err := NewSampler(g, diffusion.IC, 33, false)
	if err != nil {
		t.Fatal(err)
	}
	warmup := NewCollection(64)
	wrapping.SampleManyInto(warmup, 5) // visited now holds stamps 1..5
	wrapping.Seed(33)                  // realign the RNG stream with fresh
	wrapping.epoch = math.MaxUint32 - 3
	cf, cw := NewCollection(64), NewCollection(64)
	fresh.SampleManyInto(cf, 10)
	wrapping.SampleManyInto(cw, 10) // crosses the wrap at the 4th sample
	if !collectionsEqual(cf, cw) {
		t.Fatal("sampler diverges when its epoch counter wraps")
	}
	if wrapping.epoch != 7 {
		// 3 pre-wrap epochs, then the wrap resets to 1 and 6 more follow.
		t.Fatalf("epoch after crossing the wrap = %d, want 7", wrapping.epoch)
	}
}
