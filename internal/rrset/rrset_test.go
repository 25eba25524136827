package rrset

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// fig1 builds the paper's Fig. 1 example graph (v1 = node 0).
func fig1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for _, e := range []graph.Edge{
		{From: 0, To: 1, Prob: 1.0},
		{From: 0, To: 2, Prob: 1.0},
		{From: 0, To: 3, Prob: 0.4},
		{From: 1, To: 3, Prob: 0.3},
		{From: 2, To: 3, Prob: 0.2},
	} {
		if err := b.AddEdge(e.From, e.To, e.Prob); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func sortedCopy(xs []uint32) []uint32 {
	out := append([]uint32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSets(a, b []uint32) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCollectionBasics(t *testing.T) {
	c := NewCollection(16)
	if c.Count() != 0 || c.TotalSize() != 0 || c.AvgSize() != 0 {
		t.Fatal("fresh collection not empty")
	}
	c.Append([]uint32{1, 2, 3}, 5)
	c.Append([]uint32{7}, 2)
	c.Append(nil, 0)
	if c.Count() != 3 {
		t.Fatalf("count = %d", c.Count())
	}
	if c.TotalSize() != 4 {
		t.Fatalf("total size = %d", c.TotalSize())
	}
	if c.EdgesExamined() != 7 {
		t.Fatalf("edges examined = %d", c.EdgesExamined())
	}
	if !equalSets(c.Set(0), []uint32{1, 2, 3}) || !equalSets(c.Set(1), []uint32{7}) || len(c.Set(2)) != 0 {
		t.Fatal("set contents wrong")
	}
	if got := c.AvgSize(); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("avg size = %v", got)
	}
}

func TestSizeHistogram(t *testing.T) {
	c := NewCollection(16)
	c.Append(nil, 0)                     // bin 0
	c.Append([]uint32{1}, 0)             // size 1 -> bin 1
	c.Append([]uint32{1, 2}, 0)          // size 2 -> bin 2
	c.Append([]uint32{1, 2, 3}, 0)       // size 3 -> bin 2
	c.Append([]uint32{1, 2, 3, 4, 5}, 0) // size 5 -> bin 3
	bins := c.SizeHistogram()
	if bins[0] != 1 || bins[1] != 1 || bins[2] != 2 || bins[3] != 1 {
		t.Fatalf("histogram wrong: %v", bins[:5])
	}
	var total int64
	for _, b := range bins {
		total += b
	}
	if total != int64(c.Count()) {
		t.Fatalf("histogram covers %d sets, want %d", total, c.Count())
	}
}

func TestIndex(t *testing.T) {
	c := NewCollection(16)
	c.Append([]uint32{0, 2}, 0)
	c.Append([]uint32{1}, 0)
	c.Append([]uint32{0, 1, 2}, 0)
	idx, err := BuildIndex(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() != 3 {
		t.Fatalf("index count = %d", idx.Count())
	}
	if !equalSets(idx.AppendCovers(nil, 0), []uint32{0, 2}) {
		t.Fatalf("Covers(0) = %v", idx.AppendCovers(nil, 0))
	}
	if !equalSets(idx.AppendCovers(nil, 1), []uint32{1, 2}) {
		t.Fatalf("Covers(1) = %v", idx.AppendCovers(nil, 1))
	}
	if idx.Degree(2) != 2 || idx.Degree(0) != 2 || idx.Degree(1) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestIndexPropertyRandom(t *testing.T) {
	// Property: Covers(v) is exactly {i : v ∈ Set(i)}.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(20)
		c := NewCollection(64)
		sets := 1 + r.Intn(30)
		member := make(map[[2]uint32]bool)
		for i := 0; i < sets; i++ {
			var s []uint32
			size := r.Intn(n)
			seen := map[uint32]bool{}
			for j := 0; j < size; j++ {
				v := uint32(r.Intn(n))
				if !seen[v] {
					seen[v] = true
					s = append(s, v)
					member[[2]uint32{uint32(i), v}] = true
				}
			}
			c.Append(s, 0)
		}
		idx, err := BuildIndex(c, n)
		if err != nil {
			return false
		}
		total := 0
		for v := uint32(0); v < uint32(n); v++ {
			for _, id := range idx.AppendCovers(nil, v) {
				if !member[[2]uint32{id, v}] {
					return false
				}
				total++
			}
		}
		return int64(total) == c.TotalSize()
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma1Unbiased verifies Lemma 1: σ(S) = n·Pr[S ∩ R ≠ ∅], by
// comparing the RR-set hit frequency with exact spread on the Fig. 1 graph
// for several seed sets under both models.
func TestLemma1Unbiased(t *testing.T) {
	g := fig1(t)
	n := float64(g.NumNodes())
	const draws = 300000
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, seeds := range [][]uint32{{0}, {1}, {3}, {1, 2}, {0, 3}} {
			s, err := NewSampler(g, model, 12345, false)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCollection(1024)
			t.Cleanup(c.Release)
			hit := 0
			inSeed := map[uint32]bool{}
			for _, v := range seeds {
				inSeed[v] = true
			}
			for i := 0; i < draws; i++ {
				size, _ := s.SampleInto(c)
				members := c.Set(c.Count() - 1)
				_ = size
				for _, v := range members {
					if inSeed[v] {
						hit++
						break
					}
				}
			}
			est := n * float64(hit) / draws
			want, err := diffusion.ExactSpread(g, seeds, model)
			if err != nil {
				t.Fatal(err)
			}
			// 5-sigma binomial bound on the estimate.
			p := want / n
			sigma := n * math.Sqrt(p*(1-p)/draws)
			if math.Abs(est-want) > 5*sigma+1e-9 {
				t.Fatalf("%v seeds %v: RIS estimate %v vs exact %v (sigma %v)", model, seeds, est, want, sigma)
			}
		}
	}
}

// TestExampleTwoIC checks Example 2's setting: under IC, conditioned on
// root v4, the paper narrates one construction of the RR set {v1,v3,v4}
// with coin pattern probability 0.2·0.4·(1−0.3) = 0.056. The *total*
// probability of the set is larger, because v1 also joins through the
// deterministic edge ⟨v1,v3⟩ whenever v3 is in: the set occurs iff
// ⟨v3,v4⟩ fires (0.2) and ⟨v2,v4⟩ does not (0.7), i.e. 0.14.
func TestExampleTwoIC(t *testing.T) {
	g := fig1(t)
	s, err := NewSampler(g, diffusion.IC, 777, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	t.Cleanup(c.Release)
	want := []uint32{0, 2, 3} // v1, v3, v4 in 0-based ids
	rooted, match := 0, 0
	for rooted < 200000 {
		s.SampleInto(c)
		members := c.Set(c.Count() - 1)
		if members[0] != 3 { // root is always the first member
			continue
		}
		rooted++
		if equalSets(members, want) {
			match++
		}
	}
	got := float64(match) / float64(rooted)
	const wantProb = 0.2 * 0.7
	sigma := math.Sqrt(wantProb * (1 - wantProb) / float64(rooted))
	if math.Abs(got-wantProb) > 5*sigma {
		t.Fatalf("Pr[{v1,v3,v4} | root v4] = %v, want %v (sigma %v)", got, wantProb, sigma)
	}
}

// TestExampleTwoLT: under LT, conditioned on root v4, the walk yields
// {v1,v3,v4} only via v4→v3→v1, with probability p(v3,v4) = 0.2.
func TestExampleTwoLT(t *testing.T) {
	g := fig1(t)
	s, err := NewSampler(g, diffusion.LT, 778, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(1024)
	t.Cleanup(c.Release)
	want := []uint32{0, 2, 3}
	rooted, match := 0, 0
	for rooted < 200000 {
		s.SampleInto(c)
		members := c.Set(c.Count() - 1)
		if members[0] != 3 {
			continue
		}
		rooted++
		if equalSets(members, want) {
			match++
		}
	}
	got := float64(match) / float64(rooted)
	sigma := math.Sqrt(0.2 * 0.8 / float64(rooted))
	if math.Abs(got-0.2) > 5*sigma {
		t.Fatalf("Pr[{v1,v3,v4} | root v4] = %v, want 0.2 (sigma %v)", got, sigma)
	}
}

// TestLemma3EPS verifies EPS = (1/n)·Σ_v σ({v}) on the Fig. 1 graph.
func TestLemma3EPS(t *testing.T) {
	g := fig1(t)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		want := 0.0
		for v := uint32(0); v < 4; v++ {
			s, err := diffusion.ExactSpread(g, []uint32{v}, model)
			if err != nil {
				t.Fatal(err)
			}
			want += s
		}
		want /= 4
		s, err := NewSampler(g, model, 4242, false)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollection(1 << 20)
		t.Cleanup(c.Release)
		s.SampleManyInto(c, 300000)
		got := c.AvgSize()
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%v: empirical EPS %v vs exact %v", model, got, want)
		}
	}
}

func TestLTWalkStopsOnRevisit(t *testing.T) {
	// Cycle 0 <-> 1 with probability 1 both ways: an LT walk from either
	// root must terminate (stop on revisit) with both nodes in the set.
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 0, 1)
	g := b.Build()
	s, err := NewSampler(g, diffusion.LT, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	for i := 0; i < 100; i++ {
		size, _ := s.SampleInto(c)
		if size != 2 {
			t.Fatalf("cycle walk produced size %d, want 2", size)
		}
	}
}

func TestSubsetSamplingRequiresUniform(t *testing.T) {
	g := fig1(t) // non-uniform incoming probabilities
	if _, err := NewSampler(g, diffusion.IC, 1, true); err == nil {
		t.Fatal("subset sampling accepted a non-uniform graph")
	}
}

func TestLTRejectsInvalidWeights(t *testing.T) {
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 2, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	g := b.Build()
	if _, err := NewSampler(g, diffusion.LT, 1, false); err == nil {
		t.Fatal("LT sampler accepted incoming sum > 1")
	}
}

// TestSubsetMatchesPlain verifies the SUBSIM generator is distributionally
// identical to per-edge coin flips: on a WC graph, the mean RR-set size
// and the per-seed-set hit rates must agree within sampling error.
func TestSubsetMatchesPlain(t *testing.T) {
	pa, err := graph.GenPreferential(graph.GenConfig{Nodes: 300, AvgDegree: 6, Seed: 3, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.AssignWeights(pa, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 60000
	plain, err := NewSampler(g, diffusion.IC, 101, false)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSampler(g, diffusion.IC, 202, true)
	if err != nil {
		t.Fatal(err)
	}
	cp, cs := NewCollection(1<<20), NewCollection(1<<20)
	t.Cleanup(cp.Release)
	t.Cleanup(cs.Release)
	plain.SampleManyInto(cp, draws)
	sub.SampleManyInto(cs, draws)
	mp, ms := cp.AvgSize(), cs.AvgSize()
	if math.Abs(mp-ms) > 0.15*math.Max(mp, 1) {
		t.Fatalf("mean RR size: plain %v vs subset %v", mp, ms)
	}
	// Hit rate of a fixed probe set must match (this is the statistic the
	// downstream algorithms consume).
	probe := map[uint32]bool{0: true, 1: true, 2: true}
	rate := func(c *Collection) float64 {
		hits := 0
		for i := 0; i < c.Count(); i++ {
			for _, v := range c.Set(i) {
				if probe[v] {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(c.Count())
	}
	rp, rs := rate(cp), rate(cs)
	sigma := math.Sqrt(rp * (1 - rp) / draws)
	if math.Abs(rp-rs) > 6*sigma+1e-4 {
		t.Fatalf("hit rates diverge: plain %v vs subset %v (sigma %v)", rp, rs, sigma)
	}
	// Subset sampling must do fewer edge probes.
	if cs.EdgesExamined() >= cp.EdgesExamined() {
		t.Fatalf("subset sampling probed %d edges, plain %d — no saving", cs.EdgesExamined(), cp.EdgesExamined())
	}
}

func TestSamplerDeterminism(t *testing.T) {
	g, _ := graph.GenPreferential(graph.GenConfig{Nodes: 100, AvgDegree: 5, Seed: 1, UniformAttach: 0.2})
	wc, _ := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		a, _ := NewSampler(wc, model, 55, false)
		b, _ := NewSampler(wc, model, 55, false)
		ca, cb := NewCollection(1024), NewCollection(1024)
		a.SampleManyInto(ca, 500)
		b.SampleManyInto(cb, 500)
		if ca.TotalSize() != cb.TotalSize() {
			t.Fatalf("%v: same seed, different collections", model)
		}
		for i := 0; i < ca.Count(); i++ {
			if !equalSets(ca.Set(i), cb.Set(i)) {
				t.Fatalf("%v: RR set %d differs", model, i)
			}
		}
	}
}

func TestRootAlwaysInSet(t *testing.T) {
	g, _ := graph.GenPreferential(graph.GenConfig{Nodes: 200, AvgDegree: 5, Seed: 2, UniformAttach: 0.2})
	wc, _ := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s, err := NewSampler(wc, model, 66, false)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollection(4096)
		for i := 0; i < 1000; i++ {
			size, _ := s.SampleInto(c)
			if size < 1 {
				t.Fatalf("%v: empty RR set", model)
			}
		}
		// Members must be unique within each RR set.
		for i := 0; i < c.Count(); i++ {
			seen := map[uint32]bool{}
			for _, v := range c.Set(i) {
				if seen[v] {
					t.Fatalf("%v: duplicate member %d in RR set %d", model, v, i)
				}
				seen[v] = true
			}
		}
	}
}

func BenchmarkSampleIC(b *testing.B) {
	benchSampler(b, diffusion.IC, false)
}

func BenchmarkSampleICSubset(b *testing.B) {
	benchSampler(b, diffusion.IC, true)
}

func BenchmarkSampleLT(b *testing.B) {
	benchSampler(b, diffusion.LT, false)
}

func benchSampler(b *testing.B, model diffusion.Model, subset bool) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 20000, AvgDegree: 10, Seed: 1, UniformAttach: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSampler(wc, model, 1, subset)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollection(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(c)
	}
}
