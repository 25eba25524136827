package diffusion

import (
	"math"
	"testing"

	"dimm/internal/graph"
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

// TestExampleOneIC reproduces Example 1 of the paper exactly:
// σ({v1}) = 0.4·4 + 0.264·4 + 0.336·3 = 3.664 under IC.
func TestExampleOneIC(t *testing.T) {
	g := fig1(t)
	got, err := ExactSpread(g, []uint32{0}, IC)
	if err != nil {
		t.Fatal(err)
	}
	// Edge probabilities are stored as float32, so the world-probability
	// products carry ~1e-7 relative error.
	if math.Abs(got-3.664) > 1e-6 {
		t.Fatalf("exact IC spread = %v, paper says 3.664", got)
	}
}

// TestExampleOneLT reproduces Example 1 under LT:
// σ({v1}) = 0.4·4 + 0.5·4 + 0.1·3 = 3.9.
func TestExampleOneLT(t *testing.T) {
	g := fig1(t)
	got, err := ExactSpread(g, []uint32{0}, LT)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.9) > 1e-6 {
		t.Fatalf("exact LT spread = %v, paper says 3.9", got)
	}
}

func TestMonteCarloMatchesExactIC(t *testing.T) {
	g := fig1(t)
	sim := NewSimulator(g, 1)
	mean, stderr := sim.Estimate([]uint32{0}, IC, 200000)
	if math.Abs(mean-3.664) > 5*stderr+0.01 {
		t.Fatalf("MC IC estimate %v ± %v inconsistent with exact 3.664", mean, stderr)
	}
}

func TestMonteCarloMatchesExactLT(t *testing.T) {
	g := fig1(t)
	sim := NewSimulator(g, 2)
	mean, stderr := sim.Estimate([]uint32{0}, LT, 200000)
	if math.Abs(mean-3.9) > 5*stderr+0.01 {
		t.Fatalf("MC LT estimate %v ± %v inconsistent with exact 3.9", mean, stderr)
	}
}

func TestSpreadMonotoneInSeeds(t *testing.T) {
	g := fig1(t)
	for _, model := range []Model{IC, LT} {
		s1, err := ExactSpread(g, []uint32{1}, model)
		if err != nil {
			t.Fatal(err)
		}
		s12, err := ExactSpread(g, []uint32{1, 2}, model)
		if err != nil {
			t.Fatal(err)
		}
		if s12 < s1 {
			t.Fatalf("%v: σ({1,2})=%v < σ({1})=%v violates monotonicity", model, s12, s1)
		}
	}
}

func TestSpreadSubmodularExact(t *testing.T) {
	// σ(S ∪ {x}) − σ(S) must not increase as S grows (submodularity),
	// checked exactly on the Fig. 1 graph.
	g := fig1(t)
	for _, model := range []Model{IC, LT} {
		sEmptyGain := func(x uint32) float64 {
			sx, _ := ExactSpread(g, []uint32{x}, model)
			return sx
		}
		s1, _ := ExactSpread(g, []uint32{1}, model)
		s13, _ := ExactSpread(g, []uint32{1, 3}, model)
		gainAfter := s13 - s1
		gainBefore := sEmptyGain(3)
		if gainAfter > gainBefore+1e-9 {
			t.Fatalf("%v: marginal gain of node 3 grew from %v to %v", model, gainBefore, gainAfter)
		}
	}
}

func TestSeedsAlwaysCounted(t *testing.T) {
	g := fig1(t)
	sim := NewSimulator(g, 3)
	for i := 0; i < 100; i++ {
		if n := sim.RunOnce([]uint32{3}, IC); n < 1 {
			t.Fatalf("cascade reported %d activations with 1 seed", n)
		}
	}
	// Seeding every node activates every node.
	if n := sim.RunOnce([]uint32{0, 1, 2, 3}, IC); n != 4 {
		t.Fatalf("full seed set activated %d of 4", n)
	}
	// Duplicate seeds must not be double counted.
	if n := sim.RunOnce([]uint32{3, 3, 3}, LT); n != 1 {
		t.Fatalf("duplicate seeds counted %d times", n)
	}
}

func TestDeterministicChain(t *testing.T) {
	// 0 -> 1 -> 2 with probability 1 everywhere: spread of {0} is exactly 3
	// in every single run under both models.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	g := b.Build()
	sim := NewSimulator(g, 4)
	for _, model := range []Model{IC, LT} {
		for i := 0; i < 50; i++ {
			if n := sim.RunOnce([]uint32{0}, model); n != 3 {
				t.Fatalf("%v: deterministic chain activated %d, want 3", model, n)
			}
		}
	}
}

func TestZeroProbabilityEdge(t *testing.T) {
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1, 0)
	g := b.Build()
	sim := NewSimulator(g, 5)
	for i := 0; i < 50; i++ {
		if n := sim.RunOnce([]uint32{0}, IC); n != 1 {
			t.Fatalf("zero-probability edge fired (activated %d)", n)
		}
	}
	exact, err := ExactSpread(g, []uint32{0}, IC)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 1 {
		t.Fatalf("exact spread over zero edge = %v", exact)
	}
}

func TestEstimateZeroRounds(t *testing.T) {
	g := fig1(t)
	sim := NewSimulator(g, 6)
	mean, stderr := sim.Estimate([]uint32{0}, IC, 0)
	if mean != 0 || stderr != 0 {
		t.Fatal("Estimate with 0 rounds should return zeros")
	}
}

func TestExactRefusesLargeGraphs(t *testing.T) {
	g, err := graph.GenErdosRenyi(graph.GenConfig{Nodes: 100, AvgDegree: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactSpread(g, []uint32{0}, IC); err == nil {
		t.Fatal("exact IC accepted a 500-edge graph")
	}
	if _, err := ExactSpread(g, []uint32{0}, LT); err == nil {
		t.Fatal("exact LT accepted a 500-edge graph")
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
	}{{"ic", IC}, {"IC", IC}, {"lt", LT}, {"LT", LT}} {
		got, err := ParseModel(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseModel(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseModel("xyz"); err == nil {
		t.Fatal("bad model string accepted")
	}
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("String() changed")
	}
}

func TestEpochWraparound(t *testing.T) {
	// Force the epoch counter through wraparound and confirm cascades stay
	// correct (stale stamps must not leak across the wrap).
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	sim := NewSimulator(g, 7)
	sim.epoch = math.MaxUint32 - 3
	for i := 0; i < 10; i++ {
		if n := sim.RunOnce([]uint32{0}, IC); n != 2 {
			t.Fatalf("run %d after wraparound activated %d, want 2", i, n)
		}
	}
}

func BenchmarkSimulateIC(b *testing.B) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 5000, AvgDegree: 10, Seed: 1, UniformAttach: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	sim := NewSimulator(wc, 1)
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(seeds, IC)
	}
}

func BenchmarkSimulateLT(b *testing.B) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 5000, AvgDegree: 10, Seed: 1, UniformAttach: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	sim := NewSimulator(wc, 1)
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunOnce(seeds, LT)
	}
}

// TestSimulatorStreamGolden pins the forward cascades draw for draw:
// per-run activation counts folded into one FNV-style digest, plus the
// generator's next output after the runs, recorded from the loops that
// drew through (*xrand.Rand).Float64 once per coin. Keeping the
// generator state in locals for a cascade must change neither.
func TestSimulatorStreamGolden(t *testing.T) {
	base, err := graph.GenPreferential(graph.GenConfig{Nodes: 2000, AvgDegree: 8, Seed: 3, UniformAttach: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(base, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := graph.AssignWeights(base, graph.Trivalency, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		model  Model
		digest uint64
		next   uint64
	}{
		{"IC/weighted-cascade", wc, IC, 0xd3a5016250f79257, 0xbd4e481442521cc6},
		{"IC/trivalency", tri, IC, 0xf4b8e1427b40299b, 0xda9d69e2338d0500},
		{"LT/weighted-cascade", wc, LT, 0x60258e5a2f49eb0b, 0x160de33908f62837},
	} {
		sim := NewSimulator(tc.g, 42)
		digest := uint64(14695981039346656037)
		for i := 0; i < 300; i++ {
			seeds := []uint32{uint32(i), uint32(7 * i % 2000), 5}
			digest = (digest ^ uint64(sim.RunOnce(seeds, tc.model))) * 1099511628211
		}
		if next := sim.r.Uint64(); digest != tc.digest || next != tc.next {
			t.Errorf("%s: digest %#x next draw %#x, golden %#x / %#x", tc.name, digest, next, tc.digest, tc.next)
		}
	}
}

// TestSimulatorThresholdsOnFirstLTRun: only LT reads per-node
// thresholds, so an IC simulator never holds the n-entry array; the
// first LT run makes it, and a mixed sequence still runs both models.
func TestSimulatorThresholdsOnFirstLTRun(t *testing.T) {
	sim := NewSimulator(fig1(t), 3)
	for i := 0; i < 5; i++ {
		if got := sim.RunOnce([]uint32{0}, IC); got < 3 {
			t.Fatalf("IC run %d activated %d nodes, want ≥ 3", i, got)
		}
	}
	if sim.thresh != nil || sim.dirty != nil {
		t.Fatal("an IC-only simulator holds LT thresholds")
	}
	if got := sim.RunOnce([]uint32{0}, LT); got < 3 {
		t.Fatalf("LT run activated %d nodes, want ≥ 3", got)
	}
	if len(sim.thresh) != 4 {
		t.Fatalf("after an LT run the simulator holds %d thresholds, want 4", len(sim.thresh))
	}
	if got := sim.RunOnce([]uint32{0}, IC); got < 3 {
		t.Fatalf("IC run after LT activated %d nodes", got)
	}
}
