package imm

import (
	"math"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func TestLogBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 0},
		{5, 5, 0},
		{5, 2, math.Log(10)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogBinom(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("LogBinom(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogBinom(3, 5), -1) {
		t.Fatal("LogBinom(3,5) should be -Inf")
	}
	// Symmetry.
	if math.Abs(LogBinom(100, 30)-LogBinom(100, 70)) > 1e-9 {
		t.Fatal("LogBinom not symmetric")
	}
}

func TestComputeParamsValidation(t *testing.T) {
	if _, err := ComputeParams(1, 1, 0.1, 0.1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ComputeParams(100, 0, 0.1, 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ComputeParams(100, 101, 0.1, 0.1); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := ComputeParams(100, 5, 0, 0.1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := ComputeParams(100, 5, 1.5, 0.1); err == nil {
		t.Fatal("eps>1 accepted")
	}
	if _, err := ComputeParams(100, 5, 0.1, 0); err == nil {
		t.Fatal("delta=0 accepted")
	}
}

// TestDeltaPrimeFixedPoint checks equation (7): ⌈λ*⌉ · δ′ = δ.
func TestDeltaPrimeFixedPoint(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		eps  float64
	}{{1000, 10, 0.3}, {10000, 50, 0.1}, {100000, 50, 0.5}} {
		delta := 1.0 / float64(tc.n)
		p, err := ComputeParams(tc.n, tc.k, tc.eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		got := math.Ceil(p.LambdaStar) * p.DeltaPrime
		if math.Abs(got-delta)/delta > 1e-6 {
			t.Fatalf("n=%d k=%d: ⌈λ*⌉·δ′ = %g, want δ = %g", tc.n, tc.k, got, delta)
		}
		// Chen's fix always makes δ′ strictly smaller than δ.
		if p.DeltaPrime >= delta {
			t.Fatalf("δ′ = %g not below δ = %g", p.DeltaPrime, delta)
		}
	}
}

func TestParamsMonotonicity(t *testing.T) {
	// Halving ε must increase both λ′ and λ* (roughly quadruple them).
	a, err := ComputeParams(10000, 50, 0.2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeParams(10000, 50, 0.1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if b.LambdaStar <= a.LambdaStar || b.LambdaP <= a.LambdaP {
		t.Fatal("sample sizes not monotone in 1/ε")
	}
	ratio := b.LambdaStar / a.LambdaStar
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("λ* scaled by %v when ε halved, expected ~4", ratio)
	}
}

func TestThetaSchedule(t *testing.T) {
	p, err := ComputeParams(1024, 5, 0.3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// θ_t doubles every round.
	prev := p.ThetaAt(1)
	if prev <= 0 {
		t.Fatal("θ_1 not positive")
	}
	for t2 := 2; t2 <= p.MaxRounds(); t2++ {
		cur := p.ThetaAt(t2)
		ratio := float64(cur) / float64(prev)
		if ratio < 1.9 || ratio > 2.1 {
			t.Fatalf("θ_%d/θ_%d = %v, want ~2", t2, t2-1, ratio)
		}
		prev = cur
	}
	if p.MaxRounds() != 9 {
		t.Fatalf("MaxRounds for n=1024: %d, want 9", p.MaxRounds())
	}
	// FinalTheta decreases in LB and never divides by less than 1.
	if p.FinalTheta(100) >= p.FinalTheta(10) {
		t.Fatal("FinalTheta not decreasing in LB")
	}
	if p.FinalTheta(0.5) != p.FinalTheta(1) {
		t.Fatal("FinalTheta must clamp LB below 1")
	}
}

// fig1 is the paper's running example graph.
func fig1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for _, e := range []graph.Edge{
		{From: 0, To: 1, Prob: 1.0}, {From: 0, To: 2, Prob: 1.0},
		{From: 0, To: 3, Prob: 0.4}, {From: 1, To: 3, Prob: 0.3}, {From: 2, To: 3, Prob: 0.2},
	} {
		if err := b.AddEdge(e.From, e.To, e.Prob); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestIMMFindsOptimalSeedOnFig1: node v1 maximizes spread for k=1 on the
// example graph; IMM with moderate ε must select it.
func TestIMMFindsOptimalSeedOnFig1(t *testing.T) {
	g := fig1(t)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		res, e, err := RunIMM(g, model, 1, 0.3, 0.05, false, 42)
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
		if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
			t.Fatalf("%v: IMM picked %v, want {v1}", model, res.Seeds)
		}
		if res.Theta <= 0 || res.FracCovered <= 0 || res.FracCovered > 1 {
			t.Fatalf("%v: implausible result %+v", model, res)
		}
	}
}

// TestIMMApproximationGuarantee: on a brute-forceable graph, the spread
// of IMM's solution must be >= (1 - 1/e - ε)·OPT (checked against exact
// spreads; the guarantee is probabilistic with δ = 0.05, and the fixed
// seed makes the test deterministic).
func TestIMMApproximationGuarantee(t *testing.T) {
	g, err := graph.GenErdosRenyi(graph.GenConfig{Nodes: 12, AvgDegree: 1.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	const eps = 0.2
	res, e, err := RunIMM(wc, diffusion.IC, k, eps, 0.05, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	got, err := diffusion.ExactSpread(wc, res.Seeds, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force OPT over all pairs.
	best := 0.0
	n := wc.NumNodes()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s, err := diffusion.ExactSpread(wc, []uint32{uint32(a), uint32(b)}, diffusion.IC)
			if err != nil {
				t.Fatal(err)
			}
			if s > best {
				best = s
			}
		}
	}
	bound := (1 - 1/math.E - eps) * best
	if got < bound {
		t.Fatalf("IMM spread %v below guarantee %v (OPT %v)", got, bound, best)
	}
}

// TestSubsetEngineAgrees: sequential SUBSIM-style sampling must select
// seeds of the same quality as plain IMM (same guarantee, faster
// generation).
func TestSubsetEngineAgrees(t *testing.T) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 400, AvgDegree: 8, Seed: 11, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, e, err := RunIMM(wc, diffusion.IC, 5, 0.4, 0.05, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	sub, e, err := RunIMM(wc, diffusion.IC, 5, 0.4, 0.05, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	// Different samplers ⇒ different seeds possible; estimated spreads
	// must agree within the ε-band.
	if math.Abs(plain.EstSpread-sub.EstSpread) > 0.25*math.Max(plain.EstSpread, sub.EstSpread) {
		t.Fatalf("plain %v vs subset %v estimated spread", plain.EstSpread, sub.EstSpread)
	}
}

func TestRunIMMDeterministic(t *testing.T) {
	g, _ := graph.GenPreferential(graph.GenConfig{Nodes: 200, AvgDegree: 6, Seed: 5, UniformAttach: 0.2})
	wc, _ := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	a, e, err := RunIMM(wc, diffusion.LT, 3, 0.4, 0.1, false, 99)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	b, e, err := RunIMM(wc, diffusion.LT, 3, 0.4, 0.1, false, 99)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	if a.Theta != b.Theta || a.Coverage != b.Coverage {
		t.Fatal("same seed produced different runs")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("seed sets differ")
		}
	}
}

func TestLocalEngineGenerateIdempotent(t *testing.T) {
	g := fig1(t)
	e, err := NewLocalEngine(g, diffusion.IC, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	if err := e.Generate(100); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 100 {
		t.Fatalf("count = %d", e.Count())
	}
	// Asking for fewer must not shrink or regenerate.
	if err := e.Generate(50); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 100 {
		t.Fatalf("Generate(50) changed count to %d", e.Count())
	}
	if err := e.Generate(150); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 150 {
		t.Fatalf("top-up failed: %d", e.Count())
	}
}
