package core

import (
	"math"
	"testing"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

func testGraph(t testing.TB, nodes int) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: nodes, AvgDegree: 6, Seed: 31, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// TestDIIMMEqualsIMM is the paper's headline correctness claim: "no matter
// how many machines or cores are used, the influence spread of DIIMM is
// the same as that of IMM" — with matched per-machine streams, DIIMM at
// ℓ=1 must reproduce the sequential IMM run exactly.
func TestDIIMMEqualsIMM(t *testing.T) {
	g := testGraph(t, 300)
	opt := Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: 1, Model: diffusion.IC, Seed: 123}
	dres, err := RunDIIMM(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := imm.ComputeParams(g.NumNodes(), opt.K, opt.Eps, opt.Delta)
	if err != nil {
		t.Fatal(err)
	}
	// The ℓ=1 worker samples from DeriveSeed(Seed, 0).
	e, err := imm.NewLocalEngine(g, diffusion.IC, false, deriveSeed0(opt.Seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	sres, err := imm.Run(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Theta != sres.Theta || dres.Coverage != sres.Coverage {
		t.Fatalf("DIIMM(ℓ=1) θ=%d cov=%d vs IMM θ=%d cov=%d",
			dres.Theta, dres.Coverage, sres.Theta, sres.Coverage)
	}
	for i := range sres.Seeds {
		if dres.Seeds[i] != sres.Seeds[i] {
			t.Fatalf("seed %d: DIIMM %v vs IMM %v", i, dres.Seeds, sres.Seeds)
		}
	}
}

func deriveSeed0(base uint64) uint64 {
	return cluster.DeriveSeed(base, 0)
}

// TestDIIMMSpreadStableAcrossMachineCounts: the approximation guarantee is
// independent of ℓ; estimated spreads across machine counts must agree
// within the ε-band.
func TestDIIMMSpreadStableAcrossMachineCounts(t *testing.T) {
	g := testGraph(t, 400)
	var spreads []float64
	for _, machines := range []int{1, 2, 4, 8} {
		res, err := RunDIIMM(g, Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: machines, Model: diffusion.IC, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != 5 {
			t.Fatalf("ℓ=%d returned %d seeds", machines, len(res.Seeds))
		}
		spreads = append(spreads, res.EstSpread)
	}
	for i := 1; i < len(spreads); i++ {
		if math.Abs(spreads[i]-spreads[0]) > 0.2*spreads[0] {
			t.Fatalf("spread drifted across ℓ: %v", spreads)
		}
	}
}

// TestDIIMMWorkSharing: with ℓ machines each one generates 1/ℓ of the
// RR sets and holds about 1/ℓ of their total size — the balanced work
// behind the paper's Fig. 5/6 speedups (Corollary 1). Counted in sets
// and nodes, not seconds, so the assertion holds on any core count.
func TestDIIMMWorkSharing(t *testing.T) {
	const l = 8
	g := testGraph(t, 500)
	res, err := RunDIIMM(g, Options{K: 10, Eps: 0.3, Delta: 0.05, Machines: l, Model: diffusion.IC, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Count != res.Theta {
		t.Fatalf("stats count %d != theta %d", res.Stats.Count, res.Theta)
	}
	if len(res.Workers) != l {
		t.Fatalf("%d worker records for %d machines", len(res.Workers), l)
	}
	for i, w := range res.Workers {
		if share := float64(w.Count) / float64(res.Stats.Count); share > 1.0/l+0.01 {
			t.Fatalf("machine %d generated %.3f of the RR sets, want 1/%d", i, share, l)
		}
		if share := float64(w.TotalSize) / float64(res.Stats.TotalSize); share > 1.0/l+0.05 {
			t.Fatalf("machine %d holds %.3f of the RR volume, want about 1/%d", i, share, l)
		}
	}
}

// TestDIIMMGuaranteeSmallGraph: σ(S*) ≥ (1−1/e−ε)·OPT against exact
// spreads on a brute-forceable graph, run distributed with ℓ=4.
func TestDIIMMGuaranteeSmallGraph(t *testing.T) {
	g, err := graph.GenErdosRenyi(graph.GenConfig{Nodes: 12, AvgDegree: 1.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const k, eps = 2, 0.2
	res, err := RunDIIMM(wc, Options{K: k, Eps: eps, Delta: 0.05, Machines: 4, Model: diffusion.IC, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	got, err := diffusion.ExactSpread(wc, res.Seeds, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for a := 0; a < wc.NumNodes(); a++ {
		for b := a + 1; b < wc.NumNodes(); b++ {
			s, err := diffusion.ExactSpread(wc, []uint32{uint32(a), uint32(b)}, diffusion.IC)
			if err != nil {
				t.Fatal(err)
			}
			if s > best {
				best = s
			}
		}
	}
	if got < (1-1/math.E-eps)*best {
		t.Fatalf("DIIMM spread %v below guarantee of OPT %v", got, best)
	}
}

func TestDIIMMSubsetVariant(t *testing.T) {
	g := testGraph(t, 300)
	res, err := RunDIIMM(g, Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: 4, Model: diffusion.IC, Subset: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("distributed SUBSIM returned %d seeds", len(res.Seeds))
	}
	plain, err := RunDIIMM(g, Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: 4, Model: diffusion.IC, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EstSpread-plain.EstSpread) > 0.25*plain.EstSpread {
		t.Fatalf("subset spread %v vs plain %v", res.EstSpread, plain.EstSpread)
	}
	// Subset sampling must examine fewer edges for a comparable θ.
	perPlain := float64(plain.Stats.EdgesExamined) / float64(plain.Stats.Count)
	perSub := float64(res.Stats.EdgesExamined) / float64(res.Stats.Count)
	if perSub >= perPlain {
		t.Fatalf("subset probes/set %v not below plain %v", perSub, perPlain)
	}
}

func TestDIIMMLTModel(t *testing.T) {
	g := testGraph(t, 300)
	res, err := RunDIIMM(g, Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: 3, Model: diffusion.LT, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 || res.EstSpread <= 0 {
		t.Fatalf("LT run failed: %+v", res.Result)
	}
}

func TestDIIMMDefaults(t *testing.T) {
	g := testGraph(t, 200)
	// Zero-valued options get the paper defaults (k=50 clamps to n here so
	// use explicit K; Machines and Delta default).
	res, err := RunDIIMM(g, Options{K: 3, Eps: 0.5, Model: diffusion.IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatal("defaults broken")
	}
}

func TestNewGreeDiMaxCoverageMatchesSequential(t *testing.T) {
	family := [][]uint32{
		{0, 1, 2}, {2, 3}, {4, 5, 6, 7}, {0, 7}, {8}, {1, 8, 9}, {3, 9},
	}
	sys, err := coverage.NewSetSystem(10, family)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.SequentialGreedy(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{1, 2, 4} {
		got, err := NewGreeDiMaxCoverage(sys, 3, machines)
		if err != nil {
			t.Fatal(err)
		}
		if got.Coverage != want.Coverage {
			t.Fatalf("ℓ=%d: cluster NEWGREEDI coverage %d != sequential %d", machines, got.Coverage, want.Coverage)
		}
	}
}
