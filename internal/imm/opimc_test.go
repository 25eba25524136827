package imm

import (
	"math"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func wcGraph(t testing.TB, nodes int, seed uint64) *graph.Graph {
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

func TestOPIMCValidation(t *testing.T) {
	g := wcGraph(t, 50, 1)
	e, err := NewLocalDualEngine(g, diffusion.IC, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	if _, err := RunOPIMC(e, 50, 0, 0.2, 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunOPIMC(e, 50, 5, 0, 0.1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := RunOPIMC(e, 50, 5, 0.2, 1); err == nil {
		t.Fatal("delta=1 accepted")
	}
}

func TestOPIMCBasicRun(t *testing.T) {
	g := wcGraph(t, 500, 3)
	e, err := NewLocalDualEngine(g, diffusion.IC, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	res, err := RunOPIMC(e, g.NumNodes(), 10, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	if res.Theta <= 0 || res.Rounds < 1 {
		t.Fatalf("implausible run: %+v", res)
	}
	// The certification must be internally consistent.
	if res.SpreadLower > res.OptUpper {
		t.Fatalf("lower bound %v above OPT upper bound %v", res.SpreadLower, res.OptUpper)
	}
	if res.Ratio < 1-1/math.E-0.3-1e-9 {
		t.Fatalf("stopped below the target ratio: %v", res.Ratio)
	}
}

// TestOPIMCCertifiedBoundsHold: the certified bounds must bracket the
// true spread on a graph where σ can be computed exactly.
func TestOPIMCCertifiedBoundsHold(t *testing.T) {
	g, err := graph.GenErdosRenyi(graph.GenConfig{Nodes: 12, AvgDegree: 1.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLocalDualEngine(wc, diffusion.IC, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	res, err := RunOPIMC(e, wc.NumNodes(), 2, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := diffusion.ExactSpread(wc, res.Seeds, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpreadLower > sigma+1e-9 {
		t.Fatalf("certified lower bound %v exceeds true spread %v", res.SpreadLower, sigma)
	}
	// OPT upper bound must indeed be above OPT (brute-force all pairs).
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
	if res.OptUpper < best-1e-9 {
		t.Fatalf("certified OPT upper bound %v below true OPT %v", res.OptUpper, best)
	}
	// Approximation guarantee.
	if sigma < (1-1/math.E-0.2)*best {
		t.Fatalf("OPIM-C spread %v below guarantee of OPT %v", sigma, best)
	}
}

// TestOPIMCStopsEarlierThanIMM: on an easy instance the adaptive stopping
// rule should certify with fewer RR sets than IMM's worst-case θ.
func TestOPIMCStopsEarlierThanIMM(t *testing.T) {
	g := wcGraph(t, 1000, 9)
	const k, eps, delta = 5, 0.3, 0.01
	e, err := NewLocalDualEngine(g, diffusion.IC, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Release)
	opim, err := RunOPIMC(e, g.NumNodes(), k, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	immRes, ie, err := RunIMM(g, diffusion.IC, k, eps, delta, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	ie.Release()
	// OPIM-C keeps two collections, so compare 2·θ_opim against θ_imm.
	if 2*opim.Theta >= immRes.Theta {
		t.Logf("note: OPIM-C used %d×2 RR sets vs IMM's %d on this instance", opim.Theta, immRes.Theta)
	} else {
		t.Logf("OPIM-C certified with %d×2 RR sets vs IMM's %d (%.1fx fewer)",
			opim.Theta, immRes.Theta, float64(immRes.Theta)/float64(2*opim.Theta))
	}
	// Both must deliver comparable estimated spreads.
	if math.Abs(opim.EstSpread-immRes.EstSpread) > 0.3*immRes.EstSpread {
		t.Fatalf("OPIM-C spread %v far from IMM's %v", opim.EstSpread, immRes.EstSpread)
	}
}

func TestOPIMCDeterministic(t *testing.T) {
	g := wcGraph(t, 300, 4)
	run := func() *OPIMResult {
		e, err := NewLocalDualEngine(g, diffusion.LT, false, 11)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Release)
		res, err := RunOPIMC(e, g.NumNodes(), 4, 0.4, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Theta != b.Theta || len(a.Seeds) != len(b.Seeds) {
		t.Fatal("OPIM-C not deterministic")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("seed sets differ across identical runs")
		}
	}
}
