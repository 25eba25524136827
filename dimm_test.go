package dimm

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func testNetwork(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateSocialNetwork(SocialNetworkConfig{Nodes: 400, AvgDegree: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeEndToEnd(t *testing.T) {
	g := testNetwork(t)
	res, err := MaximizeInfluence(g, Options{K: 5, Eps: 0.4, Delta: 0.05, Machines: 4, Model: IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	// The estimated spread from RR sets and an independent Monte-Carlo
	// forward estimate must agree within the approximation band.
	mc, se := EstimateSpread(g, res.Seeds, IC, 20000, 99)
	if math.Abs(mc-res.EstSpread) > 0.15*res.EstSpread+5*se {
		t.Fatalf("RIS estimate %v vs Monte-Carlo %v ± %v", res.EstSpread, mc, se)
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := testNetwork(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := SaveGraphSegmented(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []GraphBackend{MemBackend, MmapBackend} {
		back, err := LoadGraphFile(path, backend, "file", false)
		if err != nil {
			t.Fatal(err)
		}
		if back.ContentHash() != g.ContentHash() {
			t.Fatalf("%v: .dsg round trip changed the graph", backend)
		}
		back.Close()
	}
	if _, err := LoadGraphFile(filepath.Join(t.TempDir(), "g.bin"), MemBackend, "file", false); err == nil || !strings.Contains(err.Error(), "gengraph") {
		t.Fatalf("a .bin path: got %v, want a refusal naming gengraph", err)
	}
}

func TestFacadeWeightHelpers(t *testing.T) {
	g := testNetwork(t)
	u, err := ApplyUniformWeights(g, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	u.Edges(func(_, _ uint32, p float32) {
		if p != 0.02 {
			t.Fatalf("uniform weight %v", p)
		}
	})
	tri, err := ApplyTrivalencyWeights(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	tri.Edges(func(_, _ uint32, p float32) {
		if p != 0.1 && p != 0.01 && p != 0.001 {
			t.Fatalf("trivalency weight %v", p)
		}
	})
	wc, err := ApplyWeightedCascade(g)
	if err != nil {
		t.Fatal(err)
	}
	if !wc.UniformIn() {
		t.Fatal("WC weights should be per-node uniform")
	}
}

func TestFacadeMaxCoverage(t *testing.T) {
	g := testNetwork(t)
	sys, err := NeighborSetSystem(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxCoverage(sys, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 || res.Coverage <= 0 {
		t.Fatalf("bad result: %d seeds, coverage %d", len(res.Seeds), res.Coverage)
	}
	if _, err := MaxCoverage(nil, 1, 1); err == nil {
		t.Fatal("nil system accepted")
	}
}

func TestFacadeSetSystem(t *testing.T) {
	sys, err := NewSetSystem(3, [][]uint32{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxCoverage(sys, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 3 {
		t.Fatalf("coverage %d, want 3", res.Coverage)
	}
}

func TestFacadeLTModel(t *testing.T) {
	g := testNetwork(t)
	res, err := MaximizeInfluence(g, Options{K: 3, Eps: 0.5, Delta: 0.05, Machines: 2, Model: LT, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatal("LT run failed")
	}
}
