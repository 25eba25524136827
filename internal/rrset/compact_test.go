package rrset

import (
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// TestCompactGraphKernelsAllocateNothing: on a compact graph (weighted
// cascade, one in-probability per node) every sampling and simulation
// kernel reads InAdj / OutAdj / InP, never the materializing
// InNeighbors / OutNeighbors path, so a warmed kernel repeating the same
// work allocates nothing.
func TestCompactGraphKernelsAllocateNothing(t *testing.T) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 2000, AvgDegree: 8, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !g.UniformIn() {
		t.Fatal("a weighted-cascade graph must be uniform-in")
	}
	if _, probs := g.InNeighbors(0); g.InDegree(0) > 0 && testing.AllocsPerRun(1, func() { g.InNeighbors(0) }) == 0 {
		t.Fatalf("InNeighbors on a compact graph aliased %d probabilities; the graph is not compact", len(probs))
	}
	const lanes = 64
	check := func(name string, work func()) {
		t.Helper()
		// Warm until every scratch buffer has grown to what this exact
		// work needs: the batch sampler swaps set buffers between its
		// lanes and its ring slots, so each of them must see a large set.
		for i := 0; i < 50; i++ {
			work()
		}
		if a := testing.AllocsPerRun(10, work); a != 0 {
			t.Errorf("%s allocates %v times per call on a compact graph", name, a)
		}
	}
	for _, tc := range []struct {
		name   string
		model  diffusion.Model
		subset bool
	}{{"IC", diffusion.IC, false}, {"IC subset", diffusion.IC, true}, {"LT", diffusion.LT, false}} {
		s, err := NewSampler(g, tc.model, 1, tc.subset)
		if err != nil {
			t.Fatal(err)
		}
		check("scalar "+tc.name+" sample", func() {
			for lane := uint64(0); lane < lanes; lane++ {
				s.ResampleLane(lane)
			}
		})
		b, err := NewBatchSampler(g, tc.model, 1, tc.subset, 16)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollection(0)
		check("BatchSampler "+tc.name+" batch", func() {
			b.Seed(1)
			c.Reset()
			b.SampleManyInto(c, lanes)
		})
	}
	all := make([]uint32, g.NumNodes())
	for v := range all {
		all[v] = uint32(v)
	}
	seeds := []uint32{1, 5, 9, 300}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		sim := diffusion.NewSimulator(g, 7)
		sim.RunOnce(all, model) // the queue reaches its bound, n
		check("Simulator.RunOnce "+model.String(), func() { sim.RunOnce(seeds, model) })
	}
}
