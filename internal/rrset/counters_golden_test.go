package rrset

import (
	"bytes"
	"path/filepath"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// countersSeed seeds both the graphs and the samplers of
// TestGenerationCountersGolden.
const countersSeed = 20220501

// TestGenerationCountersGolden pins exact generation counters (sets,
// members, edge probes) of two fixed runs across batch width and graph
// backend. They are cross-machine constants: a sampler or generator
// change that moves them changed the stream.
//
// IC with subset sampling on a 20 000-node R-MAT graph: the first pass
// grows the arenas, the second (after Reset) continues the same sampler.
// IC without subset sampling on a 2¹⁵-node R-MAT graph sealed as .dsg
// and opened with each backend: every run writes the same wire bytes.
func TestGenerationCountersGolden(t *testing.T) {
	t.Run("subset", func(t *testing.T) {
		g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 20_000, AvgDegree: 8, Seed: countersSeed}})
		if err != nil {
			t.Fatal(err)
		}
		if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 64} {
			s, err := NewShardedSamplerBatch(g, diffusion.IC, countersSeed, true, 1, b)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCollection(1 << 16)
			for pass, want := range [][3]int64{{5_000, 46_118, 86_495}, {5_000, 45_437, 85_079}} {
				if pass > 0 {
					c.Reset()
				}
				s.SampleManyInto(c, 5_000)
				if got := [3]int64{int64(c.Count()), c.TotalSize(), c.EdgesExamined()}; got != want {
					t.Errorf("B=%d pass %d: (sets, total, probes) = %v, golden %v", b, pass+1, got, want)
				}
			}
		}
	})
	t.Run("backends", func(t *testing.T) {
		g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 1 << 15, AvgDegree: 6, Seed: countersSeed}})
		if err != nil {
			t.Fatal(err)
		}
		if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.dsg")
		if err := graph.WriteSegmentedFile(path, g, "wc"); err != nil {
			t.Fatal(err)
		}
		var wire []byte
		for _, backend := range []graph.Backend{graph.BackendMem, graph.BackendMmap} {
			sg, err := graph.OpenSegmented(path, backend)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{1, 64} {
				s, err := NewShardedSamplerBatch(sg, diffusion.IC, countersSeed, false, 1, b)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCollection(1 << 16)
				s.SampleManyInto(c, 2_000)
				want := [3]int64{2_000, 16_626, 2_724_697}
				if got := [3]int64{int64(c.Count()), c.TotalSize(), c.EdgesExamined()}; got != want {
					t.Errorf("%v B=%d: (sets, total, probes) = %v, golden %v", backend, b, got, want)
				}
				if w := c.AppendWire(nil); wire == nil {
					wire = w
				} else if !bytes.Equal(w, wire) {
					t.Errorf("%v B=%d: wire bytes differ from the mem B=1 run", backend, b)
				}
				c.Release()
			}
			if err := sg.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestGenerationCountersAcrossParallelism checks that shard count P and
// batch width B are speed knobs only: on a preferential-attachment graph
// every (P, B) level samples the same sets as P=1 B=1, with equal
// counters and equal wire bytes.
func TestGenerationCountersAcrossParallelism(t *testing.T) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 2_000, AvgDegree: 6, Seed: countersSeed, UniformAttach: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		t.Fatal(err)
	}
	var ref [3]int64
	var wire []byte
	for _, p := range []int{1, 2} {
		for _, b := range []int{1, 64} {
			s, err := NewShardedSamplerBatch(g, diffusion.IC, countersSeed, false, p, b)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCollection(1 << 12)
			s.SampleManyInto(c, 2_000)
			got := [3]int64{int64(c.Count()), c.TotalSize(), c.EdgesExamined()}
			w := c.AppendWire(nil)
			c.Release()
			if got[0] != 2_000 {
				t.Fatalf("P=%d B=%d generated %d sets, want 2000", p, b, got[0])
			}
			if wire == nil {
				ref, wire = got, w
				continue
			}
			if got != ref {
				t.Errorf("P=%d B=%d: (sets, total, probes) = %v, P=1 B=1 %v", p, b, got, ref)
			}
			if !bytes.Equal(w, wire) {
				t.Errorf("P=%d B=%d: wire bytes differ from the P=1 B=1 run", p, b)
			}
		}
	}
}
