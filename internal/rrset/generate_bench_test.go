package rrset

import (
	"fmt"
	"path/filepath"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// BenchmarkRRGenParallel measures sharded RR-set generation throughput at
// P ∈ {1,2,4,8}. On a box with idle cores the P=4 rate should exceed
// 1.5× the P=1 rate; on a 1-core box all levels converge (run with
// b.ReportAllocs to confirm the arena keeps alloc/op flat regardless).
func BenchmarkRRGenParallel(b *testing.B) {
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 20_000, AvgDegree: 10, Seed: 20220501, UniformAttach: 0.15})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			s, err := NewShardedSampler(g, diffusion.IC, 7, false, p)
			if err != nil {
				b.Fatal(err)
			}
			coll := NewCollection(1 << 16)
			s.SampleManyInto(coll, 1_000) // warm arenas outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coll.Reset()
				s.SampleManyInto(coll, 1_000)
			}
			b.StopTimer()
			if coll.Count() != 1_000 {
				b.Fatalf("generated %d sets per iteration, want 1000", coll.Count())
			}
			b.SetBytes(4 * coll.TotalSize())
		})
	}
}

// BenchmarkRRGenBatch measures the frontier-batched kernel at P=1 across
// batch widths on an R-MAT graph. Unlike the parallel sweep, the batched
// win is a cache-locality effect and shows on a 1-core box.
func BenchmarkRRGenBatch(b *testing.B) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 50_000, AvgDegree: 12, Seed: 20220501}})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	for _, bw := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("B=%d", bw), func(b *testing.B) {
			s, err := NewShardedSamplerBatch(g, diffusion.IC, 7, false, 1, bw)
			if err != nil {
				b.Fatal(err)
			}
			coll := NewCollection(1 << 16)
			s.SampleManyInto(coll, 1_000) // warm arenas outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coll.Reset()
				s.SampleManyInto(coll, 1_000)
			}
			b.StopTimer()
			if coll.Count() != 1_000 {
				b.Fatalf("generated %d sets per iteration, want 1000", coll.Count())
			}
			b.SetBytes(4 * coll.TotalSize())
		})
	}
}

// BenchmarkGenerateBackend measures IC generation at P=1, B=DefaultBatch
// off a sealed .dsg — R-MAT, 2^16 nodes, average degree 16, weighted
// cascade — opened with each graph backend: mem (a verified private copy)
// against mmap (the CSR served from the page cache). Both sample the same
// sets; only where the CSR lives differs. One op is 1 000 RR sets.
func BenchmarkGenerateBackend(b *testing.B) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 1 << 16, AvgDegree: 16, Seed: 20220501}})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "g.dsg")
	if err := graph.WriteSegmentedFile(path, g, "wc"); err != nil {
		b.Fatal(err)
	}
	for _, backend := range []graph.Backend{graph.BackendMem, graph.BackendMmap} {
		b.Run(backend.String(), func(b *testing.B) {
			sg, err := graph.OpenSegmented(path, backend)
			if err != nil {
				b.Fatal(err)
			}
			defer sg.Close()
			s, err := NewShardedSamplerBatch(sg, diffusion.IC, 7, false, 1, DefaultBatch)
			if err != nil {
				b.Fatal(err)
			}
			coll := NewCollection(1 << 16)
			defer coll.Release()
			s.SampleManyInto(coll, 1_000) // warm arenas and pages outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coll.Reset()
				s.SampleManyInto(coll, 1_000)
			}
			b.StopTimer()
			b.SetBytes(4 * coll.TotalSize())
		})
	}
}
