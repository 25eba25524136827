package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
)

// TestRunRRGenSmoke runs a miniature sweep end to end and checks the
// report is internally consistent and the JSON round-trips.
func TestRunRRGenSmoke(t *testing.T) {
	rep, err := RunRRGen(RRGenOptions{
		Nodes: 2_000, AvgDegree: 6, Seed: 11, Count: 2_000,
		Ps: []int{1, 2}, Bs: []int{1, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("%d results, want 4 (2 P levels x 2 B levels)", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Skipped {
			// Levels beyond the box's CPU count are honestly skipped, not
			// timed; the row must say so instead of carrying bogus rates.
			if r.Parallelism <= rep.NumCPU || r.Warning == "" || r.Seconds != 0 {
				t.Fatalf("P=%d B=%d: bad skip record: %+v", r.Parallelism, r.Batch, r)
			}
			continue
		}
		if r.Sets != 2_000 {
			t.Fatalf("P=%d B=%d generated %d sets, want 2000", r.Parallelism, r.Batch, r.Sets)
		}
		if r.Seconds <= 0 || r.SetsPerSec <= 0 || r.ProbesPerSec <= 0 {
			t.Fatalf("P=%d B=%d: non-positive rates: %+v", r.Parallelism, r.Batch, r)
		}
		if r.SpeedupVsP1 <= 0 || r.SpeedupVsB1 <= 0 {
			t.Fatalf("P=%d B=%d speedups not recorded: %v / %v",
				r.Parallelism, r.Batch, r.SpeedupVsP1, r.SpeedupVsB1)
		}
	}
	if rep.Results[0].SpeedupVsP1 != 1 || rep.Results[0].SpeedupVsB1 != 1 {
		t.Fatalf("P=1 B=1 speedups %v/%v, want 1/1",
			rep.Results[0].SpeedupVsP1, rep.Results[0].SpeedupVsB1)
	}
	// P and B are speed knobs: every level must have sampled the exact
	// sets P=1 B=1 did (same count, cardinality and probe totals).
	ref := rep.Results[0]
	for _, r := range rep.Results[1:] {
		if !r.Skipped && (r.Sets != ref.Sets || r.TotalSize != ref.TotalSize || r.Probes != ref.Probes) {
			t.Fatalf("P=%d B=%d sampled different sets: (%d, %d, %d), P=1 B=1 (%d, %d, %d)",
				r.Parallelism, r.Batch, r.Sets, r.TotalSize, r.Probes, ref.Sets, ref.TotalSize, ref.Probes)
		}
	}
	if rep.GOMAXPROCS < 1 || rep.NumCPU < 1 {
		t.Fatalf("CPU context missing: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "rrgen.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RRGenReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != rep.Count || len(back.Results) != len(rep.Results) {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

// TestRunRRGenRMAT exercises the cache-stressing graph kind end to end
// at toy scale.
func TestRunRRGenRMAT(t *testing.T) {
	rep, err := RunRRGen(RRGenOptions{
		GraphKind: "rmat", Nodes: 3_000, AvgDegree: 6, Seed: 13, Count: 1_000,
		Ps: []int{1}, Bs: []int{1, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GraphKind != "rmat" || rep.Nodes != 3_000 {
		t.Fatalf("graph context wrong: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want 2", len(rep.Results))
	}
	if rep.Results[0].TotalSize != rep.Results[1].TotalSize {
		t.Fatalf("batching changed the sampled sets on rmat: %d vs %d",
			rep.Results[0].TotalSize, rep.Results[1].TotalSize)
	}
	if _, err := RunRRGen(RRGenOptions{GraphKind: "nope", Nodes: 100}); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}

func TestConfigRRGenPrintsTableAndWritesJSON(t *testing.T) {
	var buf bytes.Buffer
	c := Config{Out: &buf, Seed: 3}
	path := filepath.Join(t.TempDir(), "rrgen.json")
	rep, err := c.rrgen(RRGenOptions{Nodes: 1_500, AvgDegree: 5, Seed: 3, Count: 1_000, Ps: []int{1, 2}, Bs: []int{1}}, path)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("GOMAXPROCS=")) || !bytes.Contains(buf.Bytes(), []byte("vs B=1")) {
		t.Fatalf("table missing from output: %q", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want 2", len(rep.Results))
	}
}

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
			s, err := rrset.NewShardedSampler(g, diffusion.IC, 7, false, p)
			if err != nil {
				b.Fatal(err)
			}
			coll := rrset.NewCollection(1 << 16)
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
			s, err := rrset.NewShardedSamplerBatch(g, diffusion.IC, 7, false, 1, bw)
			if err != nil {
				b.Fatal(err)
			}
			coll := rrset.NewCollection(1 << 16)
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
