package rrset

import (
	"fmt"
	"math"
	"testing"

	"dimm/internal/diffusion"
)

// batchModes enumerates the sampling configurations the batched kernel
// must reproduce bit for bit: both diffusion models, subset (SUBSIM)
// generation, and targeted (weighted-root) mode.
type batchMode struct {
	name     string
	model    diffusion.Model
	subset   bool
	targeted bool
}

var batchModes = []batchMode{
	{"IC", diffusion.IC, false, false},
	{"IC-subset", diffusion.IC, true, false},
	{"IC-targeted", diffusion.IC, false, true},
	{"IC-subset-targeted", diffusion.IC, true, true},
	{"LT", diffusion.LT, false, false},
	{"LT-targeted", diffusion.LT, false, true},
}

func targetedWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%7) + 0.25
	}
	return w
}

// TestBatchBitIdenticalToScalar is the headline determinism claim: for
// every mode and batch width, the batched kernel emits byte-identical
// Collections to the scalar sampler on the same (seed, root-index)
// stream. The request sequence deliberately misaligns with every width
// (mid-batch Count boundaries): partial cohorts must still emit the
// next sets of the stream.
func TestBatchBitIdenticalToScalar(t *testing.T) {
	g := testGraph(t, 400, 7)
	requests := []int64{1, 7, 250, 42}
	for _, mode := range batchModes {
		for _, b := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/B=%d", mode.name, b), func(t *testing.T) {
				scalar, err := NewSampler(g, mode.model, 42, mode.subset)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := NewBatchSampler(g, mode.model, 42, mode.subset, b)
				if err != nil {
					t.Fatal(err)
				}
				if mode.targeted {
					w := targetedWeights(g.NumNodes())
					if err := scalar.SetRootWeights(w); err != nil {
						t.Fatal(err)
					}
					if err := batched.SetRootWeights(w); err != nil {
						t.Fatal(err)
					}
				}
				want, got := NewCollection(64), NewCollection(64)
				for _, req := range requests {
					scalar.SampleManyInto(want, req)
					batched.SampleManyInto(got, req)
				}
				if !collectionsEqual(want, got) {
					t.Fatalf("%s B=%d: batched output diverges from the scalar sampler", mode.name, b)
				}
			})
		}
	}
}

// TestShardedBatchBitIdentical checks that the frontier-batch width is
// invisible at the ShardedSampler level too, for every (B, P) pair: the
// sharded batched sampler must reproduce the sharded scalar sampler's
// bytes, and (at P=1) the plain scalar sampler's. LT rides along since
// its waves visit lanes in slot order instead of node-sorted order: the
// bytes must not notice, and under -race neither must the P shard
// goroutines each running their own sort-free waves.
func TestShardedBatchBitIdentical(t *testing.T) {
	g := testGraph(t, 400, 9)
	requests := []int64{1, 7, 250, 100}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		prefix := "" // IC keeps its historical subtest names
		if model == diffusion.LT {
			prefix = "LT/"
		}
		for _, p := range []int{1, 2, 4} {
			for _, b := range []int{1, 2, 7, 64} {
				t.Run(fmt.Sprintf("%sP=%d/B=%d", prefix, p, b), func(t *testing.T) {
					scalar, err := NewShardedSampler(g, model, 5, false, p)
					if err != nil {
						t.Fatal(err)
					}
					batched, err := NewShardedSamplerBatch(g, model, 5, false, p, b)
					if err != nil {
						t.Fatal(err)
					}
					want, got := NewCollection(64), NewCollection(64)
					for _, req := range requests {
						scalar.SampleManyInto(want, req)
						batched.SampleManyInto(got, req)
					}
					if !collectionsEqual(want, got) {
						t.Fatalf("P=%d B=%d: batched sharded output diverges", p, b)
					}
					if st := batched.BatchStats(); b > 1 && st.Cohorts == 0 {
						t.Fatalf("P=%d B=%d: batched kernel reported no cohorts", p, b)
					}
				})
			}
		}
	}
}

// TestBatchSubsetSkipsEdges asserts the SUBSIM path actually skips
// adjacency entries (the stats must show it) while staying bit-identical
// — covered above — and that probes stay below the full-scan count.
func TestBatchSubsetSkipsEdges(t *testing.T) {
	g := testGraph(t, 400, 7)
	s, err := NewBatchSampler(g, diffusion.IC, 3, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, 500)
	st := s.Stats()
	if st.SkippedEdges <= 0 {
		t.Fatalf("subset mode skipped %d edges, want > 0", st.SkippedEdges)
	}
	if st.Waves == 0 || st.FrontierItems == 0 || st.LaneWaves == 0 {
		t.Fatalf("batch stats not populated: %+v", st)
	}
	if st.LaneWaves > int64(st.Waves)*int64(s.Width()) {
		t.Fatalf("occupancy numerator exceeds denominator: %+v", st)
	}
}

// TestBatchLaneStampWrap drives every lane's membership-stamp across the
// uint32 wrap mid-stream and asserts output still matches the scalar
// sampler: stale slots from 2^32 generations ago must not alias the new
// set (the clear-on-wrap branch of batchLane.begin).
func TestBatchLaneStampWrap(t *testing.T) {
	g := testGraph(t, 150, 4)
	scalar, err := NewSampler(g, diffusion.IC, 33, false)
	if err != nil {
		t.Fatal(err)
	}
	wrapping, err := NewBatchSampler(g, diffusion.IC, 33, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the lanes so the slot tables hold genuine stale entries, then
	// rewind the stream and push each stamp to the brink of overflow: the
	// wrap happens on the 3rd cohort.
	warm := NewCollection(64)
	wrapping.SampleManyInto(warm, 40)
	wrapping.Seed(33)
	for i := range wrapping.lanes {
		wrapping.lanes[i].stamp = math.MaxUint32 - 2
	}
	want, got := NewCollection(64), NewCollection(64)
	scalar.SampleManyInto(want, 40)
	wrapping.SampleManyInto(got, 40)
	if !collectionsEqual(want, got) {
		t.Fatal("batched sampler diverges when lane stamps wrap")
	}
	for i := range wrapping.lanes {
		if wrapping.lanes[i].stamp == 0 {
			t.Fatalf("lane %d stamp left at 0 after wrap", i)
		}
	}
}

// TestScalarScratchShrinksAfterOutlier pins the shrink-on-outlier policy:
// one pathological RR set must not pin worst-case queue capacity for the
// sampler's lifetime (satellite of the batching issue).
func TestScalarScratchShrinksAfterOutlier(t *testing.T) {
	g := testGraph(t, 300, 3)
	s, err := NewSampler(g, diffusion.IC, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the aftermath of a giant RR set: a queue holding multi-MB
	// capacity while typical sets on this graph are tiny.
	huge := 1 << 20
	s.queue = make([]uint32, 0, huge)
	c := NewCollection(64)
	s.SampleManyInto(c, shrinkWindow)
	if cap(s.queue) >= huge {
		t.Fatalf("queue capacity %d retained after a full shrink window", cap(s.queue))
	}
	if cap(s.queue) < shrinkMinCap {
		t.Fatalf("queue shrunk below the floor: %d < %d", cap(s.queue), shrinkMinCap)
	}
}

// TestBatchScratchShrinksAfterOutlier is the batched twin: after one
// pathological wave, every per-wave arena — the per-item candidate
// bounds included — is released within a window of cohorts, and
// sampling carries on bit-identically.
func TestBatchScratchShrinksAfterOutlier(t *testing.T) {
	g := testGraph(t, 300, 3)
	s, err := NewBatchSampler(g, diffusion.IC, 17, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	huge := 1 << 20
	s.keys = make([]uint64, 0, huge)
	s.laneBySeq = make([]int32, 0, huge)
	s.cand = make([]uint32, 0, huge)
	s.candStart = make([]int32, 0, huge)
	s.candEnd = make([]int32, 0, huge)
	c := NewCollection(64)
	s.SampleManyInto(c, int64(shrinkWindow*s.Width()))
	for name, got := range map[string]int{
		"keys": cap(s.keys), "laneBySeq": cap(s.laneBySeq), "cand": cap(s.cand),
		"candStart": cap(s.candStart), "candEnd": cap(s.candEnd),
	} {
		if got >= huge {
			t.Errorf("%s capacity %d retained after a full shrink window", name, got)
		}
		if got < shrinkMinCap {
			t.Errorf("%s shrunk below the floor: %d < %d", name, got, shrinkMinCap)
		}
	}
	want := NewCollection(64)
	scalar, err := NewSampler(g, diffusion.IC, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	scalar.SampleManyInto(want, int64(2*shrinkWindow*s.Width()))
	s.SampleManyInto(c, int64(shrinkWindow*s.Width()))
	if !collectionsEqual(want, c) {
		t.Fatal("batched output diverges from scalar across a scratch shrink")
	}
}

// TestShrinkScratchPolicy covers the decision table directly.
func TestShrinkScratchPolicy(t *testing.T) {
	// Capacity within slack of the peak: kept.
	buf := make([]uint32, 0, 4*shrinkMinCap)
	if got := shrinkScratch(buf, shrinkMinCap); cap(got) != cap(buf) {
		t.Fatalf("in-slack buffer reallocated: cap %d → %d", cap(buf), cap(got))
	}
	// Capacity far beyond the peak: released down to 2× peak.
	peak := 2 * shrinkMinCap
	buf = make([]uint32, 0, 100*peak)
	got := shrinkScratch(buf, peak)
	if cap(got) > shrinkSlack*peak {
		t.Fatalf("outlier capacity kept: %d", cap(got))
	}
	if cap(got) < peak {
		t.Fatalf("shrunk below peak demand: %d < %d", cap(got), peak)
	}
	// Tiny peaks never go below the floor.
	buf = make([]uint32, 0, 1<<20)
	if got := shrinkScratch(buf, 1); cap(got) < shrinkMinCap {
		t.Fatalf("shrunk below floor: %d", cap(got))
	}
	// Length is always reset to zero.
	if got := shrinkScratch(make([]uint32, 7, 1<<20), 1); len(got) != 0 {
		t.Fatalf("shrinkScratch returned non-empty slice, len=%d", len(got))
	}
	// Any element type: the batched kernel's int32 per-item candidate
	// bounds go through the same valve.
	if got := shrinkScratch(make([]int32, 7, 1<<20), 1); len(got) != 0 || cap(got) >= 1<<20 || cap(got) < shrinkMinCap {
		t.Fatalf("int32 scratch: len %d cap %d after shrink", len(got), cap(got))
	}
}

// TestBatchWidthOne ensures the degenerate width behaves exactly like the
// scalar sampler even through Seed rewinds.
func TestBatchWidthOne(t *testing.T) {
	g := testGraph(t, 200, 1)
	scalar, err := NewSampler(g, diffusion.LT, 13, false)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewBatchSampler(g, diffusion.LT, 99, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched.SampleManyInto(NewCollection(8), 25)
	batched.Seed(13) // rewind onto the scalar sampler's stream
	want, got := NewCollection(64), NewCollection(64)
	scalar.SampleManyInto(want, 100)
	batched.SampleManyInto(got, 100)
	if !collectionsEqual(want, got) {
		t.Fatal("width-1 batched sampler diverges from scalar after Seed rewind")
	}
}
