package rrset

import (
	"fmt"
	"math"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
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
// (mid-batch Count boundaries): every call drains its lanes and the
// next call must still emit the next sets of the stream.
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
// its waves step lanes through staged passes instead of node-sorted
// order: the bytes must not notice, and under -race neither must the P
// shard goroutines each running their own streams. Streams counts one
// per shard per call that handed it sets.
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
					var streams int64 // one per shard that got sets, per call
					for _, req := range requests {
						scalar.SampleManyInto(want, req)
						batched.SampleManyInto(got, req)
						streams += min(int64(p), req)
					}
					if !collectionsEqual(want, got) {
						t.Fatalf("P=%d B=%d: batched sharded output diverges", p, b)
					}
					if b == 1 {
						streams = 0 // the scalar kernel keeps no batch stats
					}
					if st := batched.BatchStats(); st.Streams != streams {
						t.Fatalf("P=%d B=%d: batched kernel reported %d streams, want %d", p, b, st.Streams, streams)
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
	// wrap happens on each lane's 3rd set.
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
// pathological set, every per-wave arena — the per-item candidate
// bounds included — and every lane's and ring slot's buffers are
// released within one window of shrinkWindow·B finished sets, and
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
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.members = make([]uint32, 0, huge)
		ln.frontier = make([]uint32, 0, huge)
		ln.next = make([]uint32, 0, huge)
		ln.slots = make([]uint64, huge)
	}
	for i := range s.ring {
		s.ring[i].members = make([]uint32, 0, huge)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, int64(shrinkWindow*s.Width()))
	caps := map[string]int{
		"keys": cap(s.keys), "laneBySeq": cap(s.laneBySeq), "cand": cap(s.cand),
		"candStart": cap(s.candStart), "candEnd": cap(s.candEnd),
	}
	for i := range s.lanes {
		ln := &s.lanes[i]
		caps[fmt.Sprintf("lane %d members", i)] = cap(ln.members)
		caps[fmt.Sprintf("lane %d frontier", i)] = cap(ln.frontier)
		caps[fmt.Sprintf("lane %d next", i)] = cap(ln.next)
		if len(ln.slots) >= huge {
			t.Errorf("lane %d membership table of %d slots retained after a full shrink window", i, len(ln.slots))
		}
	}
	for i := range s.ring {
		caps[fmt.Sprintf("ring slot %d", i)] = cap(s.ring[i].members)
	}
	for name, got := range caps {
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

// stragglerGraph is a directed path 0 → 1 → … → pathLen-1 with weight 1
// on every edge, beside isolated nodes: a set rooted at the path's end
// walks (LT) or floods (IC) the whole path, one node per wave, while a
// set rooted at an isolated node finishes in its first wave.
func stragglerGraph(t testing.TB, pathLen, isolated int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilderHint(pathLen+isolated, pathLen-1)
	for v := 1; v < pathLen; v++ {
		if err := b.AddEdge(uint32(v-1), uint32(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBatchRingBoundsStraggler runs one pathological set among
// single-wave ones: the lanes must keep to the fixed emit ring (idling
// while it is full instead of racing ahead of the straggler), emit the
// scalar sampler's bytes, and, once the stragglers stop, shrink the lane
// and ring-slot buffers the straggler grew within one window of
// finished sets.
func TestBatchRingBoundsStraggler(t *testing.T) {
	const pathLen, isolated, width = 2000, 200, 8
	g := stragglerGraph(t, pathLen, isolated)
	// Phase 1 roots the path's end in about one set of a hundred; phase 2
	// roots isolated nodes only.
	withEnd, without := make([]float64, pathLen+isolated), make([]float64, pathLen+isolated)
	for v := pathLen; v < pathLen+isolated; v++ {
		withEnd[v], without[v] = 1, 1
	}
	withEnd[pathLen-1] = 2
	window := int64(shrinkWindow * width)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		t.Run(model.String(), func(t *testing.T) {
			scalar, err := NewSampler(g, model, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchSampler(g, model, 3, false, width)
			if err != nil {
				t.Fatal(err)
			}
			want, got := NewCollection(64), NewCollection(64)
			for _, phase := range []struct {
				roots []float64
				sets  int64
			}{{withEnd, 2 * window}, {without, window}} {
				if err := scalar.SetRootWeights(phase.roots); err != nil {
					t.Fatal(err)
				}
				if err := s.SetRootWeights(phase.roots); err != nil {
					t.Fatal(err)
				}
				scalar.SampleManyInto(want, phase.sets)
				s.SampleManyInto(got, phase.sets)
			}
			// Each straggler holds the oldest set for pathLen waves, while
			// the other lanes could finish hundreds of single-wave sets: only
			// the ring bound in start keeps finish from overrunning a slot.
			stragglers := 0
			for i := 0; i < got.Count(); i++ {
				if len(got.Set(i)) == pathLen {
					stragglers++
				}
			}
			if stragglers < 3 {
				t.Fatalf("%d stragglers: the case lost its point", stragglers)
			}
			if !collectionsEqual(want, got) {
				t.Fatal("batched output diverges from the scalar sampler around stragglers")
			}
			if len(s.ring) != ringFactor*width {
				t.Fatalf("ring has %d slots, want the fixed %d", len(s.ring), ringFactor*width)
			}
			for i := range s.lanes {
				ln := &s.lanes[i]
				if cap(ln.members) >= pathLen || cap(ln.frontier) >= pathLen || cap(ln.next) >= pathLen {
					t.Errorf("lane %d kept straggler capacity %d/%d/%d a window later", i, cap(ln.members), cap(ln.frontier), cap(ln.next))
				}
				if len(ln.slots) > 64 {
					t.Errorf("lane %d kept a %d-slot membership table a window later", i, len(ln.slots))
				}
			}
			for i := range s.ring {
				if c := cap(s.ring[i].members); c >= pathLen {
					t.Errorf("ring slot %d kept straggler capacity %d a window later", i, c)
				}
			}
		})
	}
}

// TestBatchLTOccupancy pins the refill mechanism through its counter:
// with lanes restarting as soon as their walk ends, an LT stream keeps
// nearly every lane busy (a cohort barrier left 0.206 of them busy on the
// benchmark graph).
func TestBatchLTOccupancy(t *testing.T) {
	s, err := NewBatchSampler(ltGoldenRMAT(t), diffusion.LT, 1, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.SampleManyInto(NewCollection(64), 5000)
	st := s.Stats()
	if occ := float64(st.LaneWaves) / float64(st.Waves*64); occ < 0.9 {
		t.Fatalf("LT frontier occupancy %.3f at B = 64, want >= 0.9 (%+v)", occ, st)
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

// BenchmarkBatchLT times the LT reverse walk on the repository
// benchmark's graph shape — R-MAT, 2^18 nodes, average degree 16,
// weighted cascade — whose CSR is far larger than L2, so every walk step
// is a chain of cache misses (BenchmarkSampleLT's 20 K-node graph fits in
// cache and cannot see that). One op is one RR set; ns/member and
// frontier occupancy LaneWaves/(Waves·B) are reported beside it.
func BenchmarkBatchLT(b *testing.B) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: 1 << 18, AvgDegree: 16, Seed: 7}})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 64} {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			s, err := NewBatchSampler(g, diffusion.LT, 1, false, width)
			if err != nil {
				b.Fatal(err)
			}
			c := NewCollection(1 << 16)
			var members int64
			b.ResetTimer()
			for left := int64(b.N); left > 0; {
				n := min(left, 10_000)
				s.SampleManyInto(c, n)
				left -= n
				members += c.TotalSize()
				c.Reset()
			}
			st := s.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(members), "ns/member")
			b.ReportMetric(float64(st.LaneWaves)/float64(st.Waves*int64(width)), "occupancy")
		})
	}
}
