package coverage

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dimm/internal/bitset"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// kernelSample builds a random collection of m RR sets of avgSize members
// drawn from n nodes, plus its inverted index. Sizes are chosen so node
// degrees comfortably exceed minParallelCovers at the parallelism levels
// under test.
func kernelSample(t testing.TB, seed uint64, n, m, avgSize int) (*rrset.Collection, *rrset.Index) {
	t.Helper()
	r := xrand.New(seed)
	c := rrset.NewCollection(m)
	t.Cleanup(c.Release)
	members := make([]uint32, 0, 2*avgSize)
	for i := 0; i < m; i++ {
		sz := 1 + r.Intn(2*avgSize-1)
		members = members[:0]
		for len(members) < sz {
			v := uint32(r.Intn(n))
			if !slices.Contains(members, v) {
				members = append(members, v)
			}
		}
		c.Append(members, 0)
	}
	idx, err := rrset.BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Release)
	return c, idx
}

// kernelTrace drives a SelectKernel through the given seed sequence and
// records everything observable: the drained delta slice after every
// seed and the covered count after every seed.
type kernelTrace struct {
	Deltas  [][]Delta
	Covered []int64
}

func traceKernel(c *rrset.Collection, idx *rrset.Index, n int, seeds []uint32, parallelism int) kernelTrace {
	kern := NewSelectKernel(n, parallelism)
	covered := bitset.New(c.Count())
	var tr kernelTrace
	for _, u := range seeds {
		kern.Select(c, idx, covered, u)
		tr.Deltas = append(tr.Deltas, kern.Drain(nil))
		tr.Covered = append(tr.Covered, covered.Count())
	}
	return tr
}

// TestParallelSelectBitIdentical: the parallel map stage must produce
// delta vectors bit-identical to the sequential scan — same nodes, same
// decrements, ascending — at every parallelism level. Run with -race
// this also exercises the disjoint-word-range safety argument of the
// chunked bitset writes.
func TestParallelSelectBitIdentical(t *testing.T) {
	c, idx := kernelSample(t, 0xC0FFEE, 64, 40000, 4)
	seeds := make([]uint32, 64)
	for i := range seeds {
		seeds[i] = uint32(i)
	}
	base := traceKernel(c, idx, 64, seeds, 1)
	if got := base.Covered[len(base.Covered)-1]; got != int64(c.Count()) {
		t.Fatalf("selecting every node covered %d of %d RR sets", got, c.Count())
	}
	for _, p := range []int{2, 4, 8} {
		got := traceKernel(c, idx, 64, seeds, p)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("P=%d trace diverges from sequential", p)
		}
	}
}

// TestParallelSelectMultiSegment: an incrementally grown index has
// several segments, and every parallel shard must scan its RR-id range
// of each of them in place.
func TestParallelSelectMultiSegment(t *testing.T) {
	c, idx := kernelSample(t, 0xBEEF, 48, 20000, 4)
	r := xrand.New(7)
	members := make([]uint32, 0, 8)
	for grow := 0; grow < 3; grow++ {
		from := c.Count()
		for i := 0; i < 5000; i++ {
			sz := 1 + r.Intn(7)
			members = members[:0]
			for len(members) < sz {
				v := uint32(r.Intn(48))
				if !slices.Contains(members, v) {
					members = append(members, v)
				}
			}
			c.Append(members, 0)
		}
		if err := idx.AppendFrom(c, from); err != nil {
			t.Fatal(err)
		}
	}
	if idx.FullBuilds() != 1 {
		t.Fatalf("growth rebuilt the index (%d full builds); test wants a multi-segment index", idx.FullBuilds())
	}
	seeds := []uint32{3, 1, 4, 1, 5, 9, 2, 6, 0, 7}
	base := traceKernel(c, idx, 48, seeds, 1)
	for _, p := range []int{2, 4} {
		if got := traceKernel(c, idx, 48, seeds, p); !reflect.DeepEqual(base, got) {
			t.Fatalf("P=%d multi-segment trace diverges from sequential", p)
		}
	}
}

// indexShape is one of the index shapes the system produces, built over
// a random sample of n nodes.
type indexShape struct {
	name  string
	build func(t *testing.T) (*rrset.Collection, *rrset.Index)
}

// indexShapes returns a fresh build, a 3-segment incrementally grown
// index, and a patched one (tombstones in the segments plus an overlay).
func indexShapes(n int) []indexShape {
	r := xrand.New(0x5EEDED)
	randomSet := func(buf []uint32) []uint32 {
		buf = buf[:0]
		for sz := 1 + r.Intn(7); len(buf) < sz; {
			if v := uint32(r.Intn(n)); !slices.Contains(buf, v) {
				buf = append(buf, v)
			}
		}
		return buf
	}
	return []indexShape{
		{"single-segment", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			return kernelSample(t, 0xA1, n, 60000, 4)
		}},
		{"3-segment", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			c, idx := kernelSample(t, 0xA2, n, 20000, 4)
			var buf []uint32
			for grow := 0; grow < 2; grow++ {
				from := c.Count()
				for i := 0; i < 20000; i++ {
					buf = randomSet(buf)
					c.Append(buf, 0)
				}
				if err := idx.AppendFrom(c, from); err != nil {
					t.Fatal(err)
				}
			}
			if idx.FullBuilds() != 1 {
				t.Fatalf("growth rebuilt the index (%d full builds); want 3 segments", idx.FullBuilds())
			}
			return c, idx
		}},
		{"patched", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			c, idx := kernelSample(t, 0xA3, n, 60000, 4)
			patches := make([]rrset.Patch, 0, 3000)
			for pos := 0; pos < c.Count(); pos += 20 {
				patches = append(patches, rrset.Patch{Pos: pos, Members: randomSet(nil)})
			}
			if err := idx.ApplyPatches(c, patches); err != nil {
				t.Fatal(err)
			}
			if err := c.ApplyPatches(patches); err != nil {
				t.Fatal(err)
			}
			if idx.FullBuilds() != 1 {
				t.Fatalf("patches compacted the index (%d full builds); want tombstones and an overlay", idx.FullBuilds())
			}
			return c, idx
		}},
	}
}

// TestKernelDrainMatchesRecount is the kernel's contract as a property,
// over every parallelism and every index shape (indexShapes): after each
// Select the drained pairs are strictly ascending (hence unique), carry
// Dec > 0, and equal a brute-force recount over the collection.
func TestKernelDrainMatchesRecount(t *testing.T) {
	const n = 96
	seeds := make([]uint32, 0, n+8)
	for u := uint32(0); u < n; u++ {
		seeds = append(seeds, u*37%n) // every node once, scattered
	}
	seeds = append(seeds, 5, 5, 0, 95) // repeats select nothing new
	for _, shape := range indexShapes(n) {
		name := shape.name
		c, idx := shape.build(t)
		for _, p := range []int{1, 2, 4, 8} {
			kern := NewSelectKernel(n, p)
			covered := bitset.New(c.Count())
			isCovered := make([]bool, c.Count())
			want := make([]int32, n)
			var got []Delta
			for _, u := range seeds {
				clear(want)
				for j := 0; j < c.Count(); j++ {
					if !isCovered[j] && slices.Contains(c.Set(j), u) {
						isCovered[j] = true
						for _, v := range c.Set(j) {
							want[v]++
						}
					}
				}
				kern.Select(c, idx, covered, u)
				got = kern.Drain(got[:0])
				for i, d := range got {
					if d.Dec <= 0 || (i > 0 && got[i-1].Node >= d.Node) {
						t.Fatalf("%s P=%d seed %d: pair %d = %+v after %+v breaks the drain invariant", name, p, u, i, d, got[max(i-1, 0)])
					}
					if want[d.Node] != d.Dec {
						t.Fatalf("%s P=%d seed %d: node %d drained %d, recount says %d", name, p, u, d.Node, d.Dec, want[d.Node])
					}
					want[d.Node] = 0
				}
				if v := slices.IndexFunc(want, func(d int32) bool { return d != 0 }); v >= 0 {
					t.Fatalf("%s P=%d seed %d: node %d missing from the drain (recount %d)", name, p, u, v, want[v])
				}
			}
			if got := covered.Count(); got != int64(c.Count()) {
				t.Fatalf("%s P=%d: %d of %d RR sets covered after selecting every node", name, p, got, c.Count())
			}
		}
	}
}

// deltaOnly hides LocalOracle's Counter (only Oracle's methods are
// promoted), so RunGreedy over it takes the delta path: Select on the
// kernel, decrements applied by the master.
type deltaOnly struct{ Oracle }

// TestGreedyRecountEqualsDelta: RunGreedy over LocalOracle counts each
// popped node's marginal; over deltaOnly it applies Select's deltas, on
// the parallel kernel at P ∈ {1, 2, 4}. Over every index shape and k ∈
// {1, 10, n}, both must return identical results and leave identical
// covered counts, and the recount must never build the kernel.
func TestGreedyRecountEqualsDelta(t *testing.T) {
	const n = 96
	var _ Counter = (*LocalOracle)(nil)
	for _, shape := range indexShapes(n) {
		c, idx := shape.build(t)
		for _, k := range []int{1, 10, n} {
			rec, err := NewLocalOracle(c, idx, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunGreedy(rec, k)
			if err != nil {
				t.Fatal(err)
			}
			if rec.kern != nil {
				t.Fatalf("%s k=%d: the recount path built a select kernel", shape.name, k)
			}
			for _, p := range []int{1, 2, 4} {
				o, err := NewLocalOracle(c, idx, n)
				if err != nil {
					t.Fatal(err)
				}
				o.SetParallelism(p)
				if _, ok := Oracle(deltaOnly{o}).(Counter); ok {
					t.Fatal("deltaOnly exposes Counter")
				}
				got, err := RunGreedy(deltaOnly{o}, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s k=%d P=%d: delta path diverges from recount:\n  recount: %+v\n  delta:   %+v", shape.name, k, p, want, got)
				}
				if o.CoveredCount() != rec.CoveredCount() {
					t.Fatalf("%s k=%d P=%d: covered count %d, recount %d", shape.name, k, p, o.CoveredCount(), rec.CoveredCount())
				}
			}
		}
	}
}

// negativeOracle reports a negative initial degree, which a worker's
// signed repair corrections feeding the master's degree vector can
// produce if they are ever wrong.
type negativeOracle struct{}

func (negativeOracle) NumItems() int                    { return 3 }
func (negativeOracle) InitialDegrees() ([]int64, error) { return []int64{2, -1, 0}, nil }
func (negativeOracle) Select(uint32) ([]Delta, error)   { return nil, nil }

// TestGreedyRejectsNegativeInitialDegree: a negative degree is reported
// as an error naming the item, not an index panic in the bucket build.
func TestGreedyRejectsNegativeInitialDegree(t *testing.T) {
	runs := map[string]func() error{
		"RunGreedy": func() error {
			_, err := RunGreedy(negativeOracle{}, 2)
			return err
		},
		"RunGreedyUntil": func() error {
			_, err := RunGreedyUntil(negativeOracle{}, 2, 1)
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "item 1") {
			t.Fatalf("%s: err = %v, want an error naming item 1", name, err)
		}
	}
}

// TestKernelGrow: growing the item space mid-stream (the ingest path)
// must preserve accumulated scratch and keep parallel selects exact.
func TestKernelGrow(t *testing.T) {
	c, idx := kernelSample(t, 0xFEED, 32, 12000, 4)
	kern := NewSelectKernel(16, 4) // deliberately undersized
	kern.Grow(32)
	if kern.NumItems() != 32 {
		t.Fatalf("Grow(32) left NumItems %d", kern.NumItems())
	}
	kern.Grow(8) // shrink is a no-op
	if kern.NumItems() != 32 {
		t.Fatalf("Grow(8) shrank NumItems to %d", kern.NumItems())
	}
	covered := bitset.New(c.Count())
	kern.Select(c, idx, covered, 5)
	got := kern.Drain(nil)
	want := traceKernel(c, idx, 32, []uint32{5}, 1).Deltas[0]
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-Grow select diverges: want %d deltas, got %d", len(want), len(got))
	}
}

// TestMultiOracleDeterministic: the reference reduce stage must emit
// merged deltas in ascending node order and produce identical traces on
// identical data — the determinism the Oracle contract requires.
func TestMultiOracleDeterministic(t *testing.T) {
	build := func() *MultiOracle {
		machines := make([]*LocalOracle, 3)
		for i := range machines {
			c, idx := kernelSample(t, 0xAB+uint64(i), 40, 3000, 3)
			o, err := NewLocalOracle(c, idx, 40)
			if err != nil {
				t.Fatal(err)
			}
			machines[i] = o
		}
		m, err := NewMultiOracle(machines)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.InitialDegrees(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	for _, u := range []uint32{7, 3, 7, 19, 0, 39, 11} {
		da, err := a.Select(u)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(da, func(x, y Delta) int {
			if x.Node < y.Node {
				return -1
			}
			return 1
		}) {
			t.Fatalf("Select(%d) emitted out of ascending node order: %v", u, da)
		}
		db, err := b.Select(u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("Select(%d) differs across identical oracles", u)
		}
	}
}

// BenchmarkSelectParallel measures the map-stage kernel at several
// parallelism levels over a fresh covered bitset per iteration; the CI
// bench smoke runs it once per level to keep the path compiling and
// racing.
func BenchmarkSelectParallel(b *testing.B) {
	c, idx := kernelSample(b, 0x5EED, 64, 40000, 4)
	for _, p := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "P1", 2: "P2", 4: "P4"}[p], func(b *testing.B) {
			kern := NewSelectKernel(64, p)
			covered := bitset.New(c.Count())
			var deltas []Delta
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				covered.Reset(c.Count())
				for u := uint32(0); u < 8; u++ {
					kern.Select(c, idx, covered, u)
					deltas = kern.Drain(deltas[:0])
				}
			}
		})
	}
}

// countingCounter counts the postings Marginal reads (the popped node's
// degree on the benchmark's unpatched index) on top of the local oracle.
type countingCounter struct {
	*LocalOracle
	postings int64
}

func (o *countingCounter) Marginal(u uint32) int64 {
	o.postings += int64(o.idx.Degree(u))
	return o.LocalOracle.Marginal(u)
}

// countingDelta counts the member decrements the delta path applies.
type countingDelta struct {
	Oracle
	members int64
}

func (o *countingDelta) Select(u uint32) ([]Delta, error) {
	deltas, err := o.Oracle.Select(u)
	for _, d := range deltas {
		o.members += int64(d.Dec)
	}
	return deltas, err
}

// BenchmarkLocalGreedy times one seed query the way the serving layer
// runs it (core.SelectFromSample: a fresh LocalOracle, then RunGreedy)
// on an IC sample of an R-MAT graph with the repository benchmark's
// θ/n ≈ 1/3, on the recount path and on the delta path (LocalOracle
// behind deltaOnly). Beside ns/query it reports the work each path does
// a query: postings counted by Marginal, or members decremented.
func BenchmarkLocalGreedy(b *testing.B) {
	const n, theta = 1 << 16, 1 << 15
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: n, AvgDegree: 16, Seed: 7}})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		b.Fatal(err)
	}
	s, err := rrset.NewSampler(g, diffusion.IC, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	c := rrset.NewCollection(theta)
	s.SampleManyInto(c, theta)
	idx, err := rrset.BuildIndex(c, n)
	if err != nil {
		b.Fatal(err)
	}
	query := func(b *testing.B, wrap func(*LocalOracle) Oracle, k int) {
		o, err := NewLocalOracle(c, idx, n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunGreedy(wrap(o), k); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{10, 50} {
		b.Run(fmt.Sprintf("k=%d/recount", k), func(b *testing.B) {
			var cc *countingCounter
			query(b, func(o *LocalOracle) Oracle { cc = &countingCounter{LocalOracle: o}; return cc }, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(b, func(o *LocalOracle) Oracle { return o }, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
			b.ReportMetric(float64(cc.postings), "postings/query")
		})
		b.Run(fmt.Sprintf("k=%d/delta", k), func(b *testing.B) {
			var cd *countingDelta
			query(b, func(o *LocalOracle) Oracle { cd = &countingDelta{Oracle: deltaOnly{o}}; return cd }, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(b, func(o *LocalOracle) Oracle { return deltaOnly{o} }, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
			b.ReportMetric(float64(cd.members), "members/query")
		})
	}
}

// TestDeltaAccumDrainAllocatesOnce: Drain sizes its target from the
// marked nodes and grows it once, not up append's ladder one pair at a
// time, so a degree sync of a large increment into an empty slice is
// one allocation.
func TestDeltaAccumDrainAllocatesOnce(t *testing.T) {
	const n = 1 << 14
	a := NewDeltaAccum(n)
	var out []Delta
	allocs := testing.AllocsPerRun(20, func() {
		for v := uint32(0); v < n; v += 3 {
			a.Add(v, int32(v%5)) // every fifth cancels to zero and is dropped
		}
		out = a.Drain(nil)
	})
	if allocs > 1 && !raceDetector {
		t.Fatalf("draining %d pairs into an empty slice made %.0f allocations, want at most 1", len(out), allocs)
	}
	want := 0
	for v := uint32(0); v < n; v += 3 {
		if v%5 != 0 {
			if want >= len(out) || out[want] != (Delta{Node: v, Dec: int32(v % 5)}) {
				t.Fatalf("pair %d of the drain is wrong: %v", want, out[min(want, len(out)-1)])
			}
			want++
		}
	}
	if len(out) != want {
		t.Fatalf("drained %d pairs, want %d", len(out), want)
	}
}
