package rrset

import (
	"slices"
	"sync"
	"testing"

	"dimm/internal/bitset"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// layoutSets appends count RR sets of distinct members to c, drawn from
// pool only, so the nodes outside pool hold no postings.
func layoutSets(r *xrand.Rand, c *Collection, pool []uint32, count int) {
	for i := 0; i < count; i++ {
		size := int(r.Uint32n(uint32(min(len(pool), 9))))
		set := make([]uint32, 0, size)
		for len(set) < size {
			if v := pool[r.Intn(len(pool))]; !slices.Contains(set, v) {
				set = append(set, v)
			}
		}
		c.Append(set, 0)
	}
}

// testDead marks a tombstoned posting in the reference lists: the
// segment layout keeps tombstones in a bitset beside the postings, the
// reference in the id's top bit.
const testDead = 1 << 31

// segList returns v's posting list in segment si as full ids, each
// tombstoned one marked with testDead.
func segList(idx *Index, si int, v uint32) []uint32 {
	s := &idx.segs[si]
	lo, hi := s.span(v)
	var out []uint32
	for p := lo; p < hi; p++ {
		id := s.base() + uint32(s.ids[p])
		if s.isDead(p) {
			id |= testDead
		}
		out = append(out, id)
	}
	return out
}

// denseSeg is the reference layout the sparse segment replaced: an
// (n + 1)-entry start array over the segment's postings.
type denseSeg struct {
	start []int64
	ids   []uint32
}

// denseReference builds, for each segment boundary in froms, the dense
// CSR of the memberships the segment was built from (orig), with every
// posting whose node left the set's current membership tombstoned, and
// the overlay of postings current membership gained, sorted per node.
func denseReference(orig [][]uint32, c *Collection, n int, froms []int) ([]denseSeg, [][]uint32) {
	segs := make([]denseSeg, len(froms))
	for k, lo := range froms {
		hi := len(orig)
		if k+1 < len(froms) {
			hi = froms[k+1]
		}
		s := denseSeg{start: make([]int64, n+1)}
		for t := lo; t < hi; t++ {
			for _, v := range orig[t] {
				s.start[v+1]++
			}
		}
		for v := 0; v < n; v++ {
			s.start[v+1] += s.start[v]
		}
		s.ids = make([]uint32, s.start[n])
		cur := slices.Clone(s.start[:n])
		for t := lo; t < hi; t++ {
			for _, v := range orig[t] {
				id := uint32(t)
				if !slices.Contains(c.Set(t), v) {
					id |= testDead
				}
				s.ids[cur[v]] = id
				cur[v]++
			}
		}
		segs[k] = s
	}
	overlay := make([][]uint32, n)
	for t := range orig {
		for _, v := range c.Set(t) {
			if !slices.Contains(orig[t], v) {
				overlay[v] = append(overlay[v], uint32(t))
			}
		}
	}
	return segs, overlay
}

// checkLayout compares every read of idx against the dense reference:
// each segment's list (tombstone bits included), the overlay list as a
// set, Degree against the live memberships, and FillDegrees into vectors
// shorter than, equal to and longer than the item space. It then checks
// the posting readers against a brute-force recount over c
// (checkReaders).
func checkLayout(t *testing.T, idx *Index, orig [][]uint32, c *Collection, n int, when string) {
	t.Helper()
	froms := make([]int, len(idx.segs))
	for i := range idx.segs {
		froms[i] = idx.segs[i].from
	}
	ref, overlay := denseReference(orig, c, n, froms)
	live := make([]int64, n)
	for i := 0; i < c.Count(); i++ {
		for _, v := range c.Set(i) {
			live[v]++
		}
	}
	for v := uint32(0); int(v) < n; v++ {
		for si, s := range ref {
			seg := s.ids[s.start[v]:s.start[v+1]]
			if got := segList(idx, si, v); !slices.Equal(got, seg) {
				t.Fatalf("%s: segment %d node %d covers %v, dense %v", when, si, v, got, seg)
			}
		}
		if tail := sorted(idx.overlay[v]); !slices.Equal(tail, overlay[v]) {
			t.Fatalf("%s: node %d overlay %v, want %v", when, v, tail, overlay[v])
		}
		if d := idx.Degree(v); int64(d) != live[v] {
			t.Fatalf("%s: node %d degree %d, want %d", when, v, d, live[v])
		}
	}
	for _, size := range []int{max(n-5, 0), n, n + 70} {
		deg := make([]int64, size)
		for v := range deg {
			deg[v] = -1 // FillDegrees overwrites, never accumulates
		}
		idx.FillDegrees(deg)
		for v, d := range deg {
			want := int64(0) // past the item space
			if v < n {
				want = live[v]
			}
			if d != want {
				t.Fatalf("%s: FillDegrees(len %d) node %d = %d, want %d", when, size, v, d, want)
			}
		}
	}
	checkReaders(t, idx, c, n, when)
}

// sorted returns an ascending copy of ids.
func sorted(ids []uint32) []uint32 {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}

// checkReaders checks AppendCovers, CountUncovered, Cover and CoverRange
// on every node against a recount over c's memberships, from a random
// half-covered bitset. CoverRange runs over a few random splits of the
// word space, whose calls together must mark and return exactly what
// one call over every word does.
func checkReaders(t *testing.T, idx *Index, c *Collection, n int, when string) {
	t.Helper()
	r := xrand.New(uint64(n)<<32 | uint64(c.Count()))
	holders := make([][]uint32, n) // ascending ids of the sets holding v
	for i := 0; i < c.Count(); i++ {
		for _, v := range c.Set(i) {
			holders[v] = append(holders[v], uint32(i))
		}
	}
	start := bitset.New(c.Count())
	for i := 0; i < c.Count(); i++ {
		if r.Uint32n(2) == 0 {
			start.Set(i)
		}
	}
	clone := func() *bitset.Bits {
		b := bitset.New(c.Count())
		copy(b.Words(), start.Words())
		return b
	}
	words := len(start.Words())
	for v := uint32(0); int(v) < n; v++ {
		got := idx.AppendCovers(nil, v)
		if !slices.IsSorted(got[:len(got)-len(idx.overlay[v])]) || !slices.Equal(sorted(got), holders[v]) {
			t.Fatalf("%s: node %d AppendCovers %v, recount %v", when, v, got, holders[v])
		}
		var uncovered []uint32
		want := clone()
		for _, j := range holders[v] {
			if !start.Get(int(j)) {
				uncovered = append(uncovered, j)
				want.Set(int(j))
			}
		}
		if m := idx.CountUncovered(start, v); m != int64(len(uncovered)) {
			t.Fatalf("%s: node %d CountUncovered %d, recount %d", when, v, m, len(uncovered))
		}
		covered := clone()
		if m := idx.Cover(covered, v); m != int64(len(uncovered)) || !slices.Equal(covered.Words(), want.Words()) {
			t.Fatalf("%s: node %d Cover returned %d and marked %x, recount %d and %x", when, v, m, covered.Words(), len(uncovered), want.Words())
		}
		full := clone()
		all := idx.CoverRange(nil, full, v, 0, words)
		if !slices.Equal(sorted(all), uncovered) || !slices.Equal(full.Words(), want.Words()) {
			t.Fatalf("%s: node %d CoverRange over every word %v, recount %v", when, v, all, uncovered)
		}
		cuts := []int{0, words}
		for range 3 {
			cuts = append(cuts, r.Intn(words+1))
		}
		slices.Sort(cuts)
		split := clone()
		var parts []uint32
		for i := len(cuts) - 1; i > 0; i-- { // top down: no range's ids are covered yet
			lo, hi := cuts[i-1], cuts[i]
			before := slices.Clone(split.Words())
			part := idx.CoverRange(nil, split, v, lo, hi)
			for _, j := range part {
				if w := int(j >> 6); w < lo || w >= hi {
					t.Fatalf("%s: node %d CoverRange over words [%d, %d) returned id %d", when, v, lo, hi, j)
				}
			}
			if !slices.Equal(split.Words()[:lo], before[:lo]) || !slices.Equal(split.Words()[hi:], before[hi:]) {
				t.Fatalf("%s: node %d CoverRange over words [%d, %d) wrote outside them", when, v, lo, hi)
			}
			parts = append(parts, part...)
		}
		if !slices.Equal(sorted(parts), sorted(all)) || !slices.Equal(split.Words(), full.Words()) {
			t.Fatalf("%s: node %d CoverRange split at %v gives %v, one call %v", when, v, cuts, parts, all)
		}
	}
}

// TestIndexLayoutMatchesDense checks the rank-indexed segment layout
// against the dense start-array layout it replaced, on item spaces that
// are not multiples of 64, with nodes that hold no postings, over 1 to
// 12 segments, after patches and after a forced compaction. A last trial
// spans three id windows: its increments straddle window boundaries, ids
// 65 535 and 65 536 hold postings and are patched every round, and the
// first two windows are filled to their full 16-bit range.
func TestIndexLayoutMatchesDense(t *testing.T) {
	compactions := 0
	// n ≥ 7: randomPatches draws up to five distinct members.
	for trial, n := range []int{7, 63, 65, 130, 200, 1000 + 7} {
		r := xrand.New(uint64(trial) + 11)
		var pool []uint32 // about two thirds of the nodes ever hold postings
		for v := uint32(0); int(v) < n; v++ {
			if r.Uint32n(3) != 0 || v == 0 {
				pool = append(pool, v)
			}
		}
		c := NewCollection(0)
		layoutSets(r, c, pool, 1+r.Intn(40))
		idx, err := BuildIndex(c, n)
		if err != nil {
			t.Fatal(err)
		}
		orig := snapSets(nil, c)
		checkLayout(t, idx, orig, c, n, "fresh")
		for seg := 1 + r.Intn(12); len(idx.segs) < seg; {
			from := c.Count()
			layoutSets(r, c, pool, r.Intn(30)) // an empty increment adds no segment
			if err := idx.AppendFrom(c, from); err != nil {
				t.Fatal(err)
			}
			orig = snapSets(orig, c)
		}
		checkLayout(t, idx, orig, c, n, "grown")
		compactions += patchRounds(t, r, idx, c, orig, n, nil)
		idx.Release()
		c.Release()
	}
	if compactions == 0 {
		t.Fatal("patch debt never forced a compaction")
	}

	const n, window = 67, 1 << windowBits
	r := xrand.New(window)
	pool := make([]uint32, n)
	for v := range pool {
		pool[v] = uint32(v)
	}
	c := NewCollection(0)
	layoutSets(r, c, pool, window-9)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	defer c.Release()
	layoutSets(r, c, pool, 8)
	c.Append([]uint32{0, n - 1}, 0) // id 65 535, the first window's last
	c.Append([]uint32{1, n - 1}, 0) // id 65 536, the second window's first
	layoutSets(r, c, pool, 2)
	if err := idx.AppendFrom(c, window-9); err != nil { // straddles the first boundary
		t.Fatal(err)
	}
	layoutSets(r, c, pool, window+5)
	if err := idx.AppendFrom(c, window+3); err != nil { // fills the second window, opens the third
		t.Fatal(err)
	}
	var froms []int
	for i := range idx.segs {
		froms = append(froms, idx.segs[i].from)
	}
	if want := []int{0, window - 9, window, window + 3, 2 * window}; !slices.Equal(froms, want) {
		t.Fatalf("segments start at %v, want %v", froms, want)
	}
	orig := snapSets(nil, c)
	checkLayout(t, idx, orig, c, n, "windows")
	if patchRounds(t, r, idx, c, orig, n, []int{window - 1, window}) == 0 {
		t.Fatal("patch debt never forced a compaction across windows")
	}
	if len(idx.segs) != 3 {
		t.Fatalf("a compacted index over three windows has %d segments", len(idx.segs))
	}
}

// snapSets appends copies of c's sets past the len(orig) already held.
func snapSets(orig [][]uint32, c *Collection) [][]uint32 {
	for i := len(orig); i < c.Count(); i++ {
		orig = append(orig, slices.Clone(c.Set(i)))
	}
	return orig
}

// patchRounds runs six rounds of random patches over a quarter of the
// sets, plus a patch of every slot in always, through idx and c, checks
// the layout after each, and returns how many compactions they forced.
// orig is the membership idx was built from.
func patchRounds(t *testing.T, r *xrand.Rand, idx *Index, c *Collection, orig [][]uint32, n int, always []int) int {
	t.Helper()
	compactions := 0
	for round := 0; round < 6; round++ {
		pre := snapSets(nil, c)
		builds := idx.FullBuilds()
		patches := slices.DeleteFunc(randomPatches(r, c, n, 1+c.Count()/4), func(p Patch) bool {
			return slices.Contains(always, p.Pos)
		})
		for k, pos := range always {
			patches = append(patches, Patch{Pos: pos, Members: []uint32{uint32(round+k) % uint32(n), uint32(n - 1 - round)}})
		}
		if err := idx.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
		if idx.FullBuilds() > builds {
			orig = pre // compaction rebuilt from the pre-patch sample
			compactions++
		}
		checkLayout(t, idx, orig, c, n, "patched")
	}
	return compactions
}

// TestIndexSegmentBytesProportional: a segment's tables cost 3n/16 B plus
// 4 B per held node, so an 81-set increment on a 2^20-node graph stays
// far below the 8 MiB a dense (n + 1) × 8 B start array cost.
func TestIndexSegmentBytesProportional(t *testing.T) {
	const n = 1 << 20
	r := xrand.New(81)
	c := NewCollection(0)
	pool := make([]uint32, n)
	for v := range pool {
		pool[v] = uint32(v)
	}
	layoutSets(r, c, pool, 81)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	if got := idx.Bytes(); got >= 256<<10 {
		t.Fatalf("81-set index on n = 2^20 holds %d B, want < 256 KiB (dense: %d B)", got, 8*(n+1)+4*c.TotalSize())
	}
	before := idx.Bytes()
	from := c.Count()
	layoutSets(r, c, pool, 81)
	if err := idx.AppendFrom(c, from); err != nil {
		t.Fatal(err)
	}
	if grew := idx.Bytes() - before; grew >= 256<<10 {
		t.Fatalf("an 81-set increment added %d B", grew)
	}
}

// TestIndexConcurrentBuilds builds indexes on several goroutines at once,
// over different item spaces, through the shared cursor pool (in-process
// workers do this); each must equal its sequential build. Run under
// -race it also checks the pool hands a cursor to one build at a time.
func TestIndexConcurrentBuilds(t *testing.T) {
	sizes := []int{300, 4097, 64, 1000}
	colls := make([]*Collection, len(sizes))
	want := make([]*Index, len(sizes))
	for i, n := range sizes {
		r := xrand.New(uint64(i) + 3)
		pool := make([]uint32, n)
		for v := range pool {
			pool[v] = uint32(v)
		}
		colls[i] = NewCollection(0)
		layoutSets(r, colls[i], pool, 500)
		var err error
		if want[i], err = BuildIndex(colls[i], n); err != nil {
			t.Fatal(err)
		}
		defer want[i].Release()
	}
	for round := 0; round < 4; round++ {
		got := make([]*Index, len(sizes))
		var wg sync.WaitGroup
		for i, n := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				half := colls[i].Count() / 2
				idx, err := BuildIndex(prefix(colls[i], half), n)
				if err == nil {
					err = idx.AppendFrom(colls[i], half)
				}
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = idx
			}()
		}
		wg.Wait()
		for i, n := range sizes {
			if got[i] == nil {
				t.FailNow()
			}
			for v := uint32(0); int(v) < n; v++ {
				if !slices.Equal(got[i].AppendCovers(nil, v), want[i].AppendCovers(nil, v)) {
					t.Fatalf("round %d index %d node %d: concurrent build diverges", round, i, v)
				}
			}
			got[i].Release()
		}
	}
}

// coverScanSink keeps the cover-scan counts live, so the compiler cannot
// drop the reads.
var coverScanSink int64

// BenchmarkIndexBuild times the index of a serve_update-shaped mirror:
// IC RR sets on a 2^17-node R-MAT graph with weighted-cascade weights,
// θ = 41 472. "full" builds one segment over the whole sample; "doubling"
// grows from 81 sets by doubling, ten segments as a cold daemon's mirror
// holds; "fill-degrees" is the greedy's degree vector over that
// ten-segment index; "cover-scan" runs CountUncovered then Cover on every
// node of it, as the recount greedy and prefix certification read it,
// unpatched and with every 16th set repaired (tombstones plus overlay).
// The builds report the index's resident bytes, the scans ns per live
// posting read.
func BenchmarkIndexBuild(b *testing.B) {
	const n, theta = 1 << 17, 41472
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: n, AvgDegree: 16, Seed: 7}})
	if err == nil {
		g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	}
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSampler(g, diffusion.IC, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollection(theta)
	s.SampleManyInto(c, theta)
	doubling := func() *Index {
		idx, err := BuildIndex(prefix(c, 81), n)
		for have := 81; err == nil && have < theta; have = min(2*have, theta) {
			err = idx.AppendFrom(prefix(c, min(2*have, theta)), have)
		}
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}
	b.Run("full", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			idx, err := BuildIndex(c, n)
			if err != nil {
				b.Fatal(err)
			}
			bytes = idx.Bytes()
			idx.Release()
		}
		b.ReportMetric(float64(bytes), "B/index")
	})
	b.Run("doubling", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			idx := doubling()
			bytes = idx.Bytes()
			idx.Release()
		}
		b.ReportMetric(float64(bytes), "B/index")
	})
	b.Run("fill-degrees", func(b *testing.B) {
		idx := doubling()
		defer idx.Release()
		deg := make([]int64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.FillDegrees(deg)
		}
		b.ReportMetric(float64(len(idx.segs)), "segments")
	})
	var patches []Patch
	for pos := 0; pos < theta; pos += 16 {
		patches = append(patches, Patch{Pos: pos, Members: slices.Clone(c.Set((pos + 1) % theta))})
	}
	for _, patched := range []bool{false, true} {
		name := "cover-scan/unpatched"
		if patched {
			name = "cover-scan/patched"
		}
		b.Run(name, func(b *testing.B) {
			idx := doubling()
			defer idx.Release()
			if patched {
				// Only the index is read, so c keeps its memberships and
				// stays the pre-patch sample every later build diffs.
				if err := idx.ApplyPatches(c, patches); err != nil {
					b.Fatal(err)
				}
			}
			var postings int64
			for v := uint32(0); v < n; v++ {
				postings += 2 * int64(idx.Degree(v))
			}
			covered := bitset.New(theta)
			var m int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				covered.Reset(theta)
				for v := uint32(0); v < n; v++ {
					m += idx.CountUncovered(covered, v)
					m += idx.Cover(covered, v)
				}
			}
			coverScanSink = m
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*postings), "ns/posting")
		})
	}
}

// TestIndexBytesPerPostingLT: on a worker's real shape, LT RR sets on
// the benchmark's 2^18-node weighted-cascade R-MAT graph, an index of
// 300 000 sets costs at most 2.5 B per posting (2 B of posting, the rest
// tables), against the 4 B a uint32 id alone took.
func TestIndexBytesPerPostingLT(t *testing.T) {
	if raceDetector {
		t.Skip("sampling 300 000 LT sets takes minutes under -race")
	}
	const n, sets = 1 << 18, 300_000
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{Nodes: n, AvgDegree: 16, Seed: 7}})
	if err == nil {
		g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g, diffusion.LT, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(0)
	defer c.Release()
	s.SampleManyInto(c, sets)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Release()
	if per := float64(idx.Bytes()) / float64(c.TotalSize()); per > 2.5 {
		t.Fatalf("%d B for %d postings: %.3f B per posting, want ≤ 2.5", idx.Bytes(), c.TotalSize(), per)
	}
}
