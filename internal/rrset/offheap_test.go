//go:build unix

package rrset

import (
	"runtime"
	"slices"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/xrand"
)

// bigSets appends sets of size distinct members each, drawn from [0, n),
// until c holds at least members members in total: past
// offheap.MinBytes, so the arena lives off the heap.
func bigSets(c *Collection, seed uint64, n, size int, members int64) {
	r := xrand.New(seed)
	set := make([]uint32, 0, size)
	for c.TotalSize() < members {
		set = set[:0]
		for len(set) < size {
			if v := r.Uint32n(uint32(n)); !slices.Contains(set, v) {
				set = append(set, v)
			}
		}
		c.Append(set, int64(size))
	}
}

// sample copies every set of a snapshot out of the arena.
func sample(s Snapshot) [][]uint32 {
	out := make([][]uint32, s.Count())
	for i := range out {
		out[i] = slices.Clone(s.Set(i))
	}
	return out
}

// samePrefix fails unless the snapshot's first len(want) sets are want.
func samePrefix(t *testing.T, when string, got Snapshot, want [][]uint32) {
	t.Helper()
	if got.Count() < len(want) {
		t.Fatalf("%s: %d sets, want at least %d", when, got.Count(), len(want))
	}
	for i := range want {
		if !slices.Equal(got.Set(i), want[i]) {
			t.Fatalf("%s: set %d = %v, want %v", when, i, got.Set(i), want[i])
		}
	}
}

// arenaBytes returns the bytes c's member arena holds mapped.
func arenaBytes(c *Collection) int64 { return int64(cap(c.region.Bytes())) }

// postingBytes returns the bytes idx's postings hold mapped.
func postingBytes(idx *Index) int64 {
	var b int64
	for _, s := range idx.segs {
		b += int64(cap(s.region.Bytes()))
	}
	return b
}

// TestArenaGrowsInPlace: an owned off-heap arena survives three
// doublings (1 to 8 MiB; offheap's own test runs ten) without changing a
// member, resized in place rather than reallocated,
// and Release returns every mapped byte at once.
func TestArenaGrowsInPlace(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(offheap.MinBytes / 4)
	t.Cleanup(c.Release)
	region := c.region
	if region == nil {
		t.Fatal("a MinBytes arena was placed on the heap")
	}
	var nodes []uint32 // heap-only reference copy
	offs := []int64{0}
	r := xrand.New(5)
	for step := 0; step < 3; step++ {
		target := int64(offheap.MinBytes/4) << (step + 1)
		for c.TotalSize() < target {
			set := make([]uint32, 1+r.Intn(64))
			for j := range set {
				set[j] = r.Uint32n(1 << 20)
			}
			c.Append(set, 1)
			nodes = append(nodes, set...)
			offs = append(offs, int64(len(nodes)))
		}
	}
	if c.region != region {
		t.Fatal("the owned arena was replaced instead of resized")
	}
	if !slices.Equal(c.nodes, nodes) || !slices.Equal(c.offs, offs) {
		t.Fatal("members changed across in-place growth")
	}
	if arenaBytes(c) < 4*c.TotalSize() {
		t.Fatalf("%d bytes mapped for %d members", arenaBytes(c), c.TotalSize())
	}
	c.Release()
	if got := offheap.Mapped(); got > base {
		t.Fatalf("%d bytes still mapped after Release", got-base)
	}
	if c.Count() != 0 || c.TotalSize() != 0 {
		t.Fatalf("released collection holds %d sets, %d members", c.Count(), c.TotalSize())
	}
}

// TestSnapshotLeavesArenaOwned: a Snapshot is a view, not a pin. A
// collection that handed one out still grows its arena in place off the
// heap and rebuilds it off the heap on ApplyPatches, and Release returns
// every mapped byte at once, with no GC.
func TestSnapshotLeavesArenaOwned(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(0)
	t.Cleanup(c.Release)
	bigSets(c, 1, 1<<12, 32, offheap.MinBytes/4+1)
	region := c.region
	if region == nil {
		t.Fatal("arena not off the heap")
	}
	want := sample(c.Snapshot())

	bigSets(c, 2, 1<<12, 32, 4*c.TotalSize())
	if c.region != region {
		t.Fatal("a snapshotted collection replaced its arena instead of resizing it")
	}
	samePrefix(t, "after growth", c.Snapshot(), want)
	if err := c.ApplyPatches([]Patch{{Pos: 0, Members: []uint32{7}}, {Pos: 3, Members: nil}}); err != nil {
		t.Fatal(err)
	}
	if c.region == nil {
		t.Fatal("a snapshotted collection rebuilt its arena on the heap")
	}
	want[0], want[3] = []uint32{7}, []uint32{}
	samePrefix(t, "after ApplyPatches", c.Snapshot(), want)
	if got := offheap.Mapped() - base; got != arenaBytes(c) {
		t.Fatalf("%d bytes mapped beside a %d-byte arena", got, arenaBytes(c))
	}
	c.Release()
	if got := offheap.Mapped(); got != base {
		t.Fatalf("%d bytes still mapped after Release", got-base)
	}
}

// TestApplyPatchesFreesOwnedArena: a collection frees the old
// arena as soon as the rebuilt one is in place.
func TestApplyPatchesFreesOwnedArena(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(0)
	t.Cleanup(c.Release)
	bigSets(c, 3, 1<<12, 32, offheap.MinBytes/2)
	for round := 0; round < 5; round++ {
		if err := c.ApplyPatches([]Patch{{Pos: round, Members: []uint32{1, 2, 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := offheap.Mapped() - base; c.region == nil || got != arenaBytes(c) {
		t.Fatalf("%d bytes mapped after five repairs beside the current arena", got)
	}
	c.Release()
	if got := offheap.Mapped(); got > base {
		t.Fatalf("%d bytes still mapped after Release", got-base)
	}
}

// TestIndexCompactionFreesSegments: a compacting rebuild frees the
// dropped segments' postings at once and clears their slots, so the
// backing array keeps none of them reachable. Each segment holds enough
// 2-byte postings to live off the heap, and all of them fit one window.
func TestIndexCompactionFreesSegments(t *testing.T) {
	const n = 1 << 12
	base := offheap.Mapped()
	c := NewCollection(0)
	t.Cleanup(c.Release)
	bigSets(c, 4, n, 32, offheap.MinBytes/2+1)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Release)
	from := c.Count()
	bigSets(c, 5, n, 32, 2*c.TotalSize())
	if err := idx.AppendFrom(c, from); err != nil {
		t.Fatal(err)
	}
	twoSegs := postingBytes(idx)
	if len(idx.segs) != 2 || twoSegs < 2*c.TotalSize() {
		t.Fatalf("%d segments, %d bytes of postings mapped for %d members", len(idx.segs), twoSegs, c.TotalSize())
	}

	// Churn a quarter of the sets: the next ApplyPatches compacts first.
	r := xrand.New(6)
	for round := 0; round < 3; round++ {
		patches := randomPatches(r, c, n, c.Count()/8)
		if err := idx.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
	}
	if idx.FullBuilds() < 2 {
		t.Fatal("patch debt never forced a compaction")
	}
	for i, seg := range idx.segs[len(idx.segs):cap(idx.segs)] {
		if seg.ids != nil || seg.has != nil || seg.rank != nil || seg.offs != nil || seg.region != nil || seg.dead != nil {
			t.Fatalf("slot %d past the live segments still holds a dropped segment", len(idx.segs)+i)
		}
	}
	if got := postingBytes(idx); got > twoSegs {
		t.Fatalf("postings hold %d mapped bytes after compaction, %d before", got, twoSegs)
	}
	if got := offheap.Mapped() - base; got != arenaBytes(c)+postingBytes(idx) {
		t.Fatalf("%d bytes mapped for a %d-byte arena and %d bytes of postings", got, arenaBytes(c), postingBytes(idx))
	}
	checkAgainstFresh(t, idx, c, n, "after compaction")

	idx.Release()
	c.Release()
	if got := offheap.Mapped(); got > base {
		t.Fatalf("%d bytes still mapped after Release", got-base)
	}
	if idx.Count() != 0 || idx.Degree(0) != 0 || len(idx.AppendCovers(nil, 0)) != 0 || len(idx.segs) != 0 {
		t.Fatal("released index still answers queries")
	}
}

// TestSampleStaysOffHeap: a one-million-member collection and its index
// leave the Go heap under 1 MiB larger: only the offset tables and the
// per-segment start arrays live there.
func TestSampleStaysOffHeap(t *testing.T) {
	const n = 1 << 14
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCollection(1 << 16)
	t.Cleanup(c.Release)
	bigSets(c, 7, n, 50, 1<<20)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Release)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("heap grew by %d bytes for a %d-member sample", grew, c.TotalSize())
	}
}
