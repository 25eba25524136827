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
	runtime.KeepAlive(s)
	return out
}

func sameSets(t *testing.T, when string, got Snapshot, want [][]uint32) {
	t.Helper()
	if got.Count() != len(want) {
		t.Fatalf("%s: %d sets, want %d", when, got.Count(), len(want))
	}
	for i := range want {
		if !slices.Equal(got.Set(i), want[i]) {
			t.Fatalf("%s: set %d = %v, want %v", when, i, got.Set(i), want[i])
		}
	}
	runtime.KeepAlive(got)
}

// TestArenaGrowsInPlace: an owned off-heap arena survives three
// doublings (1 to 8 MiB; offheap's own test runs ten) without changing a
// member, resized in place rather than reallocated,
// and Release returns every mapped byte at once.
func TestArenaGrowsInPlace(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(offheap.MinBytes / 4)
	region := c.region
	if region == nil {
		t.Fatal("a MinBytes arena was placed on the heap")
	}
	ref := NewCollection(0)
	ref.pinned.Store(true) // heap-only reference copy
	r := xrand.New(5)
	for step := 0; step < 3; step++ {
		target := int64(offheap.MinBytes/4) << (step + 1)
		for c.TotalSize() < target {
			set := make([]uint32, 1+r.Intn(64))
			for j := range set {
				set[j] = r.Uint32n(1 << 20)
			}
			c.Append(set, 1)
			ref.Append(set, 1)
		}
	}
	if c.region != region {
		t.Fatal("the owned arena was replaced instead of resized")
	}
	if !slices.Equal(c.nodes, ref.nodes) || !slices.Equal(c.offs, ref.offs) {
		t.Fatal("members changed across in-place growth")
	}
	if offheap.Mapped()-base < 4*c.TotalSize() {
		t.Fatalf("%d bytes mapped for %d members", offheap.Mapped()-base, c.TotalSize())
	}
	c.Release()
	if got := offheap.Mapped(); got > base {
		t.Fatalf("%d bytes still mapped after Release", got-base)
	}
	if c.Count() != 0 || c.TotalSize() != 0 {
		t.Fatalf("released collection holds %d sets, %d members", c.Count(), c.TotalSize())
	}
}

// TestSnapshotOutlivesGrowthAndPatches: a Snapshot pins its arena. The
// collection neither moves nor frees it through growth, ApplyPatches and
// Release, the snapshot reads the same bytes after GC cycles, and the
// arena is unmapped once the snapshot is gone.
func TestSnapshotOutlivesGrowthAndPatches(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(0)
	bigSets(c, 1, 1<<12, 32, offheap.MinBytes/4+1)
	if c.region == nil {
		t.Fatal("arena not off the heap")
	}
	snap := c.Snapshot()
	want := sample(snap)

	bigSets(c, 2, 1<<12, 32, 4*c.TotalSize()) // regrows past the pinned arena
	runtime.GC()
	sameSets(t, "after growth", snap, want)
	if err := c.ApplyPatches([]Patch{{Pos: 0, Members: []uint32{7}}, {Pos: 3, Members: nil}}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	sameSets(t, "after ApplyPatches", snap, want)
	if c.region != nil {
		t.Fatal("a snapshotted collection allocated a new arena off the heap")
	}
	c.Release()
	c = nil
	runtime.GC()
	runtime.GC()
	sameSets(t, "after the collection was released", snap, want)

	snap = Snapshot{}
	for i := 0; i < 100 && offheap.Mapped() > base; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if got := offheap.Mapped(); got > base {
		t.Fatalf("%d bytes still mapped after the last snapshot went", got-base)
	}
}

// TestApplyPatchesFreesOwnedArena: an unpinned collection frees the old
// arena as soon as the rebuilt one is in place.
func TestApplyPatchesFreesOwnedArena(t *testing.T) {
	base := offheap.Mapped()
	c := NewCollection(0)
	bigSets(c, 3, 1<<12, 32, offheap.MinBytes/2)
	before := offheap.Mapped() - base
	for round := 0; round < 5; round++ {
		if err := c.ApplyPatches([]Patch{{Pos: round, Members: []uint32{1, 2, 3}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := offheap.Mapped() - base; got > before {
		t.Fatalf("%d bytes mapped after five repairs, %d before", got, before)
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
	bigSets(c, 4, n, 32, offheap.MinBytes/2+1)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	from := c.Count()
	bigSets(c, 5, n, 32, 2*c.TotalSize())
	if err := idx.AppendFrom(c, from); err != nil {
		t.Fatal(err)
	}
	collMapped := int64(cap(c.region.Bytes()))
	twoSegs := offheap.Mapped() - base - collMapped
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
	collMapped = int64(cap(c.region.Bytes()))
	if got := offheap.Mapped() - base - collMapped; got > twoSegs {
		t.Fatalf("postings hold %d mapped bytes after compaction, %d before", got, twoSegs)
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
	bigSets(c, 7, n, 50, 1<<20)
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("heap grew by %d bytes for a %d-member sample", grew, c.TotalSize())
	}
	runtime.KeepAlive(idx)
	idx.Release()
	c.Release()
}
