package rrset

import (
	"slices"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/xrand"
)

// livePostings collects the RR ids covering v through AppendCovers (the
// view every cold reader sees), sorted: a patched index's overlay
// postings trail the segment postings out of global order, and coverage
// consumers are order-invariant by design.
func livePostings(idx *Index, v uint32) []uint32 {
	out := idx.AppendCovers(nil, v)
	slices.Sort(out)
	return out
}

// checkAgainstFresh asserts the patched index and a from-scratch build
// over the patched collection agree on every node's postings and degree.
func checkAgainstFresh(t *testing.T, idx *Index, c *Collection, n int, when string) {
	t.Helper()
	fresh, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	for v := uint32(0); int(v) < n; v++ {
		want := fresh.AppendCovers(nil, v)
		got := livePostings(idx, v)
		if len(got) != len(want) {
			t.Fatalf("%s: node %d has %d live postings, want %d", when, v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d postings diverge at %d: %d != %d", when, v, i, got[i], want[i])
			}
		}
		if idx.Degree(v) != fresh.Degree(v) {
			t.Fatalf("%s: node %d degree %d, want %d", when, v, idx.Degree(v), fresh.Degree(v))
		}
	}
}

// randomPatches rewrites count random distinct slots with random distinct
// membership (possibly empty, possibly overlapping the old one).
func randomPatches(r *xrand.Rand, c *Collection, n, count int) []Patch {
	seen := make(map[int]bool)
	var patches []Patch
	for len(patches) < count {
		pos := int(r.Uint32n(uint32(c.Count())))
		if seen[pos] {
			continue
		}
		seen[pos] = true
		size := int(r.Uint32n(6))
		members := make([]uint32, 0, size)
		used := make(map[uint32]bool)
		for len(members) < size {
			v := r.Uint32n(uint32(n))
			if !used[v] {
				used[v] = true
				members = append(members, v)
			}
		}
		patches = append(patches, Patch{Pos: pos, Members: members})
	}
	return patches
}

// TestIndexApplyPatchesMatchesFullBuild is the in-place repair theorem
// for the inverted index: after any sequence of patch rounds — and an
// AppendFrom growth in between — the tombstone+overlay index exposes
// exactly the postings and degrees a from-scratch build over the patched
// collection would.
func TestIndexApplyPatchesMatchesFullBuild(t *testing.T) {
	g := testGraph(t, 200, 5)
	s, err := NewSampler(g, diffusion.IC, 23, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, 500)
	n := g.NumNodes()

	// Multi-segment start, so patches land across segment boundaries.
	idx := buildIncrementally(t, c, n, []int{200, 150, 150})
	r := xrand.New(99)
	for round := 0; round < 4; round++ {
		patches := randomPatches(r, c, n, 40)
		// Index first: it diffs against pre-patch membership.
		if err := idx.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, idx, c, n, "after patch round")
	}
	if idx.overlay == nil && idx.dead == 0 {
		t.Fatal("index reports unpatched after live patch rounds")
	}

	// Growth after patching: the appended segment and the patch state
	// must coexist.
	s.SampleManyInto(c, 120)
	if err := idx.AppendFrom(c, 500); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, idx, c, n, "after post-patch growth")

	// And patches over the grown collection, including the new segment.
	patches := randomPatches(r, c, n, 40)
	if err := idx.ApplyPatches(c, patches); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyPatches(patches); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, idx, c, n, "after post-growth patches")
}

// TestIndexApplyPatchesCompacts drives enough churn through a small
// index that the dead+overlay mass crosses the compaction threshold and
// the index rebuilds itself into clean segments.
func TestIndexApplyPatchesCompacts(t *testing.T) {
	const n = 16
	c := NewCollection(8)
	for i := 0; i < 32; i++ {
		c.Append([]uint32{uint32(i % n), uint32((i + 5) % n)}, 0)
	}
	idx, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	for round := 0; ; round++ {
		if round > 200 {
			t.Fatal("no compaction after 200 rounds of full-collection churn")
		}
		patches := randomPatches(r, c, n, 16)
		if err := idx.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
		if idx.FullBuilds() > 1 {
			break
		}
	}
	// A compaction folds the overlay and drops the tombstones before the
	// triggering round's patches land on the clean segments; the index
	// stays exact throughout.
	checkAgainstFresh(t, idx, c, n, "after compaction")
}

// TestIndexApplyPatchesValidation covers the refuse paths: stale index
// (count mismatch) and out-of-range patch positions.
func TestIndexApplyPatchesValidation(t *testing.T) {
	c := NewCollection(8)
	c.Append([]uint32{0, 1}, 0)
	c.Append([]uint32{2}, 0)
	idx, err := BuildIndex(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.ApplyPatches(c, []Patch{{Pos: 2, Members: []uint32{3}}}); err == nil {
		t.Fatal("want error for a patch position beyond the collection")
	}
	c.Append([]uint32{3}, 0)
	if err := idx.ApplyPatches(c, []Patch{{Pos: 0, Members: []uint32{3}}}); err == nil {
		t.Fatal("want error when the index lags the collection")
	}
}
