package rrset

import (
	"testing"

	"dimm/internal/diffusion"
)

// buildIncrementally grows an index over c in the given chunk schedule.
func buildIncrementally(t *testing.T, c *Collection, n int, chunks []int) *Index {
	t.Helper()
	idx, err := BuildIndex(prefix(c, chunks[0]), n)
	if err != nil {
		t.Fatal(err)
	}
	have := chunks[0]
	for _, add := range chunks[1:] {
		if err := idx.AppendFrom(prefix(c, have+add), have); err != nil {
			t.Fatal(err)
		}
		have += add
	}
	return idx
}

// prefix returns a collection view holding the first count RR sets of c.
func prefix(c *Collection, count int) *Collection {
	return &Collection{nodes: c.nodes[:c.offs[count]], offs: c.offs[:count+1]}
}

func TestIndexAppendFromMatchesFullBuild(t *testing.T) {
	g := testGraph(t, 250, 6)
	s, err := NewSampler(g, diffusion.IC, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection(64)
	s.SampleManyInto(c, 700)
	n := g.NumNodes()

	full, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	// A DIIMM-style doubling schedule and a ragged one.
	for _, chunks := range [][]int{{100, 100, 200, 300}, {1, 699}, {350, 1, 349}} {
		incr := buildIncrementally(t, c, n, chunks)
		if incr.Count() != full.Count() {
			t.Fatalf("chunks %v: count %d, want %d", chunks, incr.Count(), full.Count())
		}
		if len(incr.segs) != len(chunks) {
			t.Fatalf("chunks %v: %d segments, want %d", chunks, len(incr.segs), len(chunks))
		}
		if incr.FullBuilds() != 1 {
			t.Fatalf("chunks %v: %d full builds, want 1", chunks, incr.FullBuilds())
		}
		for v := 0; v < n; v++ {
			want := full.AppendCovers(nil, uint32(v))
			got := incr.AppendCovers(nil, uint32(v))
			if len(want) != len(got) {
				t.Fatalf("chunks %v: node %d: %d covers, want %d", chunks, v, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("chunks %v: node %d: covers diverge at %d: %d != %d", chunks, v, i, got[i], want[i])
				}
			}
			if incr.Degree(uint32(v)) != full.Degree(uint32(v)) {
				t.Fatalf("chunks %v: node %d: degree %d, want %d", chunks, v, incr.Degree(uint32(v)), full.Degree(uint32(v)))
			}
			// The per-list iteration must yield the same sequence.
			var seg []uint32
			for si := range incr.segs {
				seg = append(seg, segList(incr, si, uint32(v))...)
			}
			if len(seg) != len(want) {
				t.Fatalf("chunks %v: node %d: segment iteration yields %d ids, want %d", chunks, v, len(seg), len(want))
			}
			for i := range want {
				if seg[i] != want[i] {
					t.Fatalf("chunks %v: node %d: segment iteration diverges at %d", chunks, v, i)
				}
			}
		}
	}
}

func TestIndexAppendFromValidation(t *testing.T) {
	c := NewCollection(8)
	c.Append([]uint32{0, 1}, 0)
	c.Append([]uint32{2}, 0)
	idx, err := BuildIndex(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AppendFrom(c, 1); err == nil {
		t.Fatal("want error when from != indexed count")
	}
	if err := idx.AppendFrom(c, 2); err != nil {
		t.Fatalf("no-op append: %v", err)
	}
	if len(idx.segs) != 1 || idx.Count() != 2 {
		t.Fatalf("no-op append changed the index: %d segs, %d sets", len(idx.segs), idx.Count())
	}
	// A member outside the graph is an error, not a panic, and the failed
	// build leaves the pooled cursors clean for the next one.
	if _, err := BuildIndex(c, 2); err == nil {
		t.Fatal("BuildIndex accepted member 2 in a 2-node graph")
	}
	c.Append([]uint32{9}, 0)
	if err := idx.AppendFrom(c, 2); err == nil {
		t.Fatal("AppendFrom accepted member 9 in a 4-node graph")
	}
	again, err := BuildIndex(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if again.Degree(0) != 1 || again.Degree(2) != 1 || again.Degree(9) != 1 || again.Degree(3) != 0 {
		t.Fatalf("index after failed builds: degrees %d %d %d %d, want 1 1 1 0",
			again.Degree(0), again.Degree(2), again.Degree(9), again.Degree(3))
	}
}

// TestIndexSegmentCapCompacts drives the pathological many-tiny-increments
// pattern past maxIndexIncrements and checks the index compacts into a
// single segment (counted as one more full build) without losing data.
func TestIndexSegmentCapCompacts(t *testing.T) {
	c := NewCollection(8)
	c.Append([]uint32{0}, 0)
	idx, err := BuildIndex(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxIndexIncrements+5; i++ {
		c.Append([]uint32{uint32(i % 3)}, 0)
		if err := idx.AppendFrom(c, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(idx.segs) > maxIndexIncrements || idx.increments > maxIndexIncrements {
		t.Fatalf("%d segments from %d increments exceed the cap %d", len(idx.segs), idx.increments, maxIndexIncrements)
	}
	if idx.FullBuilds() != 2 {
		t.Fatalf("%d full builds, want 2 (initial + one compaction)", idx.FullBuilds())
	}
	if idx.Count() != c.Count() {
		t.Fatalf("index covers %d sets, want %d", idx.Count(), c.Count())
	}
	full, err := BuildIndex(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 3; v++ {
		if idx.Degree(v) != full.Degree(v) {
			t.Fatalf("node %d degree %d after compaction, want %d", v, idx.Degree(v), full.Degree(v))
		}
	}
}
