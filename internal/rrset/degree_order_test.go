package rrset

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"dimm/internal/xrand"
)

// checkDegreeOrder compares idx.DegreeOrder with a comparison sort of
// every node by (Degree descending, id ascending), and each run's ends
// with the degree counts.
func checkDegreeOrder(t *testing.T, idx *Index, when string) {
	t.Helper()
	want := make([]uint32, idx.NumNodes())
	for v := range want {
		want[v] = uint32(v)
	}
	slices.SortFunc(want, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(idx.Degree(b), idx.Degree(a)), cmp.Compare(a, b))
	})
	o := idx.DegreeOrder()
	if !slices.Equal(o.Nodes, want) {
		t.Fatalf("%s: degree order %v, want %v", when, o.Nodes, want)
	}
	if o.MaxDegree() != idx.Degree(want[0]) || o.Ends[len(o.Ends)-1] != 0 || o.Ends[0] != len(want) {
		t.Fatalf("%s: ends %v for a largest degree of %d over %d nodes", when, o.Ends, idx.Degree(want[0]), len(want))
	}
	for d := 0; d <= o.MaxDegree(); d++ {
		for _, v := range o.Nodes[o.Ends[d+1]:o.Ends[d]] {
			if idx.Degree(v) != d {
				t.Fatalf("%s: node %d of degree %d sits in the run of degree %d", when, v, idx.Degree(v), d)
			}
		}
	}
	if idx.DegreeOrder() != o {
		t.Fatalf("%s: a second read rebuilt the order", when)
	}
}

// TestDegreeOrderFollowsIndex: the cached order is the index's own
// after a build, a growth, a patch and a compacting patch; each change
// drops it, Bytes counts it only while it is held, and Release drops it.
func TestDegreeOrderFollowsIndex(t *testing.T) {
	const n = 300
	r := xrand.New(5)
	c := NewCollection(0)
	t.Cleanup(c.Release)
	var (
		buf []uint32
		ix  *Index
	)
	grow := func(sets int) {
		for i := 0; i < sets; i++ {
			buf = buf[:0]
			for sz := 1 + r.Intn(4); len(buf) < sz; {
				if v := uint32(r.Intn(n - 20)); !slices.Contains(buf, v) {
					buf = append(buf, v)
				}
			}
			c.Append(buf, 0)
		}
	}
	patch := func(every int) {
		var patches []Patch
		for pos := 0; pos < c.Count(); pos += every {
			patches = append(patches, Patch{Pos: pos, Members: []uint32{uint32(r.Intn(n))}})
		}
		if err := ix.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
	}
	grow(500)
	ix, err := BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Release)
	bare := ix.Bytes()
	checkDegreeOrder(t, ix, "build")
	o := ix.DegreeOrder()
	if got, want := ix.Bytes()-bare, int64(4*len(o.Nodes)+8*len(o.Ends)); got != want {
		t.Fatalf("holding the order added %d bytes to Bytes(), want %d", got, want)
	}
	from := c.Count()
	grow(400)
	if err := ix.AppendFrom(c, from); err != nil {
		t.Fatal(err)
	}
	if ix.order.Load() != nil {
		t.Fatal("AppendFrom kept the previous degree order")
	}
	checkDegreeOrder(t, ix, "growth")
	patch(9)
	if ix.order.Load() != nil {
		t.Fatal("ApplyPatches kept the previous degree order")
	}
	checkDegreeOrder(t, ix, "patch")
	builds := ix.FullBuilds()
	for ix.FullBuilds() == builds {
		patch(2)
	}
	checkDegreeOrder(t, ix, "compaction")
	ix.Release()
	if ix.order.Load() != nil || ix.Bytes() != 0 {
		t.Fatalf("Release kept the degree order (Bytes() = %d)", ix.Bytes())
	}
}

// TestOrderByDegreeEdges: no items, items that all have degree 0, a
// small order by hand, and a negative degree.
func TestOrderByDegreeEdges(t *testing.T) {
	for _, tc := range []struct {
		deg   []int64
		nodes []uint32
		ends  []int
	}{
		{nil, []uint32{}, []int{0, 0}},
		{make([]int64, 3), []uint32{0, 1, 2}, []int{3, 0}},
		{[]int64{1, 3, 1, 0, 3}, []uint32{1, 4, 0, 2, 3}, []int{5, 4, 2, 2, 0}},
	} {
		o, err := OrderByDegree(tc.deg)
		if err != nil || !slices.Equal(o.Nodes, tc.nodes) || !slices.Equal(o.Ends, tc.ends) {
			t.Fatalf("OrderByDegree(%v) = %+v, %v; want nodes %v, ends %v", tc.deg, o, err, tc.nodes, tc.ends)
		}
	}
	if _, err := OrderByDegree([]int64{2, -1, 0}); err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Fatalf("a negative degree gave %v, want an error naming item 1", err)
	}
}
