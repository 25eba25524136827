package core

import (
	"reflect"
	"slices"
	"testing"

	"dimm/internal/coverage"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// TestSelectFromSampleCandidatesRecountEqualsDelta: the candidate mask
// forwards coverage.Counter, so the fast tier's selection counts popped
// marginals; behind a wrapper that hides Counter the same mask takes the
// delta path at P ∈ {1, 2, 4}. On a fresh and on a patched index, and
// for k up to n (past the pool, where greedy pads with zero-marginal
// nodes), both must agree exactly.
func TestSelectFromSampleCandidatesRecountEqualsDelta(t *testing.T) {
	const n = 80
	r := xrand.New(0xCA4D)
	randomSet := func() []uint32 {
		var s []uint32
		for sz := 1 + r.Intn(7); len(s) < sz; {
			if v := uint32(r.Intn(n)); !slices.Contains(s, v) {
				s = append(s, v)
			}
		}
		return s
	}
	c := rrset.NewCollection(20000)
	for i := 0; i < 20000; i++ {
		c.Append(randomSet(), 0)
	}
	idx, err := rrset.BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	var cands []uint32
	allow := make([]bool, n)
	for v := uint32(0); v < n; v += 3 {
		cands = append(cands, v)
		allow[v] = true
	}
	check := func(shape string) {
		for _, k := range []int{1, 10, len(cands), n} {
			want, err := SelectFromSampleCandidates(c, idx, n, k, cands)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4} {
				o, err := coverage.NewLocalOracle(c, idx, n)
				if err != nil {
					t.Fatal(err)
				}
				o.SetParallelism(p)
				got, err := coverage.RunGreedy(struct{ coverage.Oracle }{&candidateOracle{inner: o, allow: allow}}, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s k=%d P=%d: delta path diverges from recount:\n  recount: %+v\n  delta:   %+v", shape, k, p, want, got)
				}
			}
		}
	}
	check("fresh")

	var patches []rrset.Patch
	for pos := 0; pos < c.Count(); pos += 16 {
		patches = append(patches, rrset.Patch{Pos: pos, Members: randomSet()})
	}
	if err := idx.ApplyPatches(c, patches); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyPatches(patches); err != nil {
		t.Fatal(err)
	}
	if !idx.Patched() {
		t.Fatal("want a patched index")
	}
	check("patched")
}
