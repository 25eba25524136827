package core

import (
	"reflect"
	"runtime"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/rrset"
)

// TestSelectFromSampleReusesScratch: after warm-up, a repeated seed
// query over one resident sample allocates no n-sized slice — the greedy
// scans the index's cached degree order and keeps no per-node state —
// and every repeat returns the same seeds and marginals in the same
// order.
func TestSelectFromSampleReusesScratch(t *testing.T) {
	const n, k = 50000, 20
	g := testGraph(t, n)
	s, err := rrset.NewSampler(g, diffusion.IC, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	c := rrset.NewCollection(0)
	s.SampleManyInto(c, 4000)
	idx, err := rrset.BuildIndex(c, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectFromSample(c, idx, n, k)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	const runs = 20
	var got []uint32
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := SelectFromSample(c, idx, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("repeat selected %v / %v, first run %v / %v", res.Seeds, res.Marginals, want.Seeds, want.Marginals)
		}
		got = res.Seeds
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the timed runs.
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perRun >= n {
		t.Fatalf("a repeated query allocates %d bytes (%v allocations), at least one n-sized slice (n = %d)", perRun, allocs, n)
	}
	if len(got) != k {
		t.Fatalf("selected %d seeds, want %d", len(got), k)
	}
}
