package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// TestDIIMMBackendIdentity pins what a DIIMM run's answer is a function
// of: the graph, the seed and the machine count — not the graph backend,
// the shard count P, the host's GOMAXPROCS or the frontier-batch width B.
// Every cell must equal one reference run (heap graph, P = 1, B = 1) in
// seeds, θ, coverage and certified spread, for IC and LT. The
// AutoParallelism cells resolve P from GOMAXPROCS, so they stand for
// hosts of 1, 2 and 8 cores.
func TestDIIMMBackendIdentity(t *testing.T) {
	g := testGraph(t, 400)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := graph.WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	mem, err := graph.OpenSegmented(path, graph.BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	mmap, err := graph.OpenSegmented(path, graph.BackendMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer mmap.Close()
	backends := []struct {
		name string
		g    *graph.Graph
	}{{"heap", g}, {"mem", mem}, {"mmap", mmap}}

	type hostP struct{ procs, p int } // procs 0: leave GOMAXPROCS alone
	hosts := []hostP{{0, 1}, {0, 2}, {0, 4}, {0, 8},
		{1, AutoParallelism}, {2, AutoParallelism}, {8, AutoParallelism}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		run := func(bg *graph.Graph, p, b int) *Result {
			t.Helper()
			res, err := RunDIIMM(bg, Options{
				K: 5, Eps: 0.4, Delta: 0.05, Machines: 2,
				Model: model, Seed: 99, Parallelism: p, Batch: b,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(g, 1, 1)
		for _, h := range hosts {
			if h.procs > 0 {
				runtime.GOMAXPROCS(h.procs)
			}
			for _, b := range []int{1, 64} {
				for _, bg := range backends {
					cell := fmt.Sprintf("%v P=%d GOMAXPROCS=%d B=%d %s", model, h.p, runtime.GOMAXPROCS(0), b, bg.name)
					got := run(bg.g, h.p, b)
					if got.Theta != want.Theta || got.Coverage != want.Coverage ||
						!reflect.DeepEqual(got.Seeds, want.Seeds) || got.EstSpread != want.EstSpread {
						t.Errorf("%s: θ=%d cov=%d seeds %v spread %v, want θ=%d cov=%d seeds %v spread %v",
							cell, got.Theta, got.Coverage, got.Seeds, got.EstSpread,
							want.Theta, want.Coverage, want.Seeds, want.EstSpread)
					}
				}
			}
		}
	}
}
