package graph

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dimm/internal/rss"
	"dimm/internal/sealed"
)

// regionTestFile writes a graph whose CSR (≈ 9 MiB, several CRC blocks
// per adjacency section) dwarfs the noise in VmRSS, and returns its path
// and the heap-built original.
func regionTestFile(t *testing.T) (string, *Graph) {
	t.Helper()
	g, err := GenRMAT(RMATConfig{GenConfig: GenConfig{Nodes: 1 << 15, AvgDegree: 16, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = AssignWeights(g, WeightedCascade, 0, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "region.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// settledRSS collects garbage, runs pending finalizers and returns freed
// heap to the OS before reading VmRSS; it skips the test off procfs.
func settledRSS(t *testing.T) int64 {
	t.Helper()
	runtime.GC()
	runtime.GC() // the first cycle queues finalizers, the second frees what they dropped
	debug.FreeOSMemory()
	r := rss.Current()
	if r == 0 {
		t.Skip("VmRSS unavailable on this platform")
	}
	return r
}

// TestMemGraphLivesOffHeap: a mem open costs VmRSS ≈ CSRBytes, the
// in-side until the first out-side read, but almost no Go heap, matches
// the built graph, and Close hands the RSS back at once — twice without
// harm, and without a second free by the GC.
func TestMemGraphLivesOffHeap(t *testing.T) {
	path, want := regionTestFile(t)
	csr := want.CSRBytes()
	r0 := settledRSS(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	r1 := rss.Current()
	if d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); d >= 1<<20 {
		t.Fatalf("opening a %d-byte CSR grew HeapAlloc by %d bytes, want < 1 MiB", csr, d)
	}
	held := g.CSRBytes()
	if held >= csr {
		t.Fatalf("a mem open holds %d of the CSR's %d bytes before any out-side read", held, csr)
	}
	if d := r1 - r0; d < held*9/10 || d > held*3/2 {
		t.Fatalf("opening a CSR that holds %d bytes grew VmRSS by %d bytes, want ≈ CSRBytes", held, d)
	}
	g.OutDegree(0)
	if d := rss.Current() - r0; g.CSRBytes() != csr || d < csr*9/10 || d > csr*3/2 {
		t.Fatalf("after the out-side's first read CSRBytes is %d and VmRSS grew by %d bytes, want %d", g.CSRBytes(), d, csr)
	}
	requireGraphsEqual(t, want, g)
	if g.Mapped() {
		t.Fatal("mem graph reports Mapped() = true")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if d := settledRSS(t) - r0; d > csr/4 {
		t.Fatalf("VmRSS still %d bytes above the baseline after Close (CSR %d bytes)", d, csr)
	}
}

// TestMemGraphReleasedByGC: graphs that are dropped without Close give
// their regions back through the finalizer, so twenty open/drop rounds
// never hold more than a CSR or two — also when nothing but the opens
// themselves runs the GC, whose pacer never sees the regions.
func TestMemGraphReleasedByGC(t *testing.T) {
	path, want := regionTestFile(t)
	csr := want.CSRBytes()
	for _, collect := range []bool{true, false} {
		r0 := settledRSS(t)
		var peak int64
		for i := 0; i < 20; i++ {
			g, err := OpenSegmented(path, BackendMem)
			if err != nil {
				t.Fatal(err)
			}
			if adj, _ := g.InNeighbors(uint32(i)); len(adj) != want.InDegree(uint32(i)) {
				t.Fatalf("round %d: in-degree %d, want %d", i, len(adj), want.InDegree(uint32(i)))
			}
			peak = max(peak, rss.Current()-r0)
			if collect {
				runtime.GC()
			}
		}
		if peak >= 2*csr {
			t.Fatalf("runtime.GC between rounds %v: VmRSS rose by %d bytes over 20 dropped opens of a %d-byte CSR, want < 2×", collect, peak, csr)
		}
	}
}

// TestMemOpenChecksumReleasesRegion: a flipped byte in the last payload
// block read fails the open with the shared checksum error after the
// whole region was filled, and the failed open leaves nothing mapped.
func TestMemOpenChecksumReleasesRegion(t *testing.T) {
	path, want := regionTestFile(t)
	csr := want.CSRBytes()
	sec := computeLayout(want.n, want.m).sections[secInProbSum]
	corruptAt(t, path, sec.off+sec.payloadBytes()-1)
	r0 := settledRSS(t)
	for i := 0; i < 20; i++ {
		_, err := OpenSegmented(path, BackendMem)
		if se := corruption(t, err, sealed.ErrChecksum); se.Section != "inProbSum" {
			t.Fatalf("flip in inProbSum blamed %s block %d", se.Section, se.Block)
		}
	}
	if d := rss.Current() - r0; d >= csr {
		t.Fatalf("20 failed opens left VmRSS %d bytes above the baseline (CSR %d bytes)", d, csr)
	}
}

// TestMemGraphCompactMatchesBuilt: updates written into the private
// region, then a Compact that moves every array to the heap and releases
// the region, leave the graph equal to the same history on a heap-built
// graph — and it keeps mutating afterwards.
func TestMemGraphCompactMatchesBuilt(t *testing.T) {
	built := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, built, "wc"); err != nil {
		t.Fatal(err)
	}
	mem, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	var ops []EdgeUpdate
	built.Edges(func(from, to uint32, _ float32) {
		switch {
		case len(ops) < 5:
			ops = append(ops, EdgeUpdate{Op: OpRemove, From: from, To: to})
		case len(ops) < 10:
			ops = append(ops, EdgeUpdate{Op: OpReweight, From: from, To: to, Prob: 0.25})
		}
	})
	n := uint32(built.NumNodes())
	for u := uint32(0); u < 5; u++ {
		v := n - 1 - u
		if heads, _ := built.OutNeighbors(u); !slices.Contains(heads, v) {
			ops = append(ops, EdgeUpdate{Op: OpAdd, From: u, To: v, Prob: 0.5})
		}
	}
	for _, g := range []*Graph{built, mem} {
		if err := g.EnableMutation(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.ApplyUpdates(1, ops); err != nil {
			t.Fatal(err)
		}
		g.Compact()
	}
	if mem.seg.region != nil {
		t.Fatal("Compact left the mem graph's region mapped")
	}
	runtime.GC()
	runtime.GC()
	requireGraphsEqual(t, built, mem)
	if built.ContentHash() != mem.ContentHash() {
		t.Fatalf("content hash %s, built graph %s", mem.ContentHash(), built.ContentHash())
	}
	again := []EdgeUpdate{{Op: OpReweight, From: ops[5].From, To: ops[5].To, Prob: 0.75}}
	for _, g := range []*Graph{built, mem} {
		if _, _, err := g.ApplyUpdates(2, again); err != nil {
			t.Fatal(err)
		}
	}
	requireGraphsEqual(t, built, mem)
}
