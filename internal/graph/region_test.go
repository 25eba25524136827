package graph

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/offheaptest"
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

// settledRSS returns freed Go heap to the OS before reading a resident
// size with read; it skips the test off procfs.
func settledRSS(t *testing.T, read func() int64) int64 {
	t.Helper()
	debug.FreeOSMemory()
	r := read()
	if r == 0 {
		t.Skip("VmRSS unavailable on this platform")
	}
	return r
}

// The two resident-size round trips below allow 0.9–1.25× the bytes
// made resident and 1/4 of them left over after Close. Over 20 runs
// each, with and without -race, and 3 runs of CI's race step (ten
// packages at once), growth read 1.00–1.05× and the size after Close
// was below the baseline. The mem backend's CSR is anonymous memory, so
// its test reads RssAnon: file pages the kernel reclaims in between
// (one full-suite run read VmRSS grow by 0.735× the CSR) stay out of
// it. The mmap backend's CSR is file pages, so its test reads VmRSS.

// TestMemGraphLivesOffHeap: a mem open costs RssAnon ≈ CSRBytes, the
// in-side until the first out-side read, but almost no Go heap, matches
// the built graph, and Close hands the RSS back at once — twice without
// harm.
func TestMemGraphLivesOffHeap(t *testing.T) {
	path, want := regionTestFile(t)
	csr := want.CSRBytes()
	r0 := settledRSS(t, rss.Anon)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	t.Cleanup(func() { g.Close() })
	r1 := rss.Anon()
	if d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); d >= 1<<20 {
		t.Fatalf("opening a %d-byte CSR grew HeapAlloc by %d bytes, want < 1 MiB", csr, d)
	}
	held := g.CSRBytes()
	if held >= csr {
		t.Fatalf("a mem open holds %d of the CSR's %d bytes before any out-side read", held, csr)
	}
	if d := r1 - r0; d < held*9/10 || d > held*5/4 {
		t.Fatalf("opening a CSR that holds %d bytes grew RssAnon by %d bytes, want ≈ CSRBytes", held, d)
	}
	g.OutDegree(0)
	if d := rss.Anon() - r0; g.CSRBytes() != csr || d < csr*9/10 || d > csr*5/4 {
		t.Fatalf("after the out-side's first read CSRBytes is %d and RssAnon grew by %d bytes, want %d", g.CSRBytes(), d, csr)
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
	if d := settledRSS(t, rss.Anon) - r0; d > csr/4 {
		t.Fatalf("RssAnon still %d bytes above the baseline after Close (CSR %d bytes)", d, csr)
	}
}

// TestMmapGraphVmRSSRoundTrip: reading every page of a mapped graph
// makes the file resident in VmRSS, and Close hands it back at once.
func TestMmapGraphVmRSSRoundTrip(t *testing.T) {
	path, want := regionTestFile(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	r0 := settledRSS(t, rss.Current)
	g, err := OpenSegmented(path, BackendMmap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	var sum byte
	for off := 0; off < len(g.seg.region); off += os.Getpagesize() {
		sum += g.seg.region[off]
	}
	if d := rss.Current() - r0; d < st.Size()*9/10 || d > st.Size()*5/4 {
		t.Fatalf("reading a %d-byte mapped file grew VmRSS by %d bytes (page sum %d)", st.Size(), d, sum)
	}
	requireGraphsEqual(t, want, g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if d := settledRSS(t, rss.Current) - r0; d > st.Size()/4 {
		t.Fatalf("VmRSS still %d bytes above the baseline after Close (file %d bytes)", d, st.Size())
	}
}

// TestDroppedGraphLeaks: a graph dropped without Close is a leak. A
// finalizer frees its mappings, a mapped file included, and counts
// their bytes in offheap.Leaked.
func TestDroppedGraphLeaks(t *testing.T) {
	path, _ := regionTestFile(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		base, leaked := offheap.Mapped(), offheap.Leaked()
		want := func() int64 {
			g, err := OpenSegmented(path, backend)
			if err != nil {
				t.Fatal(err)
			}
			if g.Mapped() {
				return st.Size() + offheap.Mapped() - base
			}
			return offheap.Mapped() - base
		}()
		offheaptest.ExpectLeak(want)
		offheaptest.AwaitFinalizers()
		if got := offheap.Mapped(); got != base {
			t.Fatalf("%v: %d bytes still mapped after the graph became garbage", backend, got-base)
		}
		if got := offheap.Leaked() - leaked; got != want {
			t.Fatalf("%v: Leaked grew by %d bytes for a dropped graph holding %d", backend, got, want)
		}
	}
}

// TestMemOpenChecksumReleasesRegion: a flipped byte in the last payload
// block read fails the open with the shared checksum error after the
// whole region was filled, and the failed open leaves nothing mapped.
func TestMemOpenChecksumReleasesRegion(t *testing.T) {
	path, want := regionTestFile(t)
	sec := computeLayout(want.n, want.m).sections[secInProbSum]
	corruptAt(t, path, sec.off+sec.payloadBytes()-1)
	base := offheap.Mapped()
	_, err := OpenSegmented(path, BackendMem)
	if se := corruption(t, err, sealed.ErrChecksum); se.Section != "inProbSum" {
		t.Fatalf("flip in inProbSum blamed %s block %d", se.Section, se.Block)
	}
	if got := offheap.Mapped(); got != base {
		t.Fatalf("a failed open left %d bytes mapped", got-base)
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
