package graph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/sealed"
)

// outSideBytes is what a compact graph's out-CSR holds: offsets and
// adjacency.
func outSideBytes(g *Graph) int64 { return 8*(g.n+1) + 4*g.m }

// openMemPending opens path with the mem backend and checks that the
// out-side is not held yet: CSRBytes and the graph's mapping cover the
// in-side alone. It returns the graph, closed when the test ends, and
// the bytes its mapping holds.
func openMemPending(t *testing.T, path string, full int64) (*Graph, int64) {
	t.Helper()
	g, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	opened := int64(cap(g.seg.region))
	if g.seg.out != nil {
		t.Fatal("a mem open mapped the out-side")
	}
	held := g.CSRBytes()
	if held != full-outSideBytes(g) {
		t.Fatalf("a mem open holds %d CSR bytes, want %d without the out-side", held, full-outSideBytes(g))
	}
	// Four in-side arrays, each rounded up to a page.
	if slack := int64(4 * os.Getpagesize()); opened < held || opened > held+slack {
		t.Fatalf("a mem open mapped %d bytes for %d held", opened, held)
	}
	return g, opened
}

// TestMemOutSideLoadedOnFirstUse: a mem open maps the in-side only, and
// each out-side reader, the first to run, maps the out-side, after which
// every accessor agrees with the mmap backend and the built graph.
func TestMemOutSideLoadedOnFirstUse(t *testing.T) {
	built := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, built, "wc"); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenSegmented(path, BackendMmap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	full := built.CSRBytes()
	readers := map[string]func(g *Graph) error{
		"OutAdj":       func(g *Graph) error { g.OutAdj(1); return nil },
		"OutNeighbors": func(g *Graph) error { g.OutNeighbors(2); return nil },
		"OutDegree":    func(g *Graph) error { g.OutDegree(3); return nil },
		"Edges":        func(g *Graph) error { g.Edges(func(uint32, uint32, float32) {}); return nil },
		"ComputeStats": func(g *Graph) error { ComputeStats(g); return nil },
		"DegreeHistogramLogBins": func(g *Graph) error {
			g.DegreeHistogramLogBins()
			return nil
		},
		"WriteSegmentedFile": func(g *Graph) error {
			return WriteSegmentedFile(filepath.Join(t.TempDir(), "again.dsg"), g, "wc")
		},
		"EnableMutation": func(g *Graph) error { return g.EnableMutation() },
	}
	for name, read := range readers {
		base := offheap.Mapped()
		g, opened := openMemPending(t, path, full)
		if err := read(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded := int64(cap(g.seg.out))
		if slack := int64(2 * os.Getpagesize()); loaded < outSideBytes(g) || loaded > outSideBytes(g)+slack {
			t.Fatalf("%s mapped %d bytes for a %d-byte out-side (the open mapped %d)", name, loaded, outSideBytes(g), opened)
		}
		if name != "EnableMutation" && g.CSRBytes() != full {
			t.Fatalf("%s: CSRBytes %d after the out-side's first read, want %d", name, g.CSRBytes(), full)
		}
		requireSameAccessors(t, name+" then mem", built, g)
		requireSameAccessors(t, name+" then mmap", mm, g)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if got := offheap.Mapped(); got != base {
			t.Fatalf("%s: %d bytes still mapped after Close", name, got-base)
		}
	}
	// Close before any out-side read releases the held descriptor too.
	g, _ := openMemPending(t, path, full)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if g.seg.file != nil {
		t.Fatal("Close left the out-side's descriptor open")
	}
}

// TestMemOutSideConcurrentFirstRead: many readers of a fresh mem graph
// make their first out-side read at once; the out-side is loaded once,
// and they all read the built graph's bytes. Under -race this checks
// that the first load publishes the arrays to every reader.
func TestMemOutSideConcurrentFirstRead(t *testing.T) {
	path, built := regionTestFile(t)
	g, _ := openMemPending(t, path, built.CSRBytes())
	base := offheap.Mapped()
	const readers = 8
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := uint32(r); int(u) < built.NumNodes(); u += readers {
				heads, probs := g.OutNeighbors(u)
				want, wantProbs := built.OutNeighbors(u)
				if g.OutDegree(u) != len(want) || !slices.Equal(heads, want) || !slices.Equal(probs, wantProbs) {
					errs[r] = fmt.Errorf("reader %d: node %d out-neighbors differ", r, u)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if loaded := offheap.Mapped() - base; loaded != int64(cap(g.seg.out)) || loaded < outSideBytes(g) || loaded > outSideBytes(g)+int64(2*os.Getpagesize()) {
		t.Fatalf("%d concurrent first reads mapped %d bytes for a %d-byte out-side", readers, loaded, outSideBytes(g))
	}
	requireSameAccessors(t, "concurrent first read", built, g)
}

// TestMemOutSideRewrittenInPlace: the out-side is copied from the file
// the graph was opened from, checked against the CRCs read at open, so
// a file rewritten in place in between makes the first out-side read
// panic with the checksum error instead of serving the new bytes.
func TestMemOutSideRewrittenInPlace(t *testing.T) {
	built := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, built, "wc"); err != nil {
		t.Fatal(err)
	}
	g, _ := openMemPending(t, path, built.CSRBytes())
	sec := computeLayout(built.n, built.m).sections[secOutAdj]
	corruptAt(t, path, sec.off+sec.payloadBytes()/2)
	defer func() {
		err, _ := recover().(error)
		var se *sealed.Error
		if !errors.As(err, &se) || !errors.Is(err, sealed.ErrChecksum) || se.Section != "outAdj" {
			t.Fatalf("first out-side read of a rewritten file panicked with %v, want the outAdj checksum error", err)
		}
	}()
	g.OutAdj(0)
	t.Fatal("the first out-side read of a rewritten file returned")
}
