package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// segTestGraph builds a heavy-tailed weighted graph the segment tests
// share: R-MAT topology (duplicates kept) plus WC weights, the setting
// the big-graph path actually serves.
func segTestGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenRMAT(RMATConfig{GenConfig: GenConfig{Nodes: 500, AvgDegree: 6, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = AssignWeights(g, WeightedCascade, 0, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// requireGraphsEqual asserts byte-level equality of every CSR array and
// the derived fields — the bit-identity contract between substrates. The
// edge probabilities are compared as expanded per edge, and the compact
// form (inP, no per-edge arrays) must agree as well.
func requireGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.n != got.n || want.m != got.m {
		t.Fatalf("counts differ: want n=%d m=%d, got n=%d m=%d", want.n, want.m, got.n, got.m)
	}
	want.loadOut() // the fields are read directly below
	got.loadOut()
	for i := range want.outStart {
		if want.outStart[i] != got.outStart[i] {
			t.Fatalf("outStart[%d]: want %d, got %d", i, want.outStart[i], got.outStart[i])
		}
	}
	for i := range want.inStart {
		if want.inStart[i] != got.inStart[i] {
			t.Fatalf("inStart[%d]: want %d, got %d", i, want.inStart[i], got.inStart[i])
		}
	}
	wantOut, wantIn := want.edgeProbArrays()
	gotOut, gotIn := got.edgeProbArrays()
	for i := range want.outAdj {
		if want.outAdj[i] != got.outAdj[i] || wantOut[i] != gotOut[i] {
			t.Fatalf("out slot %d: want (%d,%v), got (%d,%v)", i, want.outAdj[i], wantOut[i], got.outAdj[i], gotOut[i])
		}
	}
	for i := range want.inAdj {
		if want.inAdj[i] != got.inAdj[i] || wantIn[i] != gotIn[i] {
			t.Fatalf("in slot %d: want (%d,%v), got (%d,%v)", i, want.inAdj[i], wantIn[i], got.inAdj[i], gotIn[i])
		}
	}
	if (want.inProb == nil) != (got.inProb == nil) || (want.outProb == nil) != (got.outProb == nil) {
		t.Fatalf("per-edge probability arrays: want kept=%v/%v, got %v/%v", want.outProb != nil, want.inProb != nil, got.outProb != nil, got.inProb != nil)
	}
	if !slices.Equal(want.inP, got.inP) {
		t.Fatalf("inP differs: want %d values, got %d", len(want.inP), len(got.inP))
	}
	for i := range want.inProbSum {
		if want.inProbSum[i] != got.inProbSum[i] {
			t.Fatalf("inProbSum[%d]: want %v, got %v (must be bit-identical, not approximately equal)", i, want.inProbSum[i], got.inProbSum[i])
		}
	}
	if want.uniformIn != got.uniformIn {
		t.Fatalf("uniformIn: want %v, got %v", want.uniformIn, got.uniformIn)
	}
}

func TestSegmentedRoundTripBothBackends(t *testing.T) {
	g := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	info, err := VerifySegmented(path)
	if err != nil {
		t.Fatalf("fresh file fails verification: %v", err)
	}
	if info.Nodes != g.n || info.Edges != g.m || info.WeightTag != "wc" {
		t.Fatalf("SegInfo %+v does not match graph n=%d m=%d", info, g.n, g.m)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		got, err := OpenSegmented(path, backend)
		if err != nil {
			t.Fatalf("%v open: %v", backend, err)
		}
		requireGraphsEqual(t, g, got)
		if backend == BackendMmap && !got.Mapped() {
			t.Fatal("mmap-opened graph reports Mapped() = false")
		}
		if backend == BackendMem && got.Mapped() {
			t.Fatal("mem-opened graph reports Mapped() = true")
		}
		if got.WeightTag() != "wc" {
			t.Fatalf("%v WeightTag = %q, want wc", backend, got.WeightTag())
		}
		if got.CSRBytes() != g.CSRBytes() {
			t.Fatalf("%v CSRBytes = %d, heap says %d", backend, got.CSRBytes(), g.CSRBytes())
		}
		if err := got.Close(); err != nil {
			t.Fatalf("%v close: %v", backend, err)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("%v second close: %v", backend, err)
		}
	}
}

// TestSegmentedHashEquality pins the satellite requirement: the content
// hash of a heap-built graph, its mem-loaded segmented copy, and its
// mmap-loaded segmented copy are one value — and for the segmented opens
// it comes from the trailer CRCs without re-reading the payload.
func TestSegmentedHashEquality(t *testing.T) {
	g := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	want := g.ContentHash()
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		got, err := OpenSegmented(path, backend)
		if err != nil {
			t.Fatal(err)
		}
		if h := got.ContentHash(); h != want {
			t.Fatalf("%v backend hash %s != heap hash %s", backend, h, want)
		}
		got.Close()
	}
}

// TestBuildSegmentedMatchesHeapWC pins the tentpole bit-identity claim
// on the canonical path: R-MAT streamed disk-direct through the external
// sorter with WC weights equals GenRMAT + AssignWeights in memory —
// every CSR slot, weight, and float64 inProbSum bit. A tiny sort buffer
// forces multi-run external sorts so the merge path is what's tested.
func TestBuildSegmentedMatchesHeapWC(t *testing.T) {
	cfg := RMATConfig{GenConfig: GenConfig{Nodes: 700, AvgDegree: 5, Seed: 11}}
	want, err := GenRMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = AssignWeights(want, WeightedCascade, 0, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat.dsg")
	var n int
	stats, err := BuildSegmented(path, 700, func(emit func(from, to uint32, prob float32) error) error {
		return GenRMATStream(cfg, func(nodes int, _ int64) error {
			n = nodes
			return nil
		}, func(u, v uint32) error { return emit(u, v, 1) })
	}, SegmentBuildOptions{
		Weights:      WeightedCascade,
		HasWeights:   true,
		SortBufBytes: edgeRecBytes * 256, // ~256 records per run: force many runs
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 700 || stats.Edges != want.m {
		t.Fatalf("stream saw n=%d m=%d, heap built n=700 m=%d", n, stats.Edges, want.m)
	}
	if stats.Runs < 4 {
		t.Fatalf("expected a multi-run external sort, got %d runs", stats.Runs)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		got, err := OpenSegmented(path, backend)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsEqual(t, want, got)
		if h := got.ContentHash(); h != want.ContentHash() {
			t.Fatalf("%v hash %s != heap hash %s", backend, h, want.ContentHash())
		}
		got.Close()
	}
}

// TestBuildSegmentedMatchesHeapTrivalency pins the seeded-draw order:
// trivalency probabilities are drawn in source-sorted edge order on both
// paths, so the same seed lands the same value on the same edge.
func TestBuildSegmentedMatchesHeapTrivalency(t *testing.T) {
	cfg := RMATConfig{GenConfig: GenConfig{Nodes: 300, AvgDegree: 4, Seed: 3}}
	want, err := GenRMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = AssignWeights(want, Trivalency, 0, 99); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tri.dsg")
	_, err = BuildSegmented(path, 300, func(emit func(from, to uint32, prob float32) error) error {
		return GenRMATStream(cfg, func(int, int64) error { return nil },
			func(u, v uint32) error { return emit(u, v, 1) })
	}, SegmentBuildOptions{Weights: Trivalency, HasWeights: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { got.Close() })
	requireGraphsEqual(t, want, got)
}

// TestBuildSegmentedFileWeights pins the "file" mode: kept probabilities
// with duplicate edges and zero-degree tail nodes must reproduce
// Builder.Build exactly, including the raw-order in-CSR buckets.
func TestBuildSegmentedFileWeights(t *testing.T) {
	// Deliberately awkward: duplicate edges with distinct probabilities
	// (slot order inside a bucket is the only thing separating them),
	// interleaved sources (exercises sort stability), and nodes 8, 9 with
	// no edges at all (zero-degree tail).
	edges := []Edge{
		{3, 1, 0.5}, {0, 1, 0.25}, {3, 1, 0.75}, {2, 7, 1}, {0, 1, 0.25},
		{5, 2, 0.1}, {3, 2, 0.9}, {1, 0, 0.3}, {5, 2, 0.2}, {2, 1, 0.6},
	}
	b := NewBuilder(10)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.Prob); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Build()
	path := filepath.Join(t.TempDir(), "file.dsg")
	_, err := BuildSegmented(path, 10, func(emit func(from, to uint32, prob float32) error) error {
		for _, e := range edges {
			if err := emit(e.From, e.To, e.Prob); err != nil {
				return err
			}
		}
		return nil
	}, SegmentBuildOptions{SortBufBytes: edgeRecBytes * 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { got.Close() })
	requireGraphsEqual(t, want, got)
	if got.WeightTag() != "file" {
		t.Fatalf("WeightTag = %q, want file", got.WeightTag())
	}
}

// TestBuildSegmentedRejectsBadEdges mirrors Builder.AddEdge validation.
func TestBuildSegmentedRejectsBadEdges(t *testing.T) {
	dir := t.TempDir()
	for name, edge := range map[string]Edge{
		"out-of-range": {From: 0, To: 10, Prob: 1},
		"self-loop":    {From: 2, To: 2, Prob: 1},
		"bad-prob":     {From: 0, To: 1, Prob: 1.5},
	} {
		_, err := BuildSegmented(filepath.Join(dir, name+".dsg"), 5, func(emit func(from, to uint32, prob float32) error) error {
			return emit(edge.From, edge.To, edge.Prob)
		}, SegmentBuildOptions{})
		if err == nil {
			t.Fatalf("%s: BuildSegmented accepted an invalid edge", name)
		}
		if _, statErr := os.Stat(filepath.Join(dir, name+".dsg")); !os.IsNotExist(statErr) {
			t.Fatalf("%s: failed build left a file behind", name)
		}
	}
}

func TestConvertEdgeListToSegmented(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "edges.txt")
	content := "# comment\n10 20\n20 30 0.5\n10 30\n30 30\n40 10 0.125\n"
	if err := os.WriteFile(txt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := LoadEdgeListFile(txt, false)
	if err != nil {
		t.Fatal(err)
	}
	dsg := filepath.Join(dir, "edges.dsg")
	if _, err := ConvertEdgeListToSegmented(txt, dsg, false, SegmentBuildOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSegmented(dsg, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { got.Close() })
	requireGraphsEqual(t, want, got)
}

// corruptAt flips one byte of the file at off.
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// corruption asserts err is the shared *sealed.Error with the given cause.
func corruption(t *testing.T, err, cause error) *sealed.Error {
	t.Helper()
	var se *sealed.Error
	if !errors.As(err, &se) || !errors.Is(err, cause) {
		t.Fatalf("got %v, want a *sealed.Error caused by %q", err, cause)
	}
	return se
}

// TestSegmentedCorruptionMatrix mirrors the internal/store corruption
// tests: every distinct damage pattern maps to its own sealed.Error cause.
func TestSegmentedCorruptionMatrix(t *testing.T) {
	g := segTestGraph(t)
	dir := t.TempDir()
	master := filepath.Join(dir, "master.dsg")
	if err := WriteSegmentedFile(master, g, "wc"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(t *testing.T, name string) string {
		p := filepath.Join(dir, name+".dsg")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	layout := computeLayout(g.n, g.m)

	t.Run("truncated", func(t *testing.T) {
		p := fresh(t, "trunc")
		if err := os.Truncate(p, layout.fileSize/2); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegmented(p, BackendMem)
		want := corruption(t, err, sealed.ErrTruncated)
		if sizes := fmt.Sprintf("%d bytes, the header declares %d", layout.fileSize/2, layout.fileSize); want.Detail != sizes {
			t.Fatalf("truncation error says %q, want %q", want.Detail, sizes)
		}
	})

	t.Run("header-bitflip", func(t *testing.T) {
		p := fresh(t, "hdrflip")
		corruptAt(t, p, 9) // inside the node count
		_, err := OpenSegmented(p, BackendMem)
		if want := corruption(t, err, sealed.ErrChecksum); want.Section != "header" {
			t.Fatalf("header flip blamed %q, want the header", want.Section)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		p := fresh(t, "magic")
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, segHeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(hdr[0:], 0x314d4944) // "DIM1"
		// Refit the header CRC so only the magic is at fault.
		binary.LittleEndian.PutUint32(hdr[segHeaderSize-4:], checksum.Sum(hdr[:segHeaderSize-4]))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = OpenSegmented(p, BackendMem)
		corruption(t, err, sealed.ErrFormat)
	})

	t.Run("version-mismatch", func(t *testing.T) {
		p := fresh(t, "version")
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, segHeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(hdr[4:], SegFormatVersion+1)
		// Recompute the CRC: a version bump from a future writer would
		// carry a valid checksum, and must still be told apart from rot.
		binary.LittleEndian.PutUint32(hdr[segHeaderSize-4:], checksum.Sum(hdr[:segHeaderSize-4]))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = OpenSegmented(p, BackendMem)
		want := corruption(t, err, sealed.ErrVersion)
		if v := fmt.Sprintf("version %d, this build reads %d", SegFormatVersion+1, SegFormatVersion); want.Detail != v {
			t.Fatalf("version error says %q, want %q", want.Detail, v)
		}
	})

	t.Run("payload-bitflip", func(t *testing.T) {
		p := fresh(t, "payload")
		sec := layout.sections[secInAdj]
		corruptAt(t, p, sec.off+sec.payloadBytes()/2)
		_, err := OpenSegmented(p, BackendMem)
		if want := corruption(t, err, sealed.ErrChecksum); want.Section != "inAdj" || want.Block < 0 {
			t.Fatalf("payload flip blamed %s block %d, want inAdj payload block", want.Section, want.Block)
		}
		_, err = VerifySegmented(p)
		corruption(t, err, sealed.ErrChecksum)
		// The mmap backend deliberately skips payload verification; it
		// must still open (integrity is VerifySegmented's job there).
		mg, err := OpenSegmented(p, BackendMmap)
		if err != nil {
			t.Fatalf("payload flip, mmap open: %v", err)
		}
		mg.Close()
	})

	// A mem open keeps neither out-side section, but verifies both.
	t.Run("out-payload-bitflip", func(t *testing.T) {
		p := fresh(t, "outpayload")
		sec := layout.sections[secOutAdj]
		corruptAt(t, p, sec.off+sec.payloadBytes()/2)
		_, err := OpenSegmented(p, BackendMem)
		if want := corruption(t, err, sealed.ErrChecksum); want.Section != "outAdj" || want.Block < 0 {
			t.Fatalf("out-side payload flip blamed %s block %d, want outAdj payload block", want.Section, want.Block)
		}
	})

	t.Run("out-offsets-past-m", func(t *testing.T) {
		p := fresh(t, "outoffsets")
		sec := layout.sections[secOutStart]
		corruptAt(t, p, sec.off+sec.payloadBytes()-2) // outStart[n], the out-side's m
		file, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		refitTrailers(file, layout) // only the offsets are at fault
		if err := os.WriteFile(p, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendMem, BackendMmap} {
			_, err := OpenSegmented(p, backend)
			if want := corruption(t, err, sealed.ErrFormat); !strings.HasPrefix(want.Detail, "out-CSR offsets") {
				t.Fatalf("%s open of out-side offsets past m says %q", backend, want.Detail)
			}
		}
	})

	t.Run("trailer-bitflip", func(t *testing.T) {
		p := fresh(t, "trailer")
		sec := layout.sections[secOutAdj]
		corruptAt(t, p, sec.trailerOff())
		_, err := OpenSegmented(p, BackendMmap)
		if want := corruption(t, err, sealed.ErrChecksum); want.Section != "outAdj" || want.Block != -1 {
			t.Fatalf("trailer flip blamed %s block %d, want outAdj trailer (-1)", want.Section, want.Block)
		}
	})
}

func TestEnableMutationRejectsMapped(t *testing.T) {
	g := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSegmented(path, BackendMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var want *MappedGraphError
	if err := mapped.EnableMutation(); !errors.As(err, &want) {
		t.Fatalf("EnableMutation on mmap graph: got %v, want *MappedGraphError", err)
	}
	if mapped.MutationEnabled() {
		t.Fatal("rejected EnableMutation still flipped the graph mutable")
	}
	// The same file through the mem backend is an ordinary heap copy and
	// must mutate fine.
	mem, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	if err := mem.EnableMutation(); err != nil {
		t.Fatalf("EnableMutation on mem-loaded segmented graph: %v", err)
	}
	if _, _, err := mem.ApplyUpdates(1, []EdgeUpdate{{Op: OpAdd, From: 0, To: uint32(mem.NumNodes() - 1), Prob: 0.5}}); err != nil {
		t.Fatalf("ApplyUpdates on mem-loaded segmented graph: %v", err)
	}
}

func TestLoadAnySegmentedWeightReconciliation(t *testing.T) {
	g := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	// Matching tag: both backends load the stored probabilities.
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		got, err := LoadAny(path, LoadOptions{Weights: "wc", Backend: backend})
		if err != nil {
			t.Fatalf("%v matching weights: %v", backend, err)
		}
		requireGraphsEqual(t, g, got)
		got.Close()
	}
	// Mismatch on mem: reweighted heap copy.
	uni, err := LoadAny(path, LoadOptions{Weights: "uniform", UniformP: 0.1, Backend: BackendMem})
	if err != nil {
		t.Fatal(err)
	}
	if _, p := uni.OutNeighbors(0); len(p) > 0 && p[0] != 0.1 {
		t.Fatalf("uniform reweight: got prob %v, want 0.1", p[0])
	}
	// Mismatch on mmap: refused with the typed error.
	var want *MappedGraphError
	if _, err := LoadAny(path, LoadOptions{Weights: "uniform", UniformP: 0.1, Backend: BackendMmap}); !errors.As(err, &want) {
		t.Fatalf("mmap weight mismatch: got %v, want *MappedGraphError", err)
	}
	// mmap over a text edge list: plain refusal.
	if _, err := LoadAny(filepath.Join(t.TempDir(), "nope.txt"), LoadOptions{Backend: BackendMmap}); err == nil {
		t.Fatal("LoadAny accepted mmap backend for a .txt path")
	}
}

func TestStatSegmented(t *testing.T) {
	g := segTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "wc"); err != nil {
		t.Fatal(err)
	}
	info, err := StatSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.n || info.Edges != g.m || info.UniformIn != g.uniformIn {
		t.Fatalf("StatSegmented %+v disagrees with graph (n=%d m=%d uniform=%v)", info, g.n, g.m, g.uniformIn)
	}
	if info.CSRBytes != computeLayout(g.n, g.m).CSRBytes() {
		t.Fatalf("CSRBytes %d, want %d", info.CSRBytes, computeLayout(g.n, g.m).CSRBytes())
	}
}
