package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/offheap"
	"dimm/internal/sealed"
)

// compactCSRBytes is what a compact graph's arrays hold: both offset
// arrays, both adjacency arrays, inProbSum and inP.
func compactCSRBytes(n, m int64) int64 { return 8*(2*(n+1)+n) + 4*(2*m+n) }

// isCompact reports the uniform-in storage invariant: inP and no
// per-edge probability arrays.
func isCompact(g *Graph) bool {
	return g.inP != nil && g.outProb == nil && g.inProb == nil
}

// TestCompactGraphInvariant: every constructor gives a uniform-in graph
// one probability per node and no per-edge arrays, and keeps per-edge
// arrays (and no inP) on any other graph; CSRBytes reports what each
// holds, while the file's SegInfo keeps reporting its whole payload.
func TestCompactGraphInvariant(t *testing.T) {
	graphs := goldenGraphs(t)
	dir := t.TempDir()
	for name, g := range graphs {
		wantCompact := name == "wc"
		dsg := filepath.Join(dir, name+".dsg")
		if err := WriteSegmentedFile(dsg, g, name); err != nil {
			t.Fatal(err)
		}
		via := map[string]*Graph{"built": g}
		for _, backend := range []Backend{BackendMem, BackendMmap} {
			sg, err := OpenSegmented(dsg, backend)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Close()
			via[backend.String()] = sg
		}
		for how, h := range via {
			if isCompact(h) != wantCompact || (h.inP != nil) != wantCompact {
				t.Errorf("%s via %s: compact %v (inP %v, outProb %v, inProb %v), want %v",
					name, how, isCompact(h), h.inP != nil, h.outProb != nil, h.inProb != nil, wantCompact)
			}
			want := compactCSRBytes(h.n, h.m)
			if !wantCompact {
				want = computeLayout(h.n, h.m).CSRBytes()
			}
			if how == BackendMem.String() {
				// The out-side is held from its first read on.
				outSide := 8*(h.n+1) + 4*h.m
				if !wantCompact {
					outSide += 4 * h.m
				}
				if got := h.CSRBytes(); got != want-outSide {
					t.Errorf("%s via %s before an out-side read: CSRBytes %d, want %d", name, how, got, want-outSide)
				}
				h.OutDegree(0)
			}
			if got := h.CSRBytes(); got != want {
				t.Errorf("%s via %s: CSRBytes %d, want %d", name, how, got, want)
			}
		}
		info, err := StatSegmented(dsg)
		if err != nil {
			t.Fatal(err)
		}
		if info.CSRBytes != computeLayout(g.n, g.m).CSRBytes() {
			t.Errorf("%s: SegInfo.CSRBytes %d, want the file's payload %d", name, info.CSRBytes, computeLayout(g.n, g.m).CSRBytes())
		}
	}
	// Reweighting a per-edge graph to weighted cascade compacts it.
	wc, err := AssignWeights(graphs["trivalency"], WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !isCompact(wc) {
		t.Fatal("AssignWeights(WeightedCascade) kept per-edge arrays")
	}
}

// overwriteProbPayloads writes junk over the payloads of both probability
// sections of a .dsg file, leaving every trailer intact.
func overwriteProbPayloads(t *testing.T, path string, l segLayout) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, kind := range []int{secOutProb, secInProb} {
		s := l.sections[kind]
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xab}, int(s.payloadBytes())), s.off); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameAccessors compares two graphs through every public
// accessor a kernel or writer uses.
func requireSameAccessors(t *testing.T, what string, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() || want.UniformIn() != got.UniformIn() {
		t.Fatalf("%s: shape n=%d m=%d uniform=%v, want n=%d m=%d uniform=%v", what,
			got.NumNodes(), got.NumEdges(), got.UniformIn(), want.NumNodes(), want.NumEdges(), want.UniformIn())
	}
	for v := uint32(0); int(v) < want.NumNodes(); v++ {
		if !slices.Equal(want.InAdj(v), got.InAdj(v)) || !slices.Equal(want.OutAdj(v), got.OutAdj(v)) {
			t.Fatalf("%s: node %d adjacency differs", what, v)
		}
		if want.UniformIn() && math.Float32bits(want.InP(v)) != math.Float32bits(got.InP(v)) {
			t.Fatalf("%s: InP(%d) = %v, want %v", what, v, got.InP(v), want.InP(v))
		}
		wa, wp := want.InNeighbors(v)
		ga, gp := got.InNeighbors(v)
		if !slices.Equal(wa, ga) || !slices.Equal(wp, gp) {
			t.Fatalf("%s: InNeighbors(%d) = %v %v, want %v %v", what, v, ga, gp, wa, wp)
		}
		wa, wp = want.OutNeighbors(v)
		ga, gp = got.OutNeighbors(v)
		if !slices.Equal(wa, ga) || !slices.Equal(wp, gp) {
			t.Fatalf("%s: OutNeighbors(%d) = %v %v, want %v %v", what, v, ga, gp, wa, wp)
		}
		if math.Float64bits(want.InProbSum(v)) != math.Float64bits(got.InProbSum(v)) {
			t.Fatalf("%s: InProbSum(%d) = %v, want %v", what, v, got.InProbSum(v), want.InProbSum(v))
		}
	}
	if edgesDigest(want) != edgesDigest(got) {
		t.Fatalf("%s: Edges streams differ", what)
	}
	if want.BaseHash() != got.BaseHash() {
		t.Fatalf("%s: BaseHash %s, want %s", what, got.BaseHash(), want.BaseHash())
	}
}

// TestCompactBackendsAgree: mem and mmap opens of a uniform-in file read
// the built graph back through every accessor — and so does an mmap open
// of a copy whose probability payloads were overwritten (trailers
// intact), which shows the mmap backend never reads them: it derives
// inP from inProbSum and the in-degrees.
func TestCompactBackendsAgree(t *testing.T) {
	for name, g := range goldenGraphs(t) {
		dir := t.TempDir()
		path := filepath.Join(dir, "g.dsg")
		if err := WriteSegmentedFile(path, g, name); err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendMem, BackendMmap} {
			sg, err := OpenSegmented(path, backend)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAccessors(t, name+" "+backend.String(), g, sg)
			sg.Close()
		}
		if name != "wc" {
			continue
		}
		junk := filepath.Join(dir, "junk.dsg")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(junk, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		overwriteProbPayloads(t, junk, computeLayout(g.n, g.m))
		if _, err := OpenSegmented(junk, BackendMem); !errors.Is(err, sealed.ErrChecksum) {
			t.Fatalf("mem open of overwritten probability payloads: %v, want a checksum error", err)
		}
		sg, err := OpenSegmented(junk, BackendMmap)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAccessors(t, "mmap over junk probabilities", g, sg)
		sg.Close()
	}
}

// refitTrailers recomputes every block CRC and trailer self-CRC of a
// .dsg file image, so payload edits pass the checksums.
func refitTrailers(raw []byte, l segLayout) {
	for _, s := range l.sections {
		payload := raw[s.off:s.trailerOff()]
		trailer := raw[s.trailerOff() : s.trailerOff()+s.trailerBytes()]
		for i := int64(0); i < s.nBlocks(); i++ {
			block := payload[i*SegBlockSize : min((i+1)*SegBlockSize, int64(len(payload)))]
			binary.LittleEndian.PutUint32(trailer[i*4:], checksum.Sum(block))
		}
		binary.LittleEndian.PutUint32(trailer[len(trailer)-4:], checksum.Sum(trailer[:len(trailer)-4]))
	}
}

// setUniformFlag writes flag into the header's uniform-in byte and
// reseals the header.
func setUniformFlag(t *testing.T, path string, flag byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[28] = flag
	binary.LittleEndian.PutUint32(raw[segHeaderSize-4:], checksum.Sum(raw[:segHeaderSize-4]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUniformFlagIsChecked: the header's uniform-in flag is not taken on
// faith. A flag set over unequal in-probabilities, or over one slot
// changed behind refitted CRCs, is refused with ErrFormat by the mem
// backend and by VerifySegmented; the mmap backend, which reads no
// probability section, skips the check as it skips the CRCs. A flag byte
// other than 0 or 1 is an ErrFormat on every path.
func TestUniformFlagIsChecked(t *testing.T) {
	graphs := goldenGraphs(t)
	dir := t.TempDir()
	write := func(name string, g *Graph) string {
		path := filepath.Join(dir, name+".dsg")
		if err := WriteSegmentedFile(path, g, "file"); err != nil {
			t.Fatal(err)
		}
		return path
	}
	refuses := func(what, path string) {
		t.Helper()
		if _, err := OpenSegmented(path, BackendMem); !errors.Is(err, sealed.ErrFormat) {
			t.Fatalf("%s: mem open gave %v, want ErrFormat", what, err)
		}
		if _, err := VerifySegmented(path); !errors.Is(err, sealed.ErrFormat) {
			t.Fatalf("%s: VerifySegmented gave %v, want ErrFormat", what, err)
		}
		g, err := OpenSegmented(path, BackendMmap)
		if err != nil {
			t.Fatalf("%s: mmap open gave %v; it does not check the flag", what, err)
		}
		g.Close()
	}

	lying := write("lying", graphs["trivalency"])
	setUniformFlag(t, lying, 1)
	refuses("flag over trivalency weights", lying)

	wc := graphs["wc"]
	slot := write("slot", wc)
	l := computeLayout(wc.n, wc.m)
	var hub uint32 // a node with at least two in-edges, so one can differ
	for wc.InDegree(hub) < 2 {
		hub++
	}
	raw, err := os.ReadFile(slot)
	if err != nil {
		t.Fatal(err)
	}
	raw[l.sections[secInProb].off+4*(wc.inStart[hub+1]-1)] ^= 0xff // the hub's last in-slot
	refitTrailers(raw, l)
	if err := os.WriteFile(slot, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	refuses("one in-probability changed behind refitted CRCs", slot)

	for _, flag := range []byte{2, 0xff} {
		bad := write("flag", wc)
		setUniformFlag(t, bad, flag)
		for _, backend := range []Backend{BackendMem, BackendMmap} {
			if _, err := OpenSegmented(bad, backend); !errors.Is(err, sealed.ErrFormat) {
				t.Fatalf("flag byte %d: %s open gave %v, want ErrFormat", flag, backend, err)
			}
		}
		if _, err := StatSegmented(bad); !errors.Is(err, sealed.ErrFormat) {
			t.Fatalf("flag byte %d: StatSegmented gave %v, want ErrFormat", flag, err)
		}
	}
}

// TestEnableMutationSmallEdgeProbsOnHeap: per-edge arrays below
// offheap.MinBytes are made on the Go heap, as small RR arrays are: a
// mutable test graph of a few edges maps nothing.
func TestEnableMutationSmallEdgeProbsOnHeap(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 0}} {
		if err := b.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if !g.UniformIn() || g.inProb != nil {
		t.Fatal("the built graph is not compact")
	}
	base := offheap.Mapped()
	if err := g.EnableMutation(); err != nil {
		t.Fatal(err)
	}
	if g.edgeProbs != nil || offheap.Mapped() != base {
		t.Fatalf("EnableMutation mapped %d bytes for %d edges", offheap.Mapped()-base, g.NumEdges())
	}
	for u := uint32(0); u < 3; u++ {
		if _, p := g.OutNeighbors(u); len(p) != 1 || p[0] != 0.5 {
			t.Fatalf("node %d's out-probabilities read %v, want [0.5]", u, p)
		}
	}
}

// TestEnableMutationMaterializesEdgeProbs: on a compact graph
// EnableMutation fills the per-edge arrays off the Go heap from inP, so
// the graph's bytes grow by 8 per edge and the accessors are unchanged;
// updates then act on single edges, and Close hands the mapping back.
func TestEnableMutationMaterializesEdgeProbs(t *testing.T) {
	path, built := regionTestFile(t)
	base := offheap.Mapped()
	g, err := OpenSegmented(path, BackendMem)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	g.OutDegree(0) // EnableMutation would load the out-side too: count only the per-edge arrays
	before := g.CSRBytes()
	if err := g.EnableMutation(); err != nil {
		t.Fatal(err)
	}
	if got := int64(cap(g.edgeProbs.Bytes())); got < 8*g.m {
		t.Fatalf("EnableMutation mapped %d bytes, want ≥ %d for the per-edge arrays", got, 8*g.m)
	}
	if got := g.CSRBytes() - before; got != 8*g.m {
		t.Fatalf("CSRBytes grew by %d, want %d", got, 8*g.m)
	}
	if g.outProb == nil || g.inProb == nil || !g.UniformIn() {
		t.Fatal("EnableMutation did not materialize the per-edge arrays")
	}
	requireSameAccessors(t, "materialized", built, g)
	var edge EdgeUpdate
	g.Edges(func(from, to uint32, _ float32) { edge = EdgeUpdate{Op: OpReweight, From: from, To: to, Prob: 0.5} })
	if _, _, err := g.ApplyUpdates(1, []EdgeUpdate{edge}); err != nil {
		t.Fatal(err)
	}
	if p, ok := firstLiveIn(g, edge.From, edge.To); !ok || p != 0.5 {
		t.Fatalf("reweighted edge reads %v (live %v), want 0.5", p, ok)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if d := offheap.Mapped() - base; d != 0 {
		t.Fatalf("Close left %d bytes mapped", d)
	}
}

// firstLiveIn returns the probability of the first live <u,v> base slot.
func firstLiveIn(g *Graph, u, v uint32) (float32, bool) {
	adj, probs := g.InNeighbors(v)
	for i, w := range adj {
		if w == u && probs[i] > 0 {
			return probs[i], true
		}
	}
	return 0, false
}

// BenchmarkOpenSegmented times a mem-backend open of a 2¹⁸-node
// weighted-cascade R-MAT graph of average degree 16 (the repository
// benchmark's graph shape, written disk-direct as gengraph does): read
// and CRC-check every block, hold the in-probabilities to the header's
// flag, keep the compact CSR. It reports the bytes the open leaves
// mapped off the Go heap.
func BenchmarkOpenSegmented(b *testing.B) {
	const n = 1 << 18
	path := filepath.Join(b.TempDir(), "open.dsg")
	_, err := BuildSegmented(path, n, func(emit func(from, to uint32, prob float32) error) error {
		return GenRMATStream(RMATConfig{GenConfig: GenConfig{Nodes: n, AvgDegree: 16, Seed: 7}},
			func(int, int64) error { return nil },
			func(u, v uint32) error { return emit(u, v, 1) })
	}, SegmentBuildOptions{Weights: WeightedCascade, HasWeights: true})
	if err != nil {
		b.Fatal(err)
	}
	base := offheap.Mapped()
	var mapped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := OpenSegmented(path, BackendMem)
		if err != nil {
			b.Fatal(err)
		}
		mapped = offheap.Mapped() - base
		sg.Close()
	}
	b.ReportMetric(float64(mapped), "mapped-B")
}
