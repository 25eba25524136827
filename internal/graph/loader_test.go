package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimm/internal/sealed"
)

func TestLoadEdgeListBasic(t *testing.T) {
	src := `# comment line
% another comment
10 20
20 30 0.5

30 10
10 10
`
	g, err := LoadEdgeList(strings.NewReader(src), false)
	if err != nil {
		t.Fatal(err)
	}
	// ids remapped: 10->0, 20->1, 30->2. Self-loop 10 10 dropped.
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
	adj, prob := g.OutNeighbors(1)
	if len(adj) != 1 || adj[0] != 2 || prob[0] != 0.5 {
		t.Fatalf("edge 20->30 not loaded correctly: %v %v", adj, prob)
	}
}

func TestLoadEdgeListUndirected(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("undirected load gave %d edges, want 4", g.NumEdges())
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Fatal("undirected symmetry broken")
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{
		"justone\n",
		"a b\n",
		"1 b\n",
		"1 2 notaprob\n",
		"",
		"# comments only\n% and more\n",
		"3 3\n",
	}
	for _, src := range cases {
		if _, err := LoadEdgeList(strings.NewReader(src), false); err == nil {
			t.Fatalf("input %q accepted", src)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := GenPreferential(GenConfig{Nodes: 200, AvgDegree: 5, Seed: 42, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := AssignWeights(g, WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, wc); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != wc.NumNodes() || back.NumEdges() != wc.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), wc.NumNodes(), wc.NumEdges())
	}
}

// The three TestBinary* tests run the one binary graph format, .dsg,
// through LoadAny on both backends.

func TestBinaryRoundTrip(t *testing.T) {
	g, err := GenPreferential(GenConfig{Nodes: 500, AvgDegree: 8, Seed: 5, UniformAttach: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := AssignWeights(g, WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, wc, "wc"); err != nil {
		t.Fatal(err)
	}
	var orig []Edge
	wc.Edges(func(u, v uint32, p float32) { orig = append(orig, Edge{u, v, p}) })
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		back, err := LoadAny(path, LoadOptions{Weights: "wc", Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { back.Close() })
		if back.NumNodes() != wc.NumNodes() || back.NumEdges() != wc.NumEdges() {
			t.Fatalf("%v: round trip changed graph size", backend)
		}
		var rt []Edge
		back.Edges(func(u, v uint32, p float32) { rt = append(rt, Edge{u, v, p}) })
		for i := range orig {
			if orig[i] != rt[i] {
				t.Fatalf("%v: edge %d differs after round trip", backend, i)
			}
		}
		if back.UniformIn() != wc.UniformIn() {
			t.Fatalf("%v: UniformIn not preserved", backend)
		}
		for v := uint32(0); v < uint32(wc.NumNodes()); v++ {
			if back.InProbSum(v) != wc.InProbSum(v) {
				t.Fatalf("%v: InProbSum(%d) differs", backend, v)
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zeros.dsg")
	if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		var se *sealed.Error
		if _, err := LoadAny(path, LoadOptions{Backend: backend}); !errors.As(err, &se) {
			t.Fatalf("%v: zero bytes loaded as a graph or failed untyped: %v", backend, err)
		}
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.dsg")
	g, _ := GenErdosRenyi(GenConfig{Nodes: 100, AvgDegree: 4, Seed: 9})
	if err := WriteSegmentedFile(path, g, "file"); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		back, err := LoadAny(path, LoadOptions{Weights: "file", Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if back.NumEdges() != g.NumEdges() || back.ContentHash() != g.ContentHash() {
			t.Fatalf("%v: file round trip changed the graph", backend)
		}
		back.Close()
	}
	if _, err := LoadAny(filepath.Join(dir, "missing.dsg"), LoadOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadAnyRefusesBin: a legacy DIM1 .bin path gets an error that
// names gengraph on every backend, and is never parsed as a text edge
// list. The file here is the 24-byte header that claims m = 2^62.
func TestLoadAnyRefusesBin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], 0x44494d31) // "DIM1"
	binary.LittleEndian.PutUint64(hdr[8:], 4)
	binary.LittleEndian.PutUint64(hdr[16:], 1<<62)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		for _, weights := range []string{"file", "wc"} {
			g, err := LoadAny(path, LoadOptions{Weights: weights, Backend: backend})
			if err == nil {
				g.Close()
				t.Fatalf("%v/%s: LoadAny accepted a .bin path", backend, weights)
			}
			if !strings.Contains(err.Error(), "gengraph") {
				t.Fatalf("%v/%s: error %q does not name gengraph", backend, weights, err)
			}
		}
	}
}

// FuzzLoadEdgeList feeds arbitrary text to both edge-list readers: the
// in-memory LoadEdgeList (then AssignWeights(WC)) and the streaming
// ConvertEdgeListToSegmented (WC, then a mem open). Neither may panic,
// and they must either both refuse the input or agree on ContentHash.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add([]byte("# comment\n10 20\n20 30 0.5\n10 30\n30 30\n40 10 0.125\n"), false)
	f.Add([]byte("0 1\n1 2\n2 0\n0 1\n"), true)
	f.Add([]byte(""), false)
	f.Add([]byte("# comments only\n% and more\n"), false)
	f.Add([]byte("7 7\n"), false)
	f.Add([]byte("1 2 notaprob\n"), false)
	f.Add([]byte("-5 9223372036854775807 NaN\n"), true)
	dir := f.TempDir() // each fuzz worker process runs its inputs one at a time
	txt, dsg := filepath.Join(dir, "in.txt"), filepath.Join(dir, "in.dsg")
	f.Fuzz(func(t *testing.T, src []byte, undirected bool) {
		if len(src) > 4<<10 {
			return
		}
		var memHash string
		mem, memErr := LoadEdgeList(bytes.NewReader(src), undirected)
		if memErr == nil {
			wc, err := AssignWeights(mem, WeightedCascade, 0, 0)
			if err != nil {
				t.Fatalf("AssignWeights on a loaded edge list: %v", err)
			}
			memHash = wc.ContentHash()
		}
		if err := os.WriteFile(txt, src, 0o644); err != nil {
			t.Fatal(err)
		}
		_, convErr := ConvertEdgeListToSegmented(txt, dsg, undirected, SegmentBuildOptions{
			Weights: WeightedCascade, HasWeights: true, SortBufBytes: 1, // the smallest buffer: multi-run sorts
		})
		if (memErr == nil) != (convErr == nil) {
			t.Fatalf("LoadEdgeList error %v, converter error %v", memErr, convErr)
		}
		if convErr != nil {
			return
		}
		seg, err := OpenSegmented(dsg, BackendMem)
		if err != nil {
			t.Fatalf("converted file does not open: %v", err)
		}
		defer seg.Close()
		if h := seg.ContentHash(); h != memHash {
			t.Fatalf("converted hash %s, in-memory hash %s", h, memHash)
		}
	})
}
