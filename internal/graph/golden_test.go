package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenGraphs are the two weight settings the file goldens pin: a
// weighted-cascade graph (uniform in-probabilities) with one node of
// in-degree 0, and a trivalency graph (per-edge probabilities).
func goldenGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	base, err := GenRMAT(RMATConfig{GenConfig: GenConfig{Nodes: 300, AvgDegree: 5, Seed: 41}})
	if err != nil {
		t.Fatal(err)
	}
	// One extra node with out-edges only, so the WC graph has a node
	// whose in-probability is never stored.
	n := base.NumNodes()
	b := NewBuilder(n + 1)
	base.Edges(func(from, to uint32, p float32) {
		if err == nil {
			err = b.AddEdge(from, to, p)
		}
	})
	for _, to := range []uint32{0, 1, 2, 17} {
		if err == nil {
			err = b.AddEdge(uint32(n), to, 1)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	topo := b.Build()
	if topo.InDegree(uint32(n)) != 0 {
		t.Fatalf("node %d has in-degree %d, want 0", n, topo.InDegree(uint32(n)))
	}
	out := map[string]*Graph{}
	for name, model := range map[string]WeightModel{"wc": WeightedCascade, "trivalency": Trivalency} {
		g, err := AssignWeights(topo, model, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	if !out["wc"].UniformIn() || out["trivalency"].UniformIn() {
		t.Fatal("golden graphs lost their weight shapes")
	}
	return out
}

// edgesDigest is the SHA-256 of the Edges stream as (from, to, bits)
// little-endian triples.
func edgesDigest(g *Graph) string {
	h := sha256.New()
	var rec [12]byte
	g.Edges(func(from, to uint32, p float32) {
		binary.LittleEndian.PutUint32(rec[0:], from)
		binary.LittleEndian.PutUint32(rec[4:], to)
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(p))
		h.Write(rec[:])
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

func bytesDigest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestGraphFilesGolden pins what a graph writes and how it fingerprints:
// the .dsg file bytes, BaseHash and the Edges stream, for the in-memory
// graph and for the same graph read back from the file by every backend,
// which must also write the same .dsg again. A change to how the CSR
// stores probabilities must leave all of them bit-identical.
func TestGraphFilesGolden(t *testing.T) {
	golden := map[string][3]string{ // dsg, BaseHash, Edges
		"wc": {
			"5c810f213fa586ccd69231d032330440f8a92ef40b3c8778f3a3c485984b1863",
			"sha256:a2948c10ff7d53b9764ac2919f6797803606e3ce5fe55c5af1a71d356a7ec419",
			"a3bd95a3ba783379eac804422312c3716cc3e64088fd4a515d114ce9481b12cb",
		},
		"trivalency": {
			"55aec6f52a9e56501df8166626a7c548d7cb156cb8f5c1f26eb8b748e0d0532f",
			"sha256:4723e829e91be9f3cc174598597e66487d2b09ea924d689b3295dc0d199222df",
			"81b98b44dfe5b302dd56256f30aebf796fe8fd813982947e3db56a89b1eb26f5",
		},
	}
	dir := t.TempDir()
	for name, g := range goldenGraphs(t) {
		want := golden[name]
		dsgPath := filepath.Join(dir, name+".dsg")
		if err := WriteSegmentedFile(dsgPath, g, name); err != nil {
			t.Fatal(err)
		}
		dsg, err := os.ReadFile(dsgPath)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]string{bytesDigest(dsg), g.BaseHash(), edgesDigest(g)}
		for i, what := range []string{".dsg bytes", "BaseHash", "Edges stream"} {
			if got[i] != want[i] {
				t.Errorf("%s %s: %s, golden %s", name, what, got[i], want[i])
			}
		}

		for _, backend := range []Backend{BackendMem, BackendMmap} {
			r, err := OpenSegmented(dsgPath, backend)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			via := backend.String()
			if h := r.BaseHash(); h != want[1] {
				t.Errorf("%s via %s: BaseHash %s, golden %s", name, via, h, want[1])
			}
			if e := edgesDigest(r); e != want[2] {
				t.Errorf("%s via %s: Edges stream %s, golden %s", name, via, e, want[2])
			}
			again := filepath.Join(dir, name+"."+via+".dsg")
			if err := WriteSegmentedFile(again, r, name); err != nil {
				t.Fatal(err)
			}
			rewritten, err := os.ReadFile(again)
			if err != nil {
				t.Fatal(err)
			}
			if d := bytesDigest(rewritten); d != want[0] {
				t.Errorf("%s via %s: re-written .dsg %s, golden %s", name, via, d, want[0])
			}
			if r.UniformIn() != g.UniformIn() {
				t.Errorf("%s via %s: UniformIn %v, want %v", name, via, r.UniformIn(), g.UniformIn())
			}
		}
	}
}
