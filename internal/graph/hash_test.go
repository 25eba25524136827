package graph

import (
	"path/filepath"
	"strings"
	"testing"
)

func hashTestGraph(t *testing.T, seed uint64, model WeightModel) *Graph {
	t.Helper()
	g, err := GenPreferential(GenConfig{Nodes: 200, AvgDegree: 4, Seed: seed, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g, err = AssignWeights(g, model, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestContentHashStable(t *testing.T) {
	g := hashTestGraph(t, 7, WeightedCascade)
	h := g.ContentHash()
	if !strings.HasPrefix(h, "sha256:") || len(h) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", h)
	}
	if again := g.ContentHash(); again != h {
		t.Fatalf("hash not memoized consistently: %s vs %s", h, again)
	}
	// Same generator parameters → same content → same hash.
	if hashTestGraph(t, 7, WeightedCascade).ContentHash() != h {
		t.Fatal("identical graphs hash differently")
	}
}

func TestContentHashDiscriminates(t *testing.T) {
	base := hashTestGraph(t, 7, WeightedCascade)
	// Different topology.
	if hashTestGraph(t, 8, WeightedCascade).ContentHash() == base.ContentHash() {
		t.Fatal("different topologies hash equal")
	}
	// Same topology, different weights.
	if hashTestGraph(t, 7, Trivalency).ContentHash() == base.ContentHash() {
		t.Fatal("different weights hash equal")
	}
}

// TestContentHashSurvivesBinaryRoundTrip: a trivalency graph (per-edge
// probabilities, not the compact WC form) read back from .dsg by either
// backend keeps its content hash.
func TestContentHashSurvivesBinaryRoundTrip(t *testing.T) {
	g := hashTestGraph(t, 11, Trivalency)
	path := filepath.Join(t.TempDir(), "g.dsg")
	if err := WriteSegmentedFile(path, g, "trivalency"); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendMem, BackendMmap} {
		back, err := OpenSegmented(path, backend)
		if err != nil {
			t.Fatal(err)
		}
		if back.ContentHash() != g.ContentHash() {
			t.Fatalf("%v: round trip changed the content hash", backend)
		}
		back.Close()
	}
}
