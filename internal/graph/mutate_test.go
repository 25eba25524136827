package graph

import (
	"strings"
	"testing"
)

// line builds the 4-node path 0→1→2→3 with probability p on every edge.
func line(t *testing.T, p float32) *Graph {
	t.Helper()
	b := NewBuilder(4)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], p); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	t.Cleanup(func() { g.Close() }) // frees what EnableMutation maps
	return g
}

// Satellite regression test: ContentHash must not serve the memoized
// base digest once the graph has been mutated.
func TestContentHashChangesOnMutation(t *testing.T) {
	g := line(t, 0.5)
	base := g.ContentHash() // memoize while the CSR is still version 0
	g.EnableMutation()
	if got := g.ContentHash(); got != base {
		t.Fatalf("EnableMutation alone changed the hash: %q vs %q", got, base)
	}
	if _, _, err := g.ApplyUpdates(1, []EdgeUpdate{{Op: OpAdd, From: 0, To: 2, Prob: 0.25}}); err != nil {
		t.Fatal(err)
	}
	h1 := g.ContentHash()
	if h1 == base {
		t.Fatalf("hash unchanged after edge add: %q", h1)
	}
	if !strings.HasPrefix(h1, "sha256:") {
		t.Fatalf("versioned hash lost its prefix: %q", h1)
	}
	if g.BaseHash() != base {
		t.Fatalf("BaseHash drifted after mutation: %q vs %q", g.BaseHash(), base)
	}
	if _, _, err := g.ApplyUpdates(2, []EdgeUpdate{{Op: OpReweight, From: 0, To: 2, Prob: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if h2 := g.ContentHash(); h2 == h1 || h2 == base {
		t.Fatalf("hash failed to advance on second batch: %q", h2)
	}
}

// Two graphs taking the same base through the same update history must
// hash equal (the chained hash is content-addressed, not time-stamped).
func TestContentHashDeterministicAcrossReplicas(t *testing.T) {
	ops := []EdgeUpdate{
		{Op: OpAdd, From: 3, To: 0, Prob: 0.1},
		{Op: OpRemove, From: 1, To: 2},
	}
	a, b := line(t, 0.5), line(t, 0.5)
	a.EnableMutation()
	b.EnableMutation()
	if _, _, err := a.ApplyUpdates(1, ops); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ApplyUpdates(1, ops); err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() != b.ContentHash() {
		t.Fatalf("replicas diverged: %q vs %q", a.ContentHash(), b.ContentHash())
	}
}

func TestApplyUpdatesSemantics(t *testing.T) {
	g := line(t, 0.5)
	g.EnableMutation()

	// Add: lands in the overlay at the end of the in-list.
	deltas, fresh, err := g.ApplyUpdates(1, []EdgeUpdate{{Op: OpAdd, From: 0, To: 3, Prob: 0.3}})
	if err != nil || !fresh {
		t.Fatalf("add batch: fresh=%v err=%v", fresh, err)
	}
	if len(deltas) != 1 || deltas[0].Head != 3 || deltas[0].Tail != 0 || deltas[0].POld != 0 || deltas[0].PNew != 0.3 {
		t.Fatalf("add delta = %+v", deltas)
	}
	if deltas[0].Pos != g.InDegree(3) {
		t.Fatalf("add slot %d, want first overlay slot %d", deltas[0].Pos, g.InDegree(3))
	}
	if ov := g.InOverlay(3); len(ov) != 1 || ov[0].Node != 0 || ov[0].Prob != 0.3 {
		t.Fatalf("in-overlay of 3 = %+v", ov)
	}
	if ov := g.OutOverlay(0); len(ov) != 1 || ov[0].Node != 3 {
		t.Fatalf("out-overlay of 0 = %+v", ov)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d after add", g.NumEdges())
	}
	if got := g.InProbSum(3); got < 0.8-1e-6 || got > 0.8+1e-6 {
		t.Fatalf("inProbSum(3) = %g", got)
	}

	// Remove: tombstones the base slot in place.
	deltas, _, err = g.ApplyUpdates(2, []EdgeUpdate{{Op: OpRemove, From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].PNew != 0 || deltas[0].POld != 0.5 || deltas[0].Pos != 0 {
		t.Fatalf("remove delta = %+v", deltas)
	}
	if _, probs := g.InNeighbors(2); probs[0] != 0 {
		t.Fatalf("base slot not tombstoned: %v", probs)
	}
	if g.NumEdges() != 3 || g.Tombstones() != 1 {
		t.Fatalf("m=%d tombstones=%d after remove", g.NumEdges(), g.Tombstones())
	}

	// Reweight: in place, both CSR sides.
	if _, _, err = g.ApplyUpdates(3, []EdgeUpdate{{Op: OpReweight, From: 0, To: 1, Prob: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if _, probs := g.InNeighbors(1); probs[0] != 0.9 {
		t.Fatalf("in-side reweight missed: %v", probs)
	}
	if _, probs := g.OutNeighbors(0); probs[0] != 0.9 {
		t.Fatalf("out-side reweight missed: %v", probs)
	}
	if g.Version() != 3 {
		t.Fatalf("version = %d", g.Version())
	}
	if g.UniformIn() {
		t.Fatal("uniformIn survived mutation")
	}
}

func TestApplyUpdatesSeqGating(t *testing.T) {
	g := line(t, 0.5)
	g.EnableMutation()
	batch := []EdgeUpdate{{Op: OpAdd, From: 0, To: 2, Prob: 0.4}}
	d1, fresh, err := g.ApplyUpdates(1, batch)
	if err != nil || !fresh {
		t.Fatalf("first apply: fresh=%v err=%v", fresh, err)
	}
	// Replayed batch: no-op, memoized deltas.
	d2, fresh, err := g.ApplyUpdates(1, batch)
	if err != nil || fresh {
		t.Fatalf("replay: fresh=%v err=%v", fresh, err)
	}
	if len(d2) != len(d1) || d2[0] != d1[0] {
		t.Fatalf("memoized deltas %+v != original %+v", d2, d1)
	}
	if g.Version() != 1 || g.OverlayEdges() != 1 {
		t.Fatalf("replay mutated state: version=%d overlay=%d", g.Version(), g.OverlayEdges())
	}
	// Gap: seq 3 when version is 1.
	if _, _, err := g.ApplyUpdates(3, batch); err == nil {
		t.Fatal("sequence gap accepted")
	}
}

func TestApplyUpdatesRejections(t *testing.T) {
	g := line(t, 0.5)
	g.EnableMutation()
	cases := []struct {
		name string
		ops  []EdgeUpdate
	}{
		{"duplicate add", []EdgeUpdate{{Op: OpAdd, From: 0, To: 1, Prob: 0.5}}},
		{"add prob zero", []EdgeUpdate{{Op: OpAdd, From: 0, To: 3, Prob: 0}}},
		{"add prob high", []EdgeUpdate{{Op: OpAdd, From: 0, To: 3, Prob: 1.5}}},
		{"remove missing", []EdgeUpdate{{Op: OpRemove, From: 3, To: 0}}},
		{"reweight missing", []EdgeUpdate{{Op: OpReweight, From: 3, To: 0, Prob: 0.2}}},
		{"double remove in batch", []EdgeUpdate{{Op: OpRemove, From: 0, To: 1}, {Op: OpRemove, From: 0, To: 1}}},
		{"add then remove in batch", []EdgeUpdate{{Op: OpAdd, From: 0, To: 3, Prob: 0.2}, {Op: OpRemove, From: 0, To: 3}}},
		{"re-add after batch add", []EdgeUpdate{{Op: OpAdd, From: 0, To: 3, Prob: 0.2}, {Op: OpAdd, From: 0, To: 3, Prob: 0.3}}},
	}
	for _, tc := range cases {
		if _, _, err := g.ApplyUpdates(g.Version()+1, tc.ops); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if g.Version() != 0 {
		t.Fatalf("rejected batches advanced version to %d", g.Version())
	}
}

// Compact must fold the overlay into the CSR without moving any slot:
// tombstones keep their positions (prob 0) and overlay entries land at
// the end of each list, in overlay order — the positional-stability
// contract that keeps repaired RR samples replayable.
func TestCompactPreservesSlotPositions(t *testing.T) {
	g := line(t, 0.5)
	g.EnableMutation()
	_, _, err := g.ApplyUpdates(1, []EdgeUpdate{
		{Op: OpRemove, From: 1, To: 2},
		{Op: OpAdd, From: 0, To: 2, Prob: 0.2},
		{Op: OpAdd, From: 3, To: 2, Prob: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	hash := g.ContentHash()
	wantAdj := [][2]interface{}{{uint32(1), float32(0)}, {uint32(0), float32(0.2)}, {uint32(3), float32(0.3)}}
	g.Compact()
	if g.OverlayEdges() != 0 || g.Compactions() != 1 {
		t.Fatalf("overlay=%d compacts=%d after Compact", g.OverlayEdges(), g.Compactions())
	}
	adj, probs := g.InNeighbors(2)
	if len(adj) != len(wantAdj) {
		t.Fatalf("in-list of 2 has %d slots, want %d", len(adj), len(wantAdj))
	}
	for i, w := range wantAdj {
		if adj[i] != w[0].(uint32) || probs[i] != w[1].(float32) {
			t.Fatalf("slot %d = (%d,%g), want %+v", i, adj[i], probs[i], w)
		}
	}
	if g.ContentHash() != hash {
		t.Fatal("Compact changed the content hash")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d after compact", g.NumEdges())
	}
	// Post-compact mutations still work and see the folded slots.
	if _, _, err := g.ApplyUpdates(2, []EdgeUpdate{{Op: OpReweight, From: 3, To: 2, Prob: 0.6}}); err != nil {
		t.Fatalf("reweight of compacted overlay edge: %v", err)
	}
	if _, probs := g.InNeighbors(2); probs[2] != 0.6 {
		t.Fatalf("reweight after compact missed: %v", probs)
	}
}
