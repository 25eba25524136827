package mutate

import (
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

func testGraph(t testing.TB, model diffusion.Model) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 400, AvgDegree: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if model == diffusion.LT {
		p := float32(0.5 / float64(g.MaxInDegree()))
		g, err = graph.AssignWeights(g, graph.UniformWeight, p, 0)
	} else {
		g, err = graph.AssignWeights(g, graph.Trivalency, 0, 7)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.EnableMutation()
	t.Cleanup(func() { g.Close() })
	return g
}

// testBatch builds a deterministic mixed batch against g's current
// version: removals of the first CSR edges, adds of absent pairs, one
// reweight. Adds carry a high probability under IC (so the batch is
// statistically certain to flip some coins) and a small one under LT
// (so per-head sums stay below 1).
func testBatch(t testing.TB, g *graph.Graph, model diffusion.Model) Batch {
	t.Helper()
	addProb := float32(0.9)
	if model == diffusion.LT {
		addProb = 0.02
	}
	var ops []graph.EdgeUpdate
	seen := 0
	g.Edges(func(from, to uint32, prob float32) {
		if prob == 0 {
			return
		}
		seen++
		switch {
		case seen <= 20:
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: from, To: to})
		case seen == 21:
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpReweight, From: from, To: to, Prob: prob / 2})
		}
	})
	rng := xrand.New(97)
	n := uint32(g.NumNodes())
	for added := 0; added < 8; {
		u, v := rng.Uint32n(n), rng.Uint32n(n)
		if u == v || edgeLive(g, u, v) {
			continue
		}
		dup := false
		for _, op := range ops {
			if op.Op == graph.OpAdd && op.From == u && op.To == v {
				dup = true
			}
		}
		if dup {
			continue
		}
		ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: addProb})
		added++
	}
	return Batch{Seq: g.Version() + 1, Ops: ops}
}

func edgeLive(g *graph.Graph, u, v uint32) bool {
	adj, probs := g.OutNeighbors(u)
	for i, w := range adj {
		if w == v && probs[i] > 0 {
			return true
		}
	}
	for _, e := range g.OutOverlay(u) {
		if e.Node == v && e.Prob > 0 {
			return true
		}
	}
	return false
}

func TestBatchWireRoundTrip(t *testing.T) {
	b := Batch{Seq: 42, Ops: []graph.EdgeUpdate{
		{Op: graph.OpAdd, From: 1, To: 2, Prob: 0.25},
		{Op: graph.OpRemove, From: 3, To: 4},
		{Op: graph.OpReweight, From: 5, To: 6, Prob: 1},
	}}
	buf := EncodeBatch(nil, b)
	if len(buf) != EncodedSize(b) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), EncodedSize(b))
	}
	got, n, err := DecodeBatch(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.Seq != b.Seq || len(got.Ops) != len(b.Ops) {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range b.Ops {
		if got.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got.Ops[i], b.Ops[i])
		}
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestValidate(t *testing.T) {
	g := testGraph(t, diffusion.IC)
	if err := Validate(g, diffusion.IC, Batch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := []Batch{
		{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpAdd, From: 0, To: 9999, Prob: 0.5}}},
		{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpAdd, From: 2, To: 2, Prob: 0.5}}},
		{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpAdd, From: 0, To: 1, Prob: 1.5}}},
		{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpReweight, From: 0, To: 1, Prob: 0}}},
		{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.EdgeOp(9), From: 0, To: 1}}},
	}
	for i, b := range bad {
		if err := Validate(g, diffusion.IC, b); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	if err := Validate(g, diffusion.IC, testBatch(t, g, diffusion.IC)); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}
}

func TestValidateLTPrecondition(t *testing.T) {
	g := testGraph(t, diffusion.LT)
	// Find the node with the largest incoming sum and push it over 1.
	var v uint32
	for u := 1; u < g.NumNodes(); u++ {
		if g.InProbSum(uint32(u)) > g.InProbSum(v) {
			v = uint32(u)
		}
	}
	var from uint32
	if v == 0 {
		from = 1
	}
	over := Batch{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpAdd, From: from, To: v, Prob: 1}}}
	if err := Validate(g, diffusion.LT, over); err == nil {
		t.Fatal("LT sum overflow accepted")
	}
	if err := Validate(g, diffusion.IC, over); err != nil {
		t.Fatalf("IC rejected a sum-overflow batch it should not care about: %v", err)
	}
	ok := Batch{Seq: 1, Ops: []graph.EdgeUpdate{{Op: graph.OpAdd, From: from, To: v, Prob: 0.001}}}
	if err := Validate(g, diffusion.LT, ok); err != nil {
		t.Fatalf("small LT add rejected: %v", err)
	}
}

// The end-to-end repair identity, the theorem the subsystem rests on:
// plan the affected slots, resample exactly those with their original
// lane seeds on the mutated graph, and the patched sample must be
// byte-identical to sampling all streams from scratch on a twin graph
// that took the same update — for IC (refined plan) and LT
// (conservative plan) both.
func TestRepairMatchesFullResample(t *testing.T) {
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		const base, count = uint64(5), 500
		g := testGraph(t, model)
		twin := testGraph(t, model)

		s, err := rrset.NewSampler(g, model, base, false)
		if err != nil {
			t.Fatal(err)
		}
		c := rrset.NewCollection(1 << 12)
		s.SampleManyInto(c, count)
		lanes := make([]uint64, count)
		for i := range lanes {
			lanes[i] = xrand.LaneSeed(base, uint64(i))
		}
		idx, err := rrset.BuildIndex(c, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}

		b := testBatch(t, g, model)
		if err := Validate(g, model, b); err != nil {
			t.Fatal(err)
		}
		deltas, fresh, err := g.ApplyUpdates(b.Seq, b.Ops)
		if err != nil || !fresh {
			t.Fatalf("%v: apply fresh=%v err=%v", model, fresh, err)
		}

		plan, err := AffectedSlots(model, deltas, idx, lanes)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := AffectedSlotsConservative(b.Ops, idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) > len(wide) {
			t.Fatalf("%v: refined plan (%d) larger than conservative (%d)", model, len(plan), len(wide))
		}
		if model == diffusion.IC && len(plan) >= len(wide) && len(wide) > 0 {
			t.Logf("IC refinement bought nothing on this instance: %d == %d", len(plan), len(wide))
		}
		if len(plan) == 0 {
			t.Fatalf("%v: empty repair plan for a %d-op batch over %d sets", model, len(b.Ops), count)
		}
		if len(plan) == count {
			t.Fatalf("%v: repair plan touches every set; test has no discriminating power", model)
		}

		repair, err := rrset.NewSampler(g, model, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		patches := make([]rrset.Patch, 0, len(plan))
		for _, slot := range plan {
			members, _ := repair.ResampleLane(lanes[slot])
			patches = append(patches, rrset.Patch{Pos: slot, Members: append([]uint32(nil), members...)})
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}

		if _, _, err := twin.ApplyUpdates(b.Seq, b.Ops); err != nil {
			t.Fatal(err)
		}
		ts, err := rrset.NewSampler(twin, model, base, false)
		if err != nil {
			t.Fatal(err)
		}
		want := rrset.NewCollection(1 << 12)
		ts.SampleManyInto(want, count)

		for i := 0; i < count; i++ {
			a, w := c.Set(i), want.Set(i)
			if len(a) != len(w) {
				t.Fatalf("%v: set %d has %d members after repair, full resample has %d", model, i, len(a), len(w))
			}
			for j := range a {
				if a[j] != w[j] {
					t.Fatalf("%v: set %d diverged at member %d after repair", model, i, j)
				}
			}
		}
		t.Logf("%v: repaired %d/%d sets (conservative plan %d)", model, len(plan), count, len(wide))
	}
}

// A second update batch on the already-mutated graph must still plan and
// repair exactly (positions in the overlay, tombstoned slots).
func TestRepairSecondBatch(t *testing.T) {
	const base, count = uint64(5), 300
	model := diffusion.IC
	g := testGraph(t, model)
	twin := testGraph(t, model)

	apply := func(tg *graph.Graph, b Batch) []graph.EdgeDelta {
		deltas, _, err := tg.ApplyUpdates(b.Seq, b.Ops)
		if err != nil {
			t.Fatal(err)
		}
		return deltas
	}
	b1 := testBatch(t, g, model)
	apply(g, b1)
	apply(twin, b1)

	s, err := rrset.NewSampler(g, model, base, false)
	if err != nil {
		t.Fatal(err)
	}
	c := rrset.NewCollection(1 << 12)
	s.SampleManyInto(c, count)
	lanes := make([]uint64, count)
	for i := range lanes {
		lanes[i] = xrand.LaneSeed(base, uint64(i))
	}
	idx, err := rrset.BuildIndex(c, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}

	// Second batch: remove an overlay edge added by b1, plus fresh ops.
	var ops []graph.EdgeUpdate
	for _, op := range b1.Ops {
		if op.Op == graph.OpAdd {
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: op.From, To: op.To})
			break
		}
	}
	ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: 200, To: 100, Prob: 0.3})
	b2 := Batch{Seq: g.Version() + 1, Ops: ops}
	deltas := apply(g, b2)

	plan, err := AffectedSlots(model, deltas, idx, lanes)
	if err != nil {
		t.Fatal(err)
	}
	repair, err := rrset.NewSampler(g, model, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var patches []rrset.Patch
	for _, slot := range plan {
		members, _ := repair.ResampleLane(lanes[slot])
		patches = append(patches, rrset.Patch{Pos: slot, Members: append([]uint32(nil), members...)})
	}
	if err := c.ApplyPatches(patches); err != nil {
		t.Fatal(err)
	}

	apply(twin, b2)
	ts, err := rrset.NewSampler(twin, model, base, false)
	if err != nil {
		t.Fatal(err)
	}
	want := rrset.NewCollection(1 << 12)
	ts.SampleManyInto(want, count)
	for i := 0; i < count; i++ {
		a, w := c.Set(i), want.Set(i)
		if len(a) != len(w) {
			t.Fatalf("set %d: %d members vs %d", i, len(a), len(w))
		}
		for j := range a {
			if a[j] != w[j] {
				t.Fatalf("set %d diverged at member %d", i, j)
			}
		}
	}
}
