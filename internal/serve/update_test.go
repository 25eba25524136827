package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/sketch"
	"dimm/internal/store"
	"dimm/internal/xrand"
)

// dynGraph builds a fresh, mutation-enabled copy of the deterministic
// test graph (twin calls yield identical content).
func dynGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	g.EnableMutation()
	t.Cleanup(func() { g.Close() })
	return g
}

// dynOps derives a deterministic update batch from the graph content:
// removals of existing edges, high-probability additions of absent ones
// (so the IC refined repair plan is exercised), and one reweight.
func dynOps(t testing.TB, g *graph.Graph) []graph.EdgeUpdate {
	t.Helper()
	var ops []graph.EdgeUpdate
	seen := make(map[[2]uint32]bool)
	for v := uint32(0); v < uint32(g.NumNodes()) && len(ops) < 8; v++ {
		adj, probs := g.InNeighbors(v)
		for i, u := range adj {
			if probs[i] > 0 && !seen[[2]uint32{u, v}] {
				seen[[2]uint32{u, v}] = true
				ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v})
				break
			}
		}
	}
	if len(ops) < 8 {
		t.Fatalf("test graph too sparse: only %d removable edges found", len(ops))
	}
	r := xrand.New(0xD15EA5E + g.Version())
	n := uint32(g.NumNodes())
	for added := 0; added < 5; {
		u, v := r.Uint32n(n), r.Uint32n(n)
		if u == v || seen[[2]uint32{u, v}] {
			continue
		}
		if hasLiveEdge(g, u, v) {
			continue
		}
		seen[[2]uint32{u, v}] = true
		ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: 0.9})
		added++
	}
	for v := uint32(0); v < n; v++ {
		adj, probs := g.InNeighbors(v)
		for i, u := range adj {
			if probs[i] > 0 && !seen[[2]uint32{u, v}] {
				return append(ops, graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: probs[i] / 2})
			}
		}
	}
	t.Fatal("no edge left to reweight")
	return nil
}

func hasLiveEdge(g *graph.Graph, u, v uint32) bool {
	adj, probs := g.InNeighbors(v)
	for i, w := range adj {
		if w == u && probs[i] > 0 {
			return true
		}
	}
	for _, e := range g.InOverlay(v) {
		if e.Node == u && e.Prob > 0 {
			return true
		}
	}
	return false
}

func wireBytes(c *rrset.Collection) []byte { return c.AppendWireRange(nil, 0) }

// TestDynamicUpdateRepairsSample is the tentpole acceptance path at the
// service layer: a warm dynamic service absorbs an edge-update batch,
// repairs the resident mirrors in place (no remirror, theta unchanged),
// and the next query carries a valid certificate computed on the
// repaired sample. With a single worker per cluster, the incremental
// mirror must afterwards be byte-identical to a full refetch of the
// workers' (repaired) state — the splice dropped and replaced exactly
// the right sets. The repair also rebuilds the sketch tier over the
// repaired sample.
func TestDynamicUpdateRepairsSample(t *testing.T) {
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true})

	// Two queries at different tightness force multiple growth epochs,
	// so the fetch-span table spans several rounds.
	if _, err := s.Query(10, 0.5); err != nil {
		t.Fatal(err)
	}
	a0, err := s.Query(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a0.GraphVersion != 0 {
		t.Fatalf("pre-update answer carries graph version %d, want 0", a0.GraphVersion)
	}
	builds := s.Stats().SketchBuilds

	res, err := s.Update(0, dynOps(t, g))
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case !res.Applied:
		t.Fatal("update not applied")
	case res.Seq != 1 || res.GraphVersion != 1:
		t.Fatalf("update got seq %d / version %d, want 1 / 1", res.Seq, res.GraphVersion)
	case res.Repaired == 0:
		t.Fatal("update repaired zero RR sets; the batch should touch the resident sample")
	case res.Remirrored:
		t.Fatal("healthy update fell back to a full re-mirror")
	case res.Theta != a0.Theta:
		t.Fatalf("repair changed theta %d → %d; repair must replace sets one-for-one", a0.Theta, res.Theta)
	case res.Epoch <= a0.Epoch:
		t.Fatalf("update did not advance the epoch (%d after %d)", res.Epoch, a0.Epoch)
	}
	if st := s.Stats(); st.SketchTheta != st.Theta || st.SketchBuilds != builds+1 {
		t.Fatalf("sketch over %d of %d sets after %d builds, want one rebuild over all of them",
			st.SketchTheta, st.Theta, st.SketchBuilds-builds)
	}

	a1, err := s.Query(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a1.GraphVersion != 1 {
		t.Fatalf("post-update answer carries graph version %d, want 1", a1.GraphVersion)
	}
	if target := 1 - 1/math.E - 0.3; a1.Ratio < target {
		t.Fatalf("post-update certificate ratio %v below target %v", a1.Ratio, target)
	}

	// Single worker per cluster means incremental fetch order equals full
	// fetch order, so the spliced mirrors must match a wholesale refetch
	// byte for byte.
	for j := range s.mirrors {
		fresh := rrset.NewCollection(0)
		s.clusterMu.Lock()
		_, _, err := s.mirrors[j].cl.FetchNewSpans(nil, fresh)
		s.clusterMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		mirrored := wireBytes(s.mirrors[j].coll)
		s.mu.RUnlock()
		if !bytes.Equal(mirrored, wireBytes(fresh)) {
			t.Fatalf("spliced R%d mirror differs from the workers' repaired sample", j+1)
		}
	}

	st := s.Stats()
	if st.Updates != 1 || st.GraphVersion != 1 || int(st.RepairedSets) != res.Repaired {
		t.Fatalf("stats report %d updates / version %d / %d repaired, want 1 / 1 / %d",
			st.Updates, st.GraphVersion, st.RepairedSets, res.Repaired)
	}
}

// TestDynamicSpliceMatchesRemirror checks the span-translation splice on
// a multi-worker, multi-epoch mirror: the answer computed on the spliced
// mirror must agree with the answer computed after a wholesale re-mirror
// (set order differs between the two, but coverage counts — and hence
// greedy selection and the certificate — are order-invariant).
func TestDynamicSpliceMatchesRemirror(t *testing.T) {
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true, Machines: 2, SketchK: -1})

	if _, err := s.Query(10, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(10, 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(0, dynOps(t, g)); err != nil {
		t.Fatal(err)
	}
	spliced, err := s.Query(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	s.growMu.Lock()
	err = s.remirror()
	s.growMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	refetched, err := s.Query(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	if len(spliced.Seeds) != len(refetched.Seeds) {
		t.Fatalf("seed counts differ: %d vs %d", len(spliced.Seeds), len(refetched.Seeds))
	}
	for i := range spliced.Seeds {
		if spliced.Seeds[i] != refetched.Seeds[i] {
			t.Fatalf("seed %d differs: %d (spliced) vs %d (re-mirrored)", i, spliced.Seeds[i], refetched.Seeds[i])
		}
	}
	if spliced.Theta != refetched.Theta || spliced.Ratio != refetched.Ratio ||
		spliced.SpreadLower != refetched.SpreadLower || spliced.OptUpper != refetched.OptUpper {
		t.Fatalf("certificates differ between spliced and re-mirrored samples:\n%+v\nvs\n%+v", spliced, refetched)
	}
}

// TestDynamicSequencing covers the version-gate: auto-assigned seqs,
// idempotent replays, gaps, and the rejections for non-dynamic use.
func TestDynamicSequencing(t *testing.T) {
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true, SketchK: -1})
	if _, err := s.Query(5, 0.4); err != nil {
		t.Fatal(err)
	}

	ops1 := dynOps(t, g)
	r1, err := s.Update(1, ops1)
	if err != nil || !r1.Applied || r1.Seq != 1 {
		t.Fatalf("first batch: %+v, %v", r1, err)
	}
	// Replay of an applied seq is acknowledged without re-executing.
	rep, err := s.Update(1, ops1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied || rep.GraphVersion != 1 {
		t.Fatalf("replay re-applied: %+v", rep)
	}
	// Second batch derives from the mutated graph, auto-sequenced.
	r2, err := s.Update(0, dynOps(t, g))
	if err != nil || !r2.Applied || r2.Seq != 2 {
		t.Fatalf("second batch: %+v, %v", r2, err)
	}
	// A gap is a client error, not a silent reorder.
	if _, err := s.Update(9, dynOps(t, g)); !isBadQuery(err) {
		t.Fatalf("seq gap got %v, want a BadQueryError", err)
	}
	// Empty batches are client errors.
	if _, err := s.Update(0, nil); !isBadQuery(err) {
		t.Fatalf("empty batch got %v, want a BadQueryError", err)
	}
	// An op the graph/model rejects must not advance anything.
	bad := []graph.EdgeUpdate{{Op: graph.OpAdd, From: 1, To: 1, Prob: 0.5}}
	if _, err := s.Update(0, bad); !isBadQuery(err) {
		t.Fatalf("self-loop got %v, want a BadQueryError", err)
	}
	if v := g.Version(); v != 2 {
		t.Fatalf("graph at version %d after rejected batches, want 2", v)
	}

	// Static services refuse updates outright.
	stat := testService(t, Config{SketchK: -1})
	if _, err := stat.Update(0, dynOps(t, dynGraph(t))); !isBadQuery(err) {
		t.Fatalf("static service got %v, want a BadQueryError", err)
	}
}

func isBadQuery(err error) bool {
	var bad *BadQueryError
	return errors.As(err, &bad)
}

// TestDynamicConfigExclusions: subset sampling and restore are
// incompatible with dynamic graphs and must be rejected at New.
func TestDynamicConfigExclusions(t *testing.T) {
	g := dynGraph(t)
	if _, err := New(Config{Graph: g, Model: diffusion.IC, Dynamic: true, Subset: true, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "subset") {
		t.Fatalf("dynamic+subset got %v, want a subset rejection", err)
	}
	if _, err := New(Config{Graph: g, Model: diffusion.IC, Dynamic: true, Restore: true,
		CheckpointDir: t.TempDir(), Seed: 1}); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("dynamic+restore got %v, want a restore rejection", err)
	}
}

// TestUpdateDebtDegradesAndHeals: while an update is marked interrupted,
// queries are refused with a typed DegradedError; retrying the same
// batch heals via a full re-mirror and service resumes.
func TestUpdateDebtDegradesAndHeals(t *testing.T) {
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true, SketchK: -1})
	if _, err := s.Query(5, 0.4); err != nil {
		t.Fatal(err)
	}
	ops := dynOps(t, g)
	if _, err := s.Update(1, ops); err != nil {
		t.Fatal(err)
	}

	// Simulate the interruption window: graph at version 1, mirror debt.
	s.updateDebt.Store(true)
	var deg *DegradedError
	if _, err := s.Query(5, 0.4); !errors.As(err, &deg) {
		t.Fatalf("query under debt got %v, want a DegradedError", err)
	}
	// Retrying the interrupted batch (same seq) heals wholesale.
	res, err := s.Update(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || !res.Remirrored {
		t.Fatalf("retry should heal by re-mirroring, got %+v", res)
	}
	if s.updateDebt.Load() {
		t.Fatal("debt still set after a successful retry")
	}
	if _, err := s.Query(5, 0.4); err != nil {
		t.Fatalf("query after heal: %v", err)
	}
}

// TestSketchStaleFallback: a sketch that lags the sample never reaches a
// seed answer. With the sketch stale (emptied, as in the window between
// an update's publish and its sketch rebuild), a fast seed query is the
// certified answer a twin service with a current sketch gives; the next
// update rebuilds the sketch over the whole repaired sample, so fast
// spread resumes (no permanent downgrade).
func TestSketchStaleFallback(t *testing.T) {
	run := func(stale bool) (*Service, *Answer) {
		g := dynGraph(t)
		s := testService(t, Config{Graph: g, Dynamic: true})
		if _, err := s.Query(10, 0.3); err != nil {
			t.Fatal(err)
		}
		if stale {
			s.sketchMu.Lock()
			empty, err := sketch.New(s.n, sketch.Params{K: s.sk.K(), Seed: s.sk.Seed()})
			if err != nil {
				s.sketchMu.Unlock()
				t.Fatal(err)
			}
			s.sk = empty
			s.sketchMu.Unlock()
		}
		ans, err := s.QueryMode(7, 0.3, ModeFast)
		if err != nil {
			t.Fatal(err)
		}
		return s, ans
	}
	s, fast := run(true)
	_, twin := run(false)
	if fast.Mode != ModeCertified || !reflect.DeepEqual(fast, twin) {
		t.Fatalf("stale-sketch fast query differs from the certified answer:\n  stale: %+v\n  twin:  %+v", fast, twin)
	}

	if _, err := s.Update(0, dynOps(t, s.cfg.Graph)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SketchTheta != st.Theta {
		t.Fatalf("sketch over %d of %d sets after the update", st.SketchTheta, st.Theta)
	}
	if est, _, err := s.SpreadSketch(fast.Seeds); err != nil || est <= 0 {
		t.Fatalf("fast spread after the rebuild: %v (%v)", est, err)
	}
}

// updateBody renders ops as the JSON body of POST /v1/update.
func updateBody(seq uint64, ops []graph.EdgeUpdate) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"seq": %d, "ops": [`, seq)
	for i, op := range ops {
		if i > 0 {
			b.WriteString(",")
		}
		kind := map[graph.EdgeOp]string{graph.OpAdd: "add", graph.OpRemove: "remove", graph.OpReweight: "reweight"}[op.Op]
		fmt.Fprintf(&b, `{"op":%q,"from":%d,"to":%d,"prob":%g}`, kind, op.From, op.To, op.Prob)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestDynamicHTTP drives the whole path over the wire: POST /v1/update
// applies, replays acknowledge, malformed ops 400, /statsz reports the
// dynamic figures, and /v1/seeds answers carry the graph version.
func TestDynamicHTTP(t *testing.T) {
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true, SketchK: -1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	if resp, body := post("/v1/seeds", `{"k": 5, "eps": 0.4}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d %s", resp.StatusCode, body)
	}

	batch := updateBody(1, dynOps(t, g))
	resp, body := post("/v1/update", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"applied":true`) || !strings.Contains(body, `"graph_version":1`) {
		t.Fatalf("update response missing fields: %s", body)
	}

	// Replay acknowledges without applying.
	if resp, body := post("/v1/update", batch); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"applied":false`) {
		t.Fatalf("replay: %d %s", resp.StatusCode, body)
	}
	// Unknown op kind is a 400.
	if resp, _ := post("/v1/update", `{"seq": 2, "ops": [{"op":"explode","from":1,"to":2}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op kind: %d", resp.StatusCode)
	}
	// Post-update answers carry the version.
	if resp, body := post("/v1/seeds", `{"k": 5, "eps": 0.4}`); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"graph_version":1`) {
		t.Fatalf("post-update query: %d %s", resp.StatusCode, body)
	}
	// Stats expose the dynamic figures.
	sresp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, sresp.Body); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	stats := sb.String()
	if !strings.Contains(stats, `"graph_version":1`) || !strings.Contains(stats, `"updates":1`) {
		t.Fatalf("statsz missing dynamic figures: %s", stats)
	}
}

// TestDynamicUpdateChaosNever500 (satellite): a worker dying mid-update
// with no replacement must surface as typed 503s — the update, and every
// query while the mirror is behind the graph — never as a 500.
func TestDynamicUpdateChaosNever500(t *testing.T) {
	g := dynGraph(t)
	var fc *cluster.FaultConn
	mk := func(seed uint64, faulty bool) *cluster.Cluster {
		w, err := cluster.NewWorker(cluster.WorkerConfig{Graph: g, Model: diffusion.IC, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		conn := cluster.Conn(cluster.NewLocalConn(w))
		if faulty {
			fc = cluster.NewFaultConn(conn)
			conn = fc
		}
		cl, err := cluster.New([]cluster.Conn{conn}, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.EnableRecovery(cluster.Recovery{
			Respawn: func(int) (cluster.Conn, error) { return nil, errForever },
			Retries: 1,
			Backoff: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	c1 := mk(0x0111, true)
	c2 := mk(0x0222, false)
	s := testService(t, Config{Graph: g, Dynamic: true, SketchK: -1, C1: c1, C2: c2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := s.Query(5, 0.4); err != nil {
		t.Fatal(err)
	}
	ops := dynOps(t, g)

	// Kill the R1 worker on its next RPC — the update broadcast.
	fc.KillAtCall(fc.Calls() + 1)
	res, err := s.Update(1, ops)
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("update over a dead worker got (%+v, %v), want a DegradedError", res, err)
	}
	// The graph advanced but the mirror could not follow: queries are
	// typed 503s, not stale answers and not 500s.
	resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k": 5, "eps": 0.4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during update debt: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
	st := s.Stats()
	if !st.UpdateDebt {
		t.Fatal("statsz does not report the outstanding update debt")
	}
}

var errForever = &neverError{}

type neverError struct{}

func (*neverError) Error() string { return "no replacement worker" }

// TestDynamicCheckpointRecordsDeltas (satellite): a dynamic service with
// a checkpoint directory journals every applied batch as a graph-delta
// segment, and the resulting store refuses to restore.
func TestDynamicCheckpointRecordsDeltas(t *testing.T) {
	dir := t.TempDir()
	g := dynGraph(t)
	s := testService(t, Config{Graph: g, Dynamic: true, SketchK: -1, CheckpointDir: dir, Seed: 42})
	if _, err := s.Query(5, 0.4); err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(0, dynOps(t, g))
	if err != nil {
		t.Fatal(err)
	}

	info, err := store.Verify(dir)
	if err != nil {
		t.Fatalf("store verify after delta append: %v (info %+v)", err, info)
	}
	if len(info.Deltas) != 1 || info.Deltas[0].Seq != 1 || info.Deltas[0].Repaired != res.Repaired {
		t.Fatalf("store deltas %+v, want one at seq 1 with %d repaired", info.Deltas, res.Repaired)
	}
	if info.RepairedSets != res.Repaired {
		t.Fatalf("store reports %d repaired sets, want %d", info.RepairedSets, res.Repaired)
	}

	// The RR segments predate the repair: restoring must refuse.
	s.Close()
	twin := testGraph(t) // same content hash, version 0
	_, err = New(Config{Graph: twin, Model: diffusion.IC, Seed: 42, KMax: 10, EpsFloor: 0.3,
		CheckpointDir: dir, Restore: true, SketchK: -1})
	if err == nil || !strings.Contains(err.Error(), "cannot be restored") {
		t.Fatalf("restore over a dynamic history got %v, want ErrDynamicHistory", err)
	}
}
