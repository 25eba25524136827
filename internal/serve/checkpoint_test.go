package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dimm/internal/graph"
	"dimm/internal/store"
)

// TestCheckpointRestoreRoundTrip is the acceptance scenario: a warmed
// service is checkpointed and "killed"; a second service restoring from
// the same directory must answer the same queries byte-identically with
// zero RR generation — the fetch and generation counters stay flat.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()

	warm := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir})
	want, err := warm.Warm()
	if err != nil {
		t.Fatal(err)
	}
	want5, err := warm.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	wst := warm.Stats()
	if wst.CheckpointEpochs == 0 || wst.CheckpointBytes == 0 {
		t.Fatalf("warm service wrote no checkpoints: %+v", wst)
	}
	if wst.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoint errors", wst.CheckpointErrors)
	}
	warm.Close()

	// Warming is a pure function of the config: a twin writing to its own
	// store and serving the same queries reaches the same theta with the
	// same checkpoint volume.
	twin := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: t.TempDir()})
	if _, err := twin.Warm(); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Query(5, 0.3); err != nil {
		t.Fatal(err)
	}
	if tst := twin.Stats(); tst.Theta != wst.Theta || tst.CheckpointBytes != wst.CheckpointBytes {
		t.Fatalf("twin warm: theta=%d checkpoint=%dB, want theta=%d checkpoint=%dB",
			tst.Theta, tst.CheckpointBytes, wst.Theta, wst.CheckpointBytes)
	}

	// "Restart": a fresh service over the same graph and config, restoring
	// from the checkpoint directory.
	cold := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir, Restore: true})
	cst := cold.Stats()
	if !cst.Restored || cst.Theta != wst.Theta || cst.RestoredTheta != wst.Theta || cst.Epoch != wst.Epoch {
		t.Fatalf("restore: got epoch=%d theta=%d restored=%v, want epoch=%d theta=%d",
			cst.Epoch, cst.Theta, cst.Restored, wst.Epoch, wst.Theta)
	}

	got, err := cold.Query(want.K, want.Eps)
	if err != nil {
		t.Fatal(err)
	}
	got5, err := cold.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical answers: same seeds, same certificate numbers.
	if !reflect.DeepEqual(got.Seeds, want.Seeds) || !reflect.DeepEqual(got5.Seeds, want5.Seeds) {
		t.Fatalf("restored service selected different seeds:\n got %v / %v\nwant %v / %v",
			got.Seeds, got5.Seeds, want.Seeds, want5.Seeds)
	}
	if got.SpreadLower != want.SpreadLower || got.OptUpper != want.OptUpper || got.Ratio != want.Ratio {
		t.Fatalf("restored certificate differs: got (%v, %v, %v), want (%v, %v, %v)",
			got.SpreadLower, got.OptUpper, got.Ratio, want.SpreadLower, want.OptUpper, want.Ratio)
	}
	// Zero RR generation on the restored service: both queries were
	// admissible against the restored sample.
	if after := cold.Stats(); after.Generated != 0 || after.GrowRounds != 0 {
		t.Fatalf("restored service generated %d RR sets over %d rounds; want 0",
			after.Generated, after.GrowRounds)
	}
}

// TestRestoreThenGrow: a restored service whose envelope allows further
// growth must extend the sample with fresh (salted) worker streams, keep
// answering, and checkpoint the new epochs back to the same store.
func TestRestoreThenGrow(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()

	first := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir})
	// One query at a loose eps: warms part of the envelope only.
	if _, err := first.Query(2, 0.45); err != nil {
		t.Fatal(err)
	}
	st1 := first.Stats()
	first.Close()

	second := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir, Restore: true})
	if st := second.Stats(); !st.Restored || st.Theta != st1.Theta {
		t.Fatalf("restore: %+v, want theta %d", st, st1.Theta)
	}
	// The hardest admissible query forces growth past the restored state.
	ans, err := second.Warm()
	if err != nil {
		t.Fatal(err)
	}
	st2 := second.Stats()
	if st2.Generated == 0 || st2.Theta <= st1.Theta {
		t.Fatalf("restored service did not grow: %+v", st2)
	}
	if ans.Ratio == 0 {
		t.Fatal("no certificate after growth")
	}
	if st2.CheckpointEpochs == 0 || st2.CheckpointErrors != 0 {
		t.Fatalf("post-restore growth not checkpointed: %+v", st2)
	}
	second.Close()

	// And a third restore picks up the union.
	third := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir, Restore: true})
	if st := third.Stats(); st.Theta != st2.Theta || st.Epoch != st2.Epoch {
		t.Fatalf("second restore: epoch=%d theta=%d, want epoch=%d theta=%d",
			st.Epoch, st.Theta, st2.Epoch, st2.Theta)
	}
}

// TestRestoreFingerprintMismatch: restoring under any different sampling
// configuration must fail with the typed store error, not silently serve
// a sample the certificates were not computed for.
func TestRestoreFingerprintMismatch(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	warm := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir})
	if _, err := warm.Query(2, 0.45); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	bad := []struct {
		name string
		cfg  Config
	}{
		{"seed", Config{Graph: g, Machines: 2, Seed: 43}},
		{"machines", Config{Graph: g, Machines: 4}},
		{"graph_hash", Config{Graph: testGraphSeeded(t, 18), Machines: 2}},
	}
	for _, tc := range bad {
		cfg := tc.cfg
		cfg.CheckpointDir = dir
		cfg.Restore = true
		cfg.KMax = 10
		cfg.EpsFloor = 0.3
		if cfg.Seed == 0 {
			cfg.Seed = 42
		}
		cfg.Model = warm.cfg.Model
		_, err := New(cfg)
		var fe *store.FingerprintMismatchError
		if !errors.As(err, &fe) {
			t.Fatalf("%s mismatch: got %v, want FingerprintMismatchError", tc.name, err)
		}
		if fe.Field != tc.name {
			t.Fatalf("mutated %s but error names %s", tc.name, fe.Field)
		}
	}
}

// TestRestoreAcrossParallelism: the shard count is a speed knob, not
// part of the sample, so a checkpoint written at P = 2 restores at P = 1
// and P = 3 and serves byte-identical /v1/seeds answers.
func TestRestoreAcrossParallelism(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	queries := []string{`{"k": 1, "eps": 0.3}`, `{"k": 5, "eps": 0.3}`, `{"k": 10, "eps": 0.45}`}
	answers := func(s *Service) []string {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var out []string
		for _, q := range queries {
			resp, err := http.Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(q))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/seeds %s -> %d %s %v", q, resp.StatusCode, body, err)
			}
			out = append(out, string(body))
		}
		return out
	}

	warm := testService(t, Config{Graph: g, Machines: 2, Parallelism: 2, CheckpointDir: dir})
	if _, err := warm.Warm(); err != nil {
		t.Fatal(err)
	}
	want := answers(warm)
	warm.Close()

	for _, p := range []int{1, 3} {
		s := testService(t, Config{Graph: g, Machines: 2, Parallelism: p, CheckpointDir: dir, Restore: true})
		if !s.Stats().Restored {
			t.Fatalf("P=%d: checkpoint written at P=2 did not restore", p)
		}
		if got := answers(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: restored answers differ:\n got %q\nwant %q", p, got, want)
		}
		s.Close()
	}
}

// TestNonEmptyStoreWithoutRestore: starting fresh over a non-empty
// checkpoint directory without Restore must be refused — appending a new
// run would fork the stored sample history.
func TestNonEmptyStoreWithoutRestore(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	warm := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir})
	if _, err := warm.Query(2, 0.45); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	cfg := Config{Graph: g, Machines: 2, CheckpointDir: dir, Seed: 42, KMax: 10, EpsFloor: 0.3}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("non-empty store without Restore: got %v, want a restore-hint error", err)
	}
}

// testGraphSeeded is testGraph with a different generator seed, so its
// content hash differs while everything else matches.
func testGraphSeeded(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 300, AvgDegree: 6, Seed: seed, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// TestRestoredServiceAllocatesNoNodeState: a restored daemon answers
// seed and spread queries from its resident sample, so neither cluster's
// master nor any of its workers builds the n-sized selection state
// (baseline degrees, reduce accumulator, degree-sync accumulators,
// select kernels) that only generation and distributed selection use.
func TestRestoredServiceAllocatesNoNodeState(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	warm := testService(t, Config{Graph: g, Machines: 2, CheckpointDir: dir})
	if _, err := warm.Warm(); err != nil {
		t.Fatal(err)
	}
	if !warm.mirrors[selSample].cl.NodeStateAllocated() {
		t.Fatal("a service that generated its sample reports no node state")
	}
	warm.Close()

	s, ts := testServer(t, Config{Graph: g, Machines: 2, CheckpointDir: dir, Restore: true})
	if !s.Stats().Restored {
		t.Fatal("checkpoint did not restore")
	}
	ans, code := postSeeds(t, ts.URL, 5, 0.3)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/seeds -> %d", code)
	}
	for _, mode := range []string{"rounds=200", "mode=fast"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/spread?seeds=%d,%d&%s", ts.URL, ans.Seeds[0], ans.Seeds[1], mode))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/spread %s -> %d", mode, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Generated != 0 {
		t.Fatalf("restored service generated %d RR sets", st.Generated)
	}
	for j, m := range s.mirrors {
		if m.cl.NodeStateAllocated() {
			t.Fatalf("restored service's R%d cluster allocated per-node selection state", j+1)
		}
	}
}
