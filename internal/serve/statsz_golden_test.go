package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"dimm/internal/metrics"
)

// statszFields is the golden list of top-level /statsz JSON fields.
// The payload is a wire contract — dashboards and the bench harness
// parse it by name — so migrating the counters onto the metric registry
// must not rename, drop, or add fields. Deliberate schema changes must
// update this list in the same commit.
var statszFields = []string{
	"epoch", "theta", "theta_max", "total_rr_size", "k_max", "eps_floor",
	"queries", "cache_hits", "reuse_hits", "grow_rounds", "generated",
	"sketch_k", "sketch_theta", "sketch_restored", "sketch_builds",
	"sketch_build_seconds", "sketch_estimates", "fast_spread_queries",
	"restored", "restored_epochs", "restored_theta",
	"checkpoint_epochs", "checkpoint_bytes", "checkpoint_errors", "checkpoint_seconds",
	"batch_width", "batch_cohorts", "batch_waves", "batch_frontier_items",
	"batch_skipped_edges", "batch_waves_per_generate", "batch_frontier_occupancy",
	"r1_workers", "r2_workers", "degraded",
	"graph_version", "updates", "repaired_rr_sets", "remirrors", "update_debt",
	"in_flight", "rejected", "uptime_seconds", "endpoints",
}

// endpointFields is the golden list for each row of "endpoints".
var endpointFields = []string{"count", "errors", "p50_ms", "p99_ms"}

// TestStatszGoldenFields serves a live /statsz and asserts the payload
// carries exactly the pinned field set — no more, no fewer.
func TestStatszGoldenFields(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, code := postSeeds(t, ts.URL, 3, 0.3); code != http.StatusOK {
		t.Fatalf("POST /v1/seeds -> %d", code)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statsz -> %d", resp.StatusCode)
	}
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	got := make([]string, 0, len(payload))
	for k := range payload {
		got = append(got, k)
	}
	want := append([]string(nil), statszFields...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/statsz fields changed:\n got  %v\n want %v", got, want)
	}

	// Every endpoint row must keep its shape too.
	var eps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(payload["endpoints"], &eps); err != nil {
		t.Fatalf("endpoints: %v", err)
	}
	row, ok := eps["seeds"]
	if !ok {
		t.Fatalf("endpoints missing the seeds row after a served query: %v", eps)
	}
	gotRow := make([]string, 0, len(row))
	for k := range row {
		gotRow = append(gotRow, k)
	}
	wantRow := append([]string(nil), endpointFields...)
	sort.Strings(gotRow)
	sort.Strings(wantRow)
	if !reflect.DeepEqual(gotRow, wantRow) {
		t.Errorf("endpoint row fields changed:\n got  %v\n want %v", gotRow, wantRow)
	}
}

// TestMetricszSnapshot exercises the raw registry export: the payload
// must parse back as a metrics.Snapshot and carry the service counters
// plus both clusters' metrics under their r1./r2. prefixes.
func TestMetricszSnapshot(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, code := postSeeds(t, ts.URL, 3, 0.3); code != http.StatusOK {
		t.Fatalf("POST /v1/seeds -> %d", code)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		"svc.queries", "svc.generated",
		"http.seeds.count", "http.seeds.latency_ns",
		"r1.cluster.rounds", "r2.cluster.rounds",
		"r1.cluster.gen.critical_ns", "r2.cluster.bytes_sent",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("/metricsz missing %q", name)
		}
	}
	if got := snap["svc.queries"].Sum; got < 1 {
		t.Errorf("svc.queries = %d after a served query, want >= 1", got)
	}
	if snap["http.seeds.latency_ns"].Kind != metrics.KindUnivariate {
		t.Errorf("http.seeds.latency_ns kind = %q, want %q",
			snap["http.seeds.latency_ns"].Kind, metrics.KindUnivariate)
	}
}
