package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// fragileClusters builds single-worker C1/C2 clusters whose R1 worker
// dies at the killAt'th call. Without respawn no replacement is ever
// available — the worst case the serve layer must degrade through, not
// crash on; with it a fresh worker replays the dead one's journal.
func fragileClusters(t *testing.T, g *graph.Graph, killAt int64, respawn bool) (c1, c2 *cluster.Cluster, fc *cluster.FaultConn) {
	t.Helper()
	mk := func(seed uint64, faulty bool) *cluster.Cluster {
		cfg := cluster.WorkerConfig{Graph: g, Model: diffusion.IC, Seed: seed}
		w, err := cluster.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		conn := cluster.Conn(cluster.NewLocalConn(w))
		if faulty {
			fc = cluster.NewFaultConn(conn).KillAtCall(killAt)
			conn = fc
		}
		cl, err := cluster.New([]cluster.Conn{conn}, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.EnableRecovery(cluster.Recovery{
			Respawn: func(int) (cluster.Conn, error) {
				if !respawn {
					return nil, errors.New("no replacement")
				}
				w, err := cluster.NewWorker(cfg)
				if err != nil {
					return nil, err
				}
				return cluster.NewLocalConn(w), nil
			},
			Retries: 1,
			Backoff: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	return mk(0x0111, true), mk(0x0222, false), fc
}

// TestServeDegradesOn WorkerLoss: losing the only R1 worker mid-growth
// must turn the query into a typed *DegradedError (503 + Retry-After on
// the HTTP surface) instead of a 500, and /statsz must report the worker
// down. The same loss with a working respawn is absorbed: the query is
// answered and nothing is refused.
func TestServeDegradesOnWorkerLoss(t *testing.T) {
	g := testGraph(t)
	c1, c2, _ := fragileClusters(t, g, 1, false)
	s, err := New(Config{
		Graph: g, Model: diffusion.IC, Seed: 42,
		KMax: 10, EpsFloor: 0.3,
		C1: c1, C2: c2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	_, err = s.Query(5, 0.3)
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("query with dead R1 returned %v, want *DegradedError", err)
	}
	if deg.RetryAfter <= 0 {
		t.Fatalf("degraded error carries no Retry-After hint: %+v", deg)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/seeds", "application/json",
		jsonBody(t, map[string]any{"k": 5, "eps": 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded query -> %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After header (%q)", ra)
	}

	st := s.Stats()
	if st.Degraded < 1 {
		t.Fatalf("degraded counter %d, want >= 1", st.Degraded)
	}
	if len(st.R1Workers) != 1 || st.R1Workers[0].Up {
		t.Fatalf("R1 worker health not down: %+v", st.R1Workers)
	}
	if len(st.R2Workers) != 1 || !st.R2Workers[0].Up {
		t.Fatalf("R2 worker health wrongly down: %+v", st.R2Workers)
	}

	// The health must also round-trip the HTTP stats endpoint.
	hresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var wire struct {
		R1Workers []cluster.WorkerHealth `json:"r1_workers"`
		Degraded  int64                  `json:"degraded"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.R1Workers) != 1 || wire.R1Workers[0].Up || wire.Degraded < 1 {
		t.Fatalf("statsz payload lacks fault figures: %+v", wire)
	}

	// Kill the R1 worker mid-growth again, now with a replacement the
	// recovery tier can respawn and replay onto.
	c1, c2, fc := fragileClusters(t, g, 2, true)
	r, err := New(Config{
		Graph: g, Model: diffusion.IC, Seed: 42,
		KMax: 10, EpsFloor: 0.3,
		C1: c1, C2: c2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, err := r.Query(5, 0.3); err != nil {
		t.Fatalf("query through a respawned worker: %v", err)
	}
	if fc.Faults() == 0 {
		t.Fatal("the kill never fired")
	}
	if st := r.Stats(); st.Degraded != 0 {
		t.Fatalf("recovered worker loss refused %d queries, want 0", st.Degraded)
	}
}

// TestServeAnswersFromSurvivingSample: a query the resident certificate
// already covers must keep being answered after the workers die — only
// growth needs them.
func TestServeAnswersFromSurvivingSample(t *testing.T) {
	g := testGraph(t)
	// Kill R1's worker after enough calls for the first query's growth
	// rounds to complete (each round is generate + degree-delta + fetch).
	c1, c2, fc := fragileClusters(t, g, 1<<30, false)
	s, err := New(Config{
		Graph: g, Model: diffusion.IC, Seed: 42,
		KMax: 10, EpsFloor: 0.3,
		CacheSize: -1, // disable the LRU so reuse hits the resident sample
		C1:        c1, C2: c2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	first, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fc.KillAtCall(fc.Calls() + 1) // every further R1 call now fails

	again, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatalf("resident-sample query after worker death: %v", err)
	}
	if again.Epoch != first.Epoch || len(again.Seeds) != len(first.Seeds) {
		t.Fatalf("surviving-sample answer changed: %+v vs %+v", again, first)
	}
	for i := range first.Seeds {
		if again.Seeds[i] != first.Seeds[i] {
			t.Fatal("surviving-sample answer not identical")
		}
	}

	// A harder query that needs growth degrades instead of failing hard.
	_, err = s.Query(10, 0.3)
	var deg *DegradedError
	if err != nil && !errors.As(err, &deg) {
		t.Fatalf("growth query after worker death returned %v, want success or *DegradedError", err)
	}
}
