package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := testService(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSeeds(t *testing.T, url string, k int, eps float64) (*Answer, int) {
	t.Helper()
	return postSeedsMode(t, url, k, eps, "")
}

func TestHTTPSeeds(t *testing.T) {
	_, ts := testServer(t, Config{})
	ans, code := postSeeds(t, ts.URL, 5, 0.3)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/seeds -> %d", code)
	}
	if len(ans.Seeds) != 5 || ans.Ratio <= 0 {
		t.Fatalf("bad answer: %+v", ans)
	}

	// Inadmissible query -> 400, not 500.
	if _, code := postSeeds(t, ts.URL, 0, 0.3); code != http.StatusBadRequest {
		t.Fatalf("k=0 -> %d, want 400", code)
	}
	// Malformed body -> 400.
	resp, err := http.Post(ts.URL+"/v1/seeds", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body -> %d, want 400", resp.StatusCode)
	}
	// Wrong method -> 405 from the method-pattern mux.
	resp, err = http.Get(ts.URL + "/v1/seeds")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/seeds -> %d, want 405", resp.StatusCode)
	}
}

func TestHTTPSpreadAndHealth(t *testing.T) {
	_, ts := testServer(t, Config{})
	ans, _ := postSeeds(t, ts.URL, 3, 0.3)

	var seedsCSV string
	for i, u := range ans.Seeds {
		if i > 0 {
			seedsCSV += ","
		}
		seedsCSV += fmt.Sprint(u)
	}
	resp, err := http.Get(ts.URL + "/v1/spread?seeds=" + seedsCSV + "&rounds=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/spread -> %d", resp.StatusCode)
	}
	var sp spreadResponse
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	if sp.Mean <= 0 || sp.Rounds != 1000 {
		t.Fatalf("bad spread response: %+v", sp)
	}

	resp, err = http.Get(ts.URL + "/v1/spread?seeds=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seeds -> %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz -> %d", resp.StatusCode)
	}
}

func TestHTTPStatsz(t *testing.T) {
	_, ts := testServer(t, Config{})
	postSeeds(t, ts.URL, 5, 0.3)
	postSeeds(t, ts.URL, 5, 0.3) // cache hit

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.CacheHits != 1 {
		t.Fatalf("stats queries=%d cacheHits=%d, want 2/1", st.Queries, st.CacheHits)
	}
	if st.Theta == 0 || st.Generated == 0 || st.Epoch == 0 {
		t.Fatalf("sample counters empty: %+v", st)
	}
	ep, ok := st.Endpoint["seeds"]
	if !ok {
		t.Fatalf("no endpoint stats for seeds: %v", st.Endpoint)
	}
	if ep.Count != 2 || ep.Errors != 0 || ep.P99Ms < ep.P50Ms {
		t.Fatalf("bad endpoint snapshot: %+v", ep)
	}
}

// TestHTTPAdmissionControl: with MaxInFlight=1 and the single slot held,
// a concurrent query is rejected with 429 and counted.
func TestHTTPAdmissionControl(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{} // occupy the only slot
	_, code := postSeeds(t, ts.URL, 5, 0.3)
	<-s.sem
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated server -> %d, want 429", code)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Slot released: the same query now succeeds.
	if _, code := postSeeds(t, ts.URL, 5, 0.3); code != http.StatusOK {
		t.Fatalf("post-release query -> %d", code)
	}
}

// TestHTTPConcurrent drives mixed queries through the full HTTP stack
// (run with -race to exercise handler/grower interleavings).
func TestHTTPConcurrent(t *testing.T) {
	_, ts := testServer(t, Config{Machines: 2})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for q := 0; q < 4; q++ {
				k := 1 + (i+q)%10
				body, _ := json.Marshal(map[string]any{"k": k, "eps": 0.3})
				resp, err := http.Post(ts.URL+"/v1/seeds", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("k=%d: %v", k, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("k=%d -> %d", k, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
