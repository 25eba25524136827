package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestFastSpreadAvoidsSampleLock is the acceptance check that
// ?mode=fast spread reads never touch the RR sample's lock: with the
// epoch lock write-held AND the cluster lock held (a worst-case grower
// stall), SpreadSketch must still answer.
func TestFastSpreadAvoidsSampleLock(t *testing.T) {
	s := testService(t, Config{})
	if _, err := s.Query(5, 0.3); err != nil {
		t.Fatal(err) // populate sample + sketch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()

	done := make(chan error, 1)
	go func() {
		est, rel, err := s.SpreadSketch([]uint32{1, 2, 3})
		if err == nil && (est <= 0 || rel <= 0) {
			err = fmt.Errorf("degenerate fast spread %v ± %v", est, rel)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast spread blocked on the sample or cluster lock")
	}
}

// TestFastTierDisabled: SketchK < 0 turns the sketch tier off; fast
// spread requests are typed client errors, seed service is unaffected.
func TestFastTierDisabled(t *testing.T) {
	s := testService(t, Config{SketchK: -1})
	var bad *BadQueryError
	if _, _, err := s.SpreadSketch([]uint32{1}); !errors.As(err, &bad) {
		t.Fatalf("fast spread on disabled tier: %v, want *BadQueryError", err)
	}
	if _, err := s.Query(5, 0.3); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SketchK != 0 || st.SketchBuilds != 0 {
		t.Fatalf("disabled tier leaked counters: %+v", st)
	}
}

// TestSketchRestore: a restart restores the sketch segment byte-for-byte
// when the parameters match, and rebuilds from the restored RR sample
// when they do not — either way the fast tier is warm before the first
// query.
func TestSketchRestore(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	s1 := testService(t, Config{Graph: g, CheckpointDir: dir})
	if _, err := s1.Query(5, 0.3); err != nil {
		t.Fatal(err)
	}
	theta := s1.Stats().Theta
	s1.Close()

	s2 := testService(t, Config{Graph: g, CheckpointDir: dir, Restore: true})
	st := s2.Stats()
	if !st.Restored || st.Theta != theta {
		t.Fatalf("sample restore: %+v", st)
	}
	if !st.SketchRestored || st.SketchTheta != theta {
		t.Fatalf("sketch not adopted from the store: restored=%v theta=%d/%d",
			st.SketchRestored, st.SketchTheta, theta)
	}
	if est, _, err := s2.SpreadSketch([]uint32{1, 2}); err != nil || est <= 0 {
		t.Fatalf("restored sketch not serving: %v, %v", est, err)
	}
	s2.Close()

	// Different K: the stored segment is rejected (parameter mismatch)
	// and the sketch rebuilds from the restored sample instead.
	s3 := testService(t, Config{Graph: g, CheckpointDir: dir, Restore: true, SketchK: 32})
	st = s3.Stats()
	if st.SketchRestored {
		t.Fatal("adopted a stored sketch with the wrong K")
	}
	if st.SketchK != 32 || st.SketchTheta != theta {
		t.Fatalf("rebuild after mismatch: %+v", st)
	}
	if est, _, err := s3.SpreadSketch([]uint32{1, 2}); err != nil || est <= 0 {
		t.Fatalf("rebuilt sketch not serving: %v, %v", est, err)
	}
}

// TestHTTPRetryAfter429: admission-control rejections must carry a
// Retry-After header (RFC 6585 guidance), not just the 429 status.
func TestHTTPRetryAfter429(t *testing.T) {
	s, ts := testServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{}
	resp, err := http.Post(ts.URL+"/v1/seeds", "application/json", nil)
	<-s.sem
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server -> %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
}

// TestHTTPModeKnob drives ?mode= through the full HTTP stack on both
// endpoints.
func TestHTTPModeKnob(t *testing.T) {
	_, ts := testServer(t, Config{})

	// Cold fast spread: 503 with a backoff hint, not a wrong answer.
	resp, err := http.Get(ts.URL + "/v1/spread?seeds=1,2&mode=fast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("cold fast spread -> %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// ?mode=fast on seeds is accepted and returns the certified answer,
	// field for field (it is read off the same ledger).
	fast, code := postSeedsMode(t, ts.URL, 5, 0.3, "fast")
	if code != http.StatusOK {
		t.Fatalf("fast seeds -> %d", code)
	}
	cert, code := postSeedsMode(t, ts.URL, 5, 0.3, "certified")
	if code != http.StatusOK || cert.Mode != ModeCertified || len(cert.Seeds) != 5 {
		t.Fatalf("certified seeds -> %d %+v", code, cert)
	}
	fast.GrowRounds = cert.GrowRounds // the first of the two warmed the sample
	if !reflect.DeepEqual(fast, cert) {
		t.Fatalf("mode=fast seeds differ from the certified answer:\n  %+v\n  %+v", fast, cert)
	}

	// Warm fast spread: sketch-only estimate with its error bar.
	resp, err = http.Get(ts.URL + "/v1/spread?seeds=1,2&mode=fast")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm fast spread -> %d", resp.StatusCode)
	}
	var sp spreadResponse
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	if sp.Mode != ModeFast || sp.Mean <= 0 || sp.RelStderr <= 0 || sp.Rounds != 0 {
		t.Fatalf("bad fast spread response: %+v", sp)
	}

	// Unknown mode: 400 on both endpoints.
	if _, code := postSeedsMode(t, ts.URL, 5, 0.3, "turbo"); code != http.StatusBadRequest {
		t.Fatalf("mode=turbo seeds -> %d, want 400", code)
	}
	resp, err = http.Get(ts.URL + "/v1/spread?seeds=1&mode=turbo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mode=turbo spread -> %d, want 400", resp.StatusCode)
	}
}

func postSeedsMode(t *testing.T, url string, k int, eps float64, mode string) (*Answer, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"k": k, "eps": eps})
	resp, err := http.Post(url+"/v1/seeds?mode="+mode, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var ans Answer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	return &ans, resp.StatusCode
}
