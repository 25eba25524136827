package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"
)

// TestFastQuery drives the fast tier end to end: sketch-ranked seeds,
// certified before serving, cached under the fast mode key only.
func TestFastQuery(t *testing.T) {
	s := testService(t, Config{Machines: 2})

	ansF, err := s.QueryMode(5, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	if ansF.Mode != ModeFast || len(ansF.Seeds) != 5 {
		t.Fatalf("fast answer: mode=%q seeds=%v", ansF.Mode, ansF.Seeds)
	}
	target := 1 - 1/math.E - 0.3
	if ansF.Ratio < target && ansF.Theta < s.budget.ThetaMax {
		t.Fatalf("fast answer served with ratio %.4f < %.4f pre-cap", ansF.Ratio, target)
	}
	if ansF.SketchSpread <= 0 {
		t.Fatalf("fast answer carries no sketch spread estimate: %+v", ansF)
	}
	seen := map[uint32]bool{}
	for _, u := range ansF.Seeds {
		if int(u) >= s.n || seen[u] {
			t.Fatalf("bad fast seed set %v", ansF.Seeds)
		}
		seen[u] = true
	}

	// Mode-aliasing regression: the cached fast answer must NOT be served
	// to a certified query for the same (k, ε) — the modes select
	// differently and the client asked for the greedy guarantee.
	ansC, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if ansC.Cached {
		t.Fatal("certified query aliased the fast tier's cache entry")
	}
	if ansC.Mode != ModeCertified {
		t.Fatalf("certified answer labeled %q", ansC.Mode)
	}

	// Both modes re-queried: each hits its own entry, modes preserved.
	for ansC.Epoch != ansF.Epoch {
		// Certified growth invalidated the fast entry; recompute fast on
		// the new epoch (bounded: the sample only grows toward its cap).
		if ansF, err = s.QueryMode(5, 0.3, ModeFast); err != nil {
			t.Fatal(err)
		}
		if ansF.Epoch == ansC.Epoch {
			break
		}
		if ansC, err = s.Query(5, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	hitF, err := s.QueryMode(5, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	hitC, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !hitF.Cached || hitF.Mode != ModeFast {
		t.Fatalf("fast re-query: cached=%v mode=%q", hitF.Cached, hitF.Mode)
	}
	if !hitC.Cached || hitC.Mode != ModeCertified {
		t.Fatalf("certified re-query: cached=%v mode=%q", hitC.Cached, hitC.Mode)
	}

	st := s.Stats()
	if st.FastSeedQueries == 0 || st.SketchBuilds == 0 || st.SketchEstimates == 0 {
		t.Fatalf("fast-tier counters empty: %+v", st)
	}
	if st.FastAgreeChecked == 0 {
		t.Fatal("no fast/certified agreement sample collected at a shared epoch")
	}
	if st.SketchTheta != st.Theta {
		t.Fatalf("sketch absorbed %d instances, sample holds %d", st.SketchTheta, st.Theta)
	}
}

// TestFastQueryDeterministic: fast answers are a pure function of
// (config, epoch), like certified ones.
func TestFastQueryDeterministic(t *testing.T) {
	g := testGraph(t)
	a := testService(t, Config{Graph: g, Machines: 2})
	b := testService(t, Config{Graph: g, Machines: 2})
	ansA, err := a.QueryMode(7, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	ansB, err := b.QueryMode(7, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ansA.Seeds) != fmt.Sprint(ansB.Seeds) || ansA.Epoch != ansB.Epoch {
		t.Fatalf("fast answers diverged:\n  %v @%d\n  %v @%d",
			ansA.Seeds, ansA.Epoch, ansB.Seeds, ansB.Epoch)
	}
	// The certified answer on the same epoch, and with it the two tiers'
	// seed-set agreement, is just as deterministic.
	cerA, err := a.Query(7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cerB, err := b.Query(7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cerA.Seeds) != fmt.Sprint(cerB.Seeds) {
		t.Fatalf("certified answers diverged:\n  %v\n  %v", cerA.Seeds, cerB.Seeds)
	}
	if sa, sb := a.Stats(), b.Stats(); sa.SketchTheta != sb.SketchTheta || sa.FastAgreeMatched != sb.FastAgreeMatched {
		t.Fatalf("sketch theta %d vs %d, agreement %d vs %d",
			sa.SketchTheta, sb.SketchTheta, sa.FastAgreeMatched, sb.FastAgreeMatched)
	}
}

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

// TestFastTierDisabled: SketchK < 0 turns the tier off; fast requests
// are typed client errors, certified service is unaffected.
func TestFastTierDisabled(t *testing.T) {
	s := testService(t, Config{SketchK: -1})
	var bad *BadQueryError
	if _, err := s.QueryMode(5, 0.3, ModeFast); !errors.As(err, &bad) {
		t.Fatalf("fast query on disabled tier: %v, want *BadQueryError", err)
	}
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
	if _, err := s2.QueryMode(5, 0.3, ModeFast); err != nil {
		t.Fatal(err)
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
	if _, err := s3.QueryMode(5, 0.3, ModeFast); err != nil {
		t.Fatal(err)
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

	// Fast seeds over HTTP.
	ans, code := postSeedsMode(t, ts.URL, 5, 0.3, "fast")
	if code != http.StatusOK || ans.Mode != ModeFast || len(ans.Seeds) != 5 {
		t.Fatalf("fast seeds -> %d %+v", code, ans)
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
