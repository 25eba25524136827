package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestFastQuery drives a mode=fast seed query end to end: it is answered
// by the certified greedy, labeled so, and cached under the same (k, ε)
// key as the query without a mode. The sketch tier still absorbs the
// sample for fast spread, which can score the seeds just served.
func TestFastQuery(t *testing.T) {
	s := testService(t, Config{Machines: 2})

	ansF, err := s.QueryMode(5, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	if ansF.Mode != ModeCertified || len(ansF.Seeds) != 5 {
		t.Fatalf("fast answer: mode=%q seeds=%v", ansF.Mode, ansF.Seeds)
	}
	target := 1 - 1/math.E - 0.3
	if ansF.Ratio < target && ansF.Theta < s.budget.ThetaMax {
		t.Fatalf("fast answer served with ratio %.4f < %.4f pre-cap", ansF.Ratio, target)
	}
	seen := map[uint32]bool{}
	for _, u := range ansF.Seeds {
		if int(u) >= s.n || seen[u] {
			t.Fatalf("bad fast seed set %v", ansF.Seeds)
		}
		seen[u] = true
	}

	// One answer path, one cache entry: the certified query for the same
	// (k, ε) is a hit on the fast query's answer, and vice versa.
	ansC, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !ansC.Cached || ansC.Mode != ModeCertified || fmt.Sprint(ansC.Seeds) != fmt.Sprint(ansF.Seeds) {
		t.Fatalf("certified re-query: cached=%v mode=%q seeds=%v, want the fast answer %v",
			ansC.Cached, ansC.Mode, ansC.Seeds, ansF.Seeds)
	}
	hitF, err := s.QueryMode(5, 0.3, ModeFast)
	if err != nil {
		t.Fatal(err)
	}
	if !hitF.Cached || hitF.Mode != ModeCertified || hitF.Epoch != ansF.Epoch {
		t.Fatalf("fast re-query: cached=%v mode=%q epoch=%d/%d", hitF.Cached, hitF.Mode, hitF.Epoch, ansF.Epoch)
	}

	est, _, err := s.SpreadSketch(ansF.Seeds)
	if err != nil || est <= 0 {
		t.Fatalf("fast spread of the served seeds: %v (%v)", est, err)
	}
	st := s.Stats()
	if st.Queries != 3 || st.CacheHits != 2 {
		t.Fatalf("queries=%d cache_hits=%d, want 3 and 2", st.Queries, st.CacheHits)
	}
	if st.SketchBuilds == 0 || st.SketchEstimates == 0 || st.FastSpreadQueries != 1 {
		t.Fatalf("sketch-tier counters: %+v", st)
	}
	if st.SketchTheta != st.Theta {
		t.Fatalf("sketch absorbed %d instances, sample holds %d", st.SketchTheta, st.Theta)
	}
}

// TestFastQueryDeterministic: mode=fast answers are a pure function of
// (config, epoch), and equal to the certified answer of a twin service.
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
	if !reflect.DeepEqual(ansA, ansB) {
		t.Fatalf("fast answers diverged:\n  %+v\n  %+v", ansA, ansB)
	}
	c := testService(t, Config{Graph: g, Machines: 2})
	cer, err := c.Query(7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ansA, cer) {
		t.Fatalf("fast answer differs from the certified one:\n  fast:      %+v\n  certified: %+v", ansA, cer)
	}
	if sa, sb := a.Stats(), b.Stats(); sa.SketchTheta != sb.SketchTheta || sa.Theta != sb.Theta {
		t.Fatalf("sketch theta %d vs %d, sample theta %d vs %d",
			sa.SketchTheta, sb.SketchTheta, sa.Theta, sb.Theta)
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

// TestFastTierDisabled: SketchK < 0 turns the sketch tier off. Fast
// spread is then a typed client error (400 over HTTP); fast seeds are an
// alias for the certified path and still get an answer.
func TestFastTierDisabled(t *testing.T) {
	s, ts := testServer(t, Config{SketchK: -1})
	var bad *BadQueryError
	if _, _, err := s.SpreadSketch([]uint32{1}); !errors.As(err, &bad) {
		t.Fatalf("fast spread on disabled tier: %v, want *BadQueryError", err)
	}
	resp, err := http.Get(ts.URL + "/v1/spread?seeds=1&mode=fast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fast spread on disabled tier -> %d, want 400", resp.StatusCode)
	}
	ans, code := postSeedsMode(t, ts.URL, 5, 0.3, "fast")
	if code != http.StatusOK || ans.Mode != ModeCertified || len(ans.Seeds) != 5 {
		t.Fatalf("fast seeds on disabled tier -> %d %+v", code, ans)
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
	seeds := []uint32{1, 2, 3}
	s1 := testService(t, Config{Graph: g, CheckpointDir: dir})
	if _, err := s1.Query(5, 0.3); err != nil {
		t.Fatal(err)
	}
	theta := s1.Stats().Theta
	want, _, err := s1.SpreadSketch(seeds)
	if err != nil {
		t.Fatal(err)
	}
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
	if got, _, err := s2.SpreadSketch(seeds); err != nil || got != want {
		t.Fatalf("restored sketch estimates %v (%v), the checkpointed one %v", got, err, want)
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
	if est, _, err := s3.SpreadSketch(seeds); err != nil || est <= 0 {
		t.Fatalf("rebuilt sketch estimates %v (%v)", est, err)
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
// endpoints: fast spread reads the sketch tier, fast seeds are the
// certified answer, unknown modes are 400s.
func TestHTTPModeKnob(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{Graph: g, Machines: 2})

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

	// Fast seeds are the certified path: the same seeds, θ, epoch and
	// certificate as the same query without a mode on a twin service.
	fast, code := postSeedsMode(t, ts.URL, 7, 0.3, "fast")
	if code != http.StatusOK {
		t.Fatalf("fast seeds -> %d", code)
	}
	_, twin := testServer(t, Config{Graph: g, Machines: 2})
	plain, code := postSeeds(t, twin.URL, 7, 0.3)
	if code != http.StatusOK {
		t.Fatalf("plain seeds -> %d", code)
	}
	if fast.Mode != ModeCertified || fast.Cached || !reflect.DeepEqual(fast, plain) {
		t.Fatalf("mode=fast answer differs from the certified one:\n  fast:  %+v\n  plain: %+v", fast, plain)
	}
	// One cache key per (k, ε): a repeat in either spelling is a hit.
	for _, mode := range []string{"fast", ""} {
		hit, code := postSeedsMode(t, ts.URL, 7, 0.3, mode)
		if code != http.StatusOK || !hit.Cached || fmt.Sprint(hit.Seeds) != fmt.Sprint(fast.Seeds) {
			t.Fatalf("repeat with mode=%q -> %d %+v, want the cached answer", mode, code, hit)
		}
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
