package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/offheap"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferential(graph.GenConfig{Nodes: 300, AvgDegree: 6, Seed: 17, UniformAttach: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func testService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = testGraph(t)
	}
	cfg.Model = diffusion.IC
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.KMax == 0 {
		cfg.KMax = 10
	}
	if cfg.EpsFloor == 0 {
		cfg.EpsFloor = 0.3
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestQueryReuse is the acceptance scenario: a second query with a
// smaller k must be served entirely from the resident sample (zero new
// RR generation, observable via the Generated counter) and must equal
// the answer a cold service computes at the same epoch.
func TestQueryReuse(t *testing.T) {
	g := testGraph(t)
	warm := testService(t, Config{Graph: g, Machines: 2})

	a1, err := warm.Query(10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	genAfterFirst := warm.Stats().Generated
	if genAfterFirst == 0 {
		t.Fatal("first query generated no RR sets")
	}

	a2, err := warm.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Generated != genAfterFirst {
		t.Fatalf("second query generated %d new RR sets, want 0 (reuse)",
			st.Generated-genAfterFirst)
	}
	if a2.Cached || a2.GrowRounds != 0 {
		t.Fatalf("second query: cached=%v growRounds=%d, want fresh reuse", a2.Cached, a2.GrowRounds)
	}
	if st.ReuseHits != 1 {
		t.Fatalf("reuse hits = %d, want 1", st.ReuseHits)
	}
	if a2.Epoch != a1.Epoch {
		t.Fatalf("reusing query moved the epoch %d -> %d", a1.Epoch, a2.Epoch)
	}

	// Greedy prefix consistency: the k=5 answer is the first 5 of the k=10
	// answer, selected over the same deterministic collection.
	for i, u := range a2.Seeds {
		if a1.Seeds[i] != u {
			t.Fatalf("seed %d: reuse answer %d != prefix of k=10 answer %d", i, u, a1.Seeds[i])
		}
	}

	// Cold-run equivalence: a fresh service with the same config, driven
	// through the same growth history, answers k=5 identically.
	cold := testService(t, Config{Graph: g, Machines: 2})
	for cold.Stats().Epoch < a2.Epoch {
		if err := cold.grow(cold.Stats().Epoch); err != nil {
			t.Fatal(err)
		}
	}
	a3, err := cold.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Epoch != a2.Epoch || a3.Theta != a2.Theta {
		t.Fatalf("cold run reached (epoch %d, theta %d), warm at (%d, %d)",
			a3.Epoch, a3.Theta, a2.Epoch, a2.Theta)
	}
	if fmt.Sprint(a3.Seeds) != fmt.Sprint(a2.Seeds) {
		t.Fatalf("cold-run seeds %v != warm reuse seeds %v", a3.Seeds, a2.Seeds)
	}
	if a3.Ratio != a2.Ratio {
		t.Fatalf("cold-run certificate %v != warm certificate %v", a3.Ratio, a2.Ratio)
	}
}

// TestQueryCertificate: every answer's certificate must reach the
// guarantee the query asked for (the service keeps growing until it
// does, and ThetaMax is sized so that the cap also suffices whp).
func TestQueryCertificate(t *testing.T) {
	s := testService(t, Config{})
	for _, k := range []int{1, 3, 10} {
		ans, err := s.Query(k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - 1/math.E - 0.3
		if ans.Ratio < want && ans.Theta < s.budget.ThetaMax {
			t.Fatalf("k=%d certified ratio %.4f < %.4f with theta %d below the cap",
				k, ans.Ratio, want, ans.Theta)
		}
		if ans.SpreadLower <= 0 || ans.OptUpper < ans.SpreadLower {
			t.Fatalf("k=%d degenerate certificate: lower %v upper %v", k, ans.SpreadLower, ans.OptUpper)
		}
		if len(ans.Seeds) != k {
			t.Fatalf("k=%d returned %d seeds", k, len(ans.Seeds))
		}
	}
}

// TestQueryValidation: out-of-range queries are typed client errors.
func TestQueryValidation(t *testing.T) {
	s := testService(t, Config{})
	cases := []struct {
		k   int
		eps float64
	}{{0, 0.3}, {11, 0.3}, {5, 0.1}, {5, 1.0}}
	for _, c := range cases {
		_, err := s.Query(c.k, c.eps)
		var bad *BadQueryError
		if err == nil || !errors.As(err, &bad) {
			t.Fatalf("Query(%d, %v) = %v, want *BadQueryError", c.k, c.eps, err)
		}
	}
}

// TestQueryCache: repeating a query hits the LRU; growth invalidates it.
func TestQueryCache(t *testing.T) {
	s := testService(t, Config{})
	a1, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cached {
		t.Fatal("first query served from an empty cache")
	}
	a2, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if fmt.Sprint(a2.Seeds) != fmt.Sprint(a1.Seeds) {
		t.Fatal("cached answer differs from the original")
	}
	if got := s.Stats().CacheHits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	// Growth bumps the epoch; the stale entry must not be served.
	if err := s.grow(a1.Epoch); err != nil {
		t.Fatal(err)
	}
	a3, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Cached {
		t.Fatal("served a pre-growth cached answer after the epoch moved")
	}
	if a3.Epoch == a1.Epoch {
		t.Fatalf("epoch did not move across growth")
	}
}

// TestConcurrentQueriesDeterministic hammers the service with mixed k
// from many goroutines while growth races underneath (run with -race).
// Every answer must carry a certificate meeting its ε, and answers for
// the same (k, ε, epoch) must be identical across goroutines.
func TestConcurrentQueriesDeterministic(t *testing.T) {
	s := testService(t, Config{Machines: 2, CacheSize: -1}) // no LRU: every answer recomputed

	const goroutines = 8
	const perG = 6
	type obs struct {
		k     int
		epoch uint64
		seeds string
		ratio float64
	}
	results := make(chan obs, goroutines*perG)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for q := 0; q < perG; q++ {
				k := 1 + (gi+q)%10
				ans, err := s.Query(k, 0.3)
				if err != nil {
					t.Errorf("Query(%d): %v", k, err)
					return
				}
				results <- obs{k: k, epoch: ans.Epoch, seeds: fmt.Sprint(ans.Seeds), ratio: ans.Ratio}
			}
		}(gi)
	}
	wg.Wait()
	close(results)

	target := 1 - 1/math.E - 0.3
	byKey := map[string]obs{}
	for o := range results {
		if o.ratio < target {
			// Only acceptable once the sample has hit its growth cap.
			if st := s.Stats(); st.Theta < st.ThetaMax {
				t.Fatalf("k=%d epoch=%d ratio %.4f below target %.4f pre-cap", o.k, o.epoch, o.ratio, target)
			}
		}
		key := fmt.Sprintf("%d@%d", o.k, o.epoch)
		if prev, ok := byKey[key]; ok {
			if prev.seeds != o.seeds {
				t.Fatalf("nondeterministic answer for %s:\n  %s\n  %s", key, prev.seeds, o.seeds)
			}
		} else {
			byKey[key] = o
		}
	}
}

// TestSpread: the forward-simulation endpoint returns a sane estimate.
func TestSpread(t *testing.T) {
	s := testService(t, Config{})
	ans, err := s.Query(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mean, stderr, err := s.Spread(ans.Seeds, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 5 || mean > 300 {
		t.Fatalf("simulated spread %v outside [k, n]", mean)
	}
	if stderr <= 0 {
		t.Fatalf("stderr %v", stderr)
	}
	// The certified lower bound must not exceed simulation by a wide
	// margin (it holds whp; allow generous slack for MC noise).
	if ans.SpreadLower > mean+10*stderr+5 {
		t.Fatalf("certified lower bound %v far above simulated spread %v±%v",
			ans.SpreadLower, mean, stderr)
	}

	if _, _, err := s.Spread(nil, 100); err == nil {
		t.Fatal("empty seed set accepted")
	}
	if _, _, err := s.Spread([]uint32{999}, 100); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestAnswerCacheLRU(t *testing.T) {
	c := newAnswerCache(2)
	mk := func(k int) *Answer { return &Answer{K: k} }
	c.put(1, 0.3, mk(1))
	c.put(2, 0.3, mk(2))
	c.put(3, 0.3, mk(3)) // evicts k=1
	if _, ok := c.get(1, 0.3); ok {
		t.Fatal("k=1 survived past capacity")
	}
	if _, ok := c.get(2, 0.3); !ok {
		t.Fatal("k=2 evicted early")
	}
	c.put(4, 0.3, mk(4)) // k=3 is now LRU, evicted
	if _, ok := c.get(3, 0.3); ok {
		t.Fatal("k=3 survived past capacity")
	}
	// Epoch bump invalidates everything.
	c.put(5, 0.3, &Answer{K: 5, Epoch: 1})
	if _, ok := c.get(2, 0.3); ok {
		t.Fatal("stale-epoch entry served")
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries after epoch flush, want 1", c.len())
	}
	// Older-epoch answers arriving late are dropped.
	c.put(6, 0.3, &Answer{K: 6, Epoch: 0})
	if _, ok := c.get(6, 0.3); ok {
		t.Fatal("pre-growth answer cached after the epoch moved")
	}
}

// TestCloseReleasesMirrors: Close frees both mirrors' off-heap samples
// and indexes at once, and a query after it fails instead of growing.
func TestCloseReleasesMirrors(t *testing.T) {
	base := offheap.Mapped()
	s := testService(t, Config{Machines: 2, EpsFloor: 0.1, KMax: 20})
	if _, err := s.Query(20, 0.1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if perMirror := 4 * st.TotalRRSize / 2; perMirror < offheap.MinBytes {
		t.Fatalf("each mirror holds about %d bytes of members, want at least %d to map them", perMirror, offheap.MinBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := offheap.Mapped(); got != base {
		t.Fatalf("%d bytes still mapped after Close", got-base)
	}
	if _, err := s.Query(5, 0.3); !errors.Is(err, errClosed) {
		t.Fatalf("query after Close: %v, want %v", err, errClosed)
	}
	if got := s.Stats().Generated; got != st.Generated {
		t.Fatalf("a query after Close generated %d RR sets", got-st.Generated)
	}
}
