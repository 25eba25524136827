package serve

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"dimm/internal/core"
)

// referenceAnswer answers (k, ε) on the service's current epoch the way
// every query was answered before the ledger existed: a fresh k-greedy
// over R1, R2 prefix coverage counted set by set (no index), and a
// certificate per prefix. ok=false means the old rule would grow the
// sample instead of serving.
func referenceAnswer(t *testing.T, s *Service, k int, eps float64) (ans *Answer, ok bool) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	theta := int64(s.r1.Count())
	if theta == 0 {
		return nil, false
	}
	sel, err := core.SelectFromSample(s.r1, s.idx1, s.n, k, s.par)
	if err != nil {
		t.Fatal(err)
	}
	rank := make(map[uint32]int, k)
	for i, u := range sel.Seeds {
		rank[u] = i
	}
	cov2s := make([]int64, k) // first as "sets first covered by seed i", then summed
	snap := s.r2.Snapshot()
	for j := 0; j < snap.Count(); j++ {
		first := k
		for _, v := range snap.Set(j) {
			if i, in := rank[v]; in && i < first {
				first = i
			}
		}
		if first < k {
			cov2s[first]++
		}
	}
	for i := 1; i < k; i++ {
		cov2s[i] += cov2s[i-1]
	}

	target := 1 - 1/math.E - eps
	allPass := true
	var cov1 int64
	ans = &Answer{K: k, Eps: eps, Seeds: sel.Seeds, Mode: ModeCertified,
		Epoch: s.epoch, GraphVersion: s.gver, Theta: theta}
	for i := 0; i < k; i++ {
		cov1 += sel.Marginals[i]
		cert := core.CertifySelection(s.n, theta, cov1, cov2s[i], s.budget.TailMass)
		if cert.Ratio < target {
			allPass = false
		}
		ans.SpreadLower, ans.OptUpper, ans.Ratio = cert.SpreadLower, cert.OptUpper, cert.Ratio
	}
	ans.EstSpread = float64(s.n) * float64(cov2s[k-1]) / float64(theta)
	return ans, allPass || theta >= s.budget.ThetaMax
}

var diffEps = []float64{0.3, 0.45, 0.7, 0.95}

// diffAllQueries checks, for every admissible k and several ε, that
// Query equals the reference field for field. Where the reference would
// grow, the test grows the sample itself first, so a ledger whose serve
// rule were laxer or stricter than the old one shows up as a different
// epoch or a non-zero GrowRounds. Every query of one epoch must share
// one ledger build.
func diffAllQueries(t *testing.T, s *Service) {
	t.Helper()
	for _, eps := range diffEps {
		for k := 1; k <= s.cfg.KMax; k++ {
			want, ok := referenceAnswer(t, s, k, eps)
			for !ok {
				if err := s.grow(s.Stats().Epoch); err != nil {
					t.Fatal(err)
				}
				want, ok = referenceAnswer(t, s, k, eps)
			}
			builds := s.stats.ledgerBuilds.Value()
			got, err := s.Query(k, eps)
			if err != nil {
				t.Fatalf("Query(%d, %v): %v", k, eps, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Query(%d, %v) differs from the per-query reference:\n got  %+v\n want %+v", k, eps, got, want)
			}
			if d := s.stats.ledgerBuilds.Value() - builds; d > 1 {
				t.Fatalf("Query(%d, %v) built %d ledgers", k, eps, d)
			}
		}
	}
	st := s.Stats()
	before := st.LedgerBuilds
	for k := 1; k <= s.cfg.KMax; k++ {
		if _, err := s.Query(k, diffEps[len(diffEps)-1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().LedgerBuilds; got != before {
		t.Fatalf("%d ledger builds on an epoch that already had one", got-before)
	}
}

// TestLedgerDifferential: the ledger changes how answers are computed,
// never what they are — cold, after a growth epoch, after a restore and
// after an update repair.
func TestLedgerDifferential(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		// Each first query runs against a twin that the reference drives
		// through the same growth history, so GrowRounds is compared too.
		g := testGraph(t)
		for _, q := range []struct {
			k   int
			eps float64
		}{{1, 0.3}, {5, 0.3}, {10, 0.5}, {3, 0.95}} {
			s := testService(t, Config{Graph: g, Machines: 2})
			twin := testService(t, Config{Graph: g, Machines: 2})
			want, ok := referenceAnswer(t, twin, q.k, q.eps)
			rounds := 0
			for ; !ok; rounds++ {
				if err := twin.grow(twin.Stats().Epoch); err != nil {
					t.Fatal(err)
				}
				want, ok = referenceAnswer(t, twin, q.k, q.eps)
			}
			want.GrowRounds = rounds
			got, err := s.Query(q.k, q.eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cold Query(%d, %v):\n got  %+v\n want %+v", q.k, q.eps, got, want)
			}
		}
	})
	t.Run("warm and grown", func(t *testing.T) {
		s := testService(t, Config{Machines: 2})
		diffAllQueries(t, s)
		if err := s.grow(s.Stats().Epoch); err != nil {
			t.Fatal(err)
		}
		diffAllQueries(t, s)
	})
	t.Run("restored", func(t *testing.T) {
		g := testGraph(t)
		dir := t.TempDir()
		s1 := testService(t, Config{Graph: g, CheckpointDir: dir})
		if _, err := s1.Warm(); err != nil {
			t.Fatal(err)
		}
		s1.Close()
		s2 := testService(t, Config{Graph: g, CheckpointDir: dir, Restore: true})
		diffAllQueries(t, s2)
		if st := s2.Stats(); st.Generated != 0 || !st.Restored {
			t.Fatalf("restored service regenerated: %+v", st)
		}
	})
	t.Run("repaired", func(t *testing.T) {
		g := dynGraph(t)
		s := testService(t, Config{Graph: g, Dynamic: true, Machines: 2})
		if _, err := s.Warm(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Update(0, dynOps(t, g))
		if err != nil {
			t.Fatal(err)
		}
		if res.Repaired == 0 {
			t.Fatal("update repaired nothing; the case does not exercise a patched index")
		}
		diffAllQueries(t, s)
		if ans, err := s.Query(1, 0.95); err != nil || ans.GraphVersion != res.GraphVersion {
			t.Fatalf("post-repair answer at graph version %d, want %d (%v)", ans.GraphVersion, res.GraphVersion, err)
		}
	})
}

// TestLedgerHammer (run with -race): seed and fast-spread readers over
// HTTP while update batches and a growth round republish the sample
// underneath. All answers of one (epoch, graph version) must be prefixes
// of one greedy run, and no epoch may get more than one ledger build.
func TestLedgerHammer(t *testing.T) {
	g := dynGraph(t)
	s, ts := testServer(t, Config{Graph: g, Dynamic: true, Machines: 2})
	if _, err := s.Warm(); err != nil {
		t.Fatal(err)
	}

	const readers = 6
	type gen struct{ epoch, gver uint64 }
	var (
		mu      sync.Mutex
		longest = map[gen][]uint32{}
		all     []*Answer
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				if (r+q)%4 == 3 {
					resp, err := http.Get(ts.URL + "/v1/spread?seeds=1,2,3&mode=fast")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					continue
				}
				k := 1 + (r*3+q)%s.cfg.KMax
				ans, code := postSeedsMode(t, ts.URL, k, diffEps[q%len(diffEps)], []string{"fast", "certified"}[q%2])
				if code != http.StatusOK {
					t.Errorf("k=%d -> %d", k, code)
					return
				}
				mu.Lock()
				all = append(all, ans)
				key := gen{ans.Epoch, ans.GraphVersion}
				if len(ans.Seeds) > len(longest[key]) {
					longest[key] = ans.Seeds
				}
				mu.Unlock()
			}
		}(r)
	}
	// After every republish, hold the next one back until the readers have
	// answered on (or past) the new epoch, so each epoch is read
	// concurrently whatever the scheduler does.
	awaitReaders := func() {
		t.Helper()
		epoch := s.Stats().Epoch
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			n := 0
			for _, ans := range all {
				if ans.Epoch >= epoch {
					n++
				}
			}
			mu.Unlock()
			if n >= readers {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("readers stuck: %d answers at epoch >= %d", n, epoch)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Update(0, dynOps(t, g)); err != nil {
			t.Error(err)
			break
		}
		awaitReaders()
		if i == 1 {
			if err := s.grow(s.Stats().Epoch); err != nil {
				t.Error(err)
			}
			awaitReaders()
		}
	}
	close(stop)
	wg.Wait()

	epochs := map[uint64]bool{}
	for _, ans := range all {
		epochs[ans.Epoch] = true
		run := longest[gen{ans.Epoch, ans.GraphVersion}]
		if fmt.Sprint(run[:len(ans.Seeds)]) != fmt.Sprint(ans.Seeds) {
			t.Fatalf("k=%d at epoch %d / graph version %d is not a prefix of that epoch's greedy run:\n  %v\n  %v",
				ans.K, ans.Epoch, ans.GraphVersion, ans.Seeds, run)
		}
	}
	st := s.Stats()
	// Epoch 0 is the empty sample and never builds; every later epoch
	// builds at most once, and every epoch that answered built.
	if st.LedgerBuilds > int64(st.Epoch) || st.LedgerBuilds < int64(len(epochs)) {
		t.Fatalf("%d ledger builds, %d epochs answered, %d epochs published", st.LedgerBuilds, len(epochs), st.Epoch)
	}
	if len(epochs) < 2 {
		t.Fatalf("readers saw %d epoch(s); the hammer did not overlap a republish", len(epochs))
	}
	if st.GraphVersion != 3 || st.SketchTheta != st.Theta {
		t.Fatalf("after the storm: graph version %d, sketch over %d of %d sets", st.GraphVersion, st.SketchTheta, st.Theta)
	}
}
