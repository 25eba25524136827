package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestReadersAcrossRepublish (run with -race): seed readers (with and
// without the ?mode=fast alias) plus fast-spread readers over HTTP while
// update batches and a growth round republish the sample — and rebuild
// the sketch set — underneath. Greedy is prefix-consistent, so all
// answers of one (epoch, graph version) must be prefixes of one run.
// Fast spread reads the sketch pointer that rebuildSketch swaps; this is
// the test that trips if a reader skips sketchMu.
func TestReadersAcrossRepublish(t *testing.T) {
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
	eps := []float64{0.3, 0.45, 0.6, 0.95}
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
				ans, code := postSeedsMode(t, ts.URL, k, eps[q%len(eps)], []string{"fast", "certified"}[q%2])
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
		if ans.Mode != ModeCertified {
			t.Fatalf("k=%d answered on tier %q", ans.K, ans.Mode)
		}
		run := longest[gen{ans.Epoch, ans.GraphVersion}]
		if fmt.Sprint(run[:len(ans.Seeds)]) != fmt.Sprint(ans.Seeds) {
			t.Fatalf("k=%d at epoch %d / graph version %d is not a prefix of that epoch's greedy run:\n  %v\n  %v",
				ans.K, ans.Epoch, ans.GraphVersion, ans.Seeds, run)
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("readers saw %d epoch(s); the hammer did not overlap a republish", len(epochs))
	}
	if st := s.Stats(); st.GraphVersion != 3 || st.SketchTheta != st.Theta {
		t.Fatalf("after the storm: graph version %d, sketch over %d of %d sets", st.GraphVersion, st.SketchTheta, st.Theta)
	}
}
