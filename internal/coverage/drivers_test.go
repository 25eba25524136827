package coverage

import (
	"testing"
	"testing/quick"

	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

func TestRunGreedyUntilReachesTarget(t *testing.T) {
	c, idx := fig2Collection(t)
	o, _ := NewLocalOracle(c, idx, 4)
	res, err := RunGreedyUntil(o, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 6 {
		t.Fatalf("coverage %d below target 6", res.Coverage)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("needed %d seeds, optimum pair suffices", len(res.Seeds))
	}
}

func TestRunGreedyUntilStopsEarly(t *testing.T) {
	c, idx := fig2Collection(t)
	o, _ := NewLocalOracle(c, idx, 4)
	// Target 3 is met by v1 alone.
	res, err := RunGreedyUntil(o, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Coverage < 3 {
		t.Fatalf("want exactly 1 seed for target 3, got %d (coverage %d)", len(res.Seeds), res.Coverage)
	}
}

func TestRunGreedyUntilUnreachable(t *testing.T) {
	c, idx := fig2Collection(t)
	o, _ := NewLocalOracle(c, idx, 4)
	// Target above the 6 available RR sets: exhausts coverage then stops.
	res, err := RunGreedyUntil(o, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 6 {
		t.Fatalf("best-effort coverage %d, want 6", res.Coverage)
	}
	// Zero target selects nothing.
	res, err = RunGreedyUntil(o, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 0 {
		t.Fatal("zero target selected seeds")
	}
	if _, err := RunGreedyUntil(o, 0, 1); err == nil {
		t.Fatal("maxSeeds=0 accepted")
	}
	if _, err := RunGreedyUntil(o, 4, -1); err == nil {
		t.Fatal("negative target accepted")
	}
}

// TestRunGreedyUntilMatchesRunGreedy: with an unreachable target and
// maxSeeds = k, the two drivers must select identical prefixes.
func TestRunGreedyUntilMatchesRunGreedy(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(20)
		c, idx := randomCollection(r, n, 1+r.Intn(50), 1+r.Intn(5))
		k := 1 + r.Intn(n)
		o1, _ := NewLocalOracle(c, idx, n)
		full, err := RunGreedy(o1, k)
		if err != nil {
			return false
		}
		o2, _ := NewLocalOracle(c, idx, n)
		until, err := RunGreedyUntil(o2, k, 1<<40)
		if err != nil {
			return false
		}
		// RunGreedyUntil stops at zero marginal; RunGreedy pads with
		// zero-marginal items. The non-zero prefix must match exactly.
		if until.Coverage != full.Coverage {
			return false
		}
		for i := range until.Seeds {
			if until.Seeds[i] != full.Seeds[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedyBudgetedUnitCostsIsExactGreedy(t *testing.T) {
	// With unit costs, the ratio greedy's picks must each be an argmax of
	// the current marginal coverage (two exact greedy implementations may
	// break ties differently, so we verify the greedy invariant by replay
	// rather than comparing seed sequences).
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(20)
		c, idx := randomCollection(r, n, 1+r.Intn(50), 1+r.Intn(5))
		k := 1 + r.Intn(n)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 1
		}
		o, _ := NewLocalOracle(c, idx, n)
		budgeted, err := RunGreedyBudgeted(o, costs, float64(k))
		if err != nil {
			return false
		}
		if len(budgeted.Seeds) > k {
			return false
		}
		// Replay: each pick is an argmax over unselected items.
		covered := make([]bool, c.Count())
		deg := make([]int64, n)
		for v := 0; v < n; v++ {
			deg[v] = int64(idx.Degree(uint32(v)))
		}
		selected := make([]bool, n)
		var total int64
		for step, u := range budgeted.Seeds {
			var max int64 = -1
			for v := 0; v < n; v++ {
				if !selected[v] && deg[v] > max {
					max = deg[v]
				}
			}
			if deg[u] != max || budgeted.Marginals[step] != max {
				return false
			}
			total += max
			selected[u] = true
			for _, j := range idx.AppendCovers(nil, u) {
				if covered[j] {
					continue
				}
				covered[j] = true
				for _, w := range c.Set(int(j)) {
					deg[w]--
				}
			}
		}
		// Stopped only because the budget ran out or nothing useful was
		// left: either k items were bought or all remaining marginals
		// are zero.
		if len(budgeted.Seeds) < k {
			for v := 0; v < n; v++ {
				if !selected[v] && deg[v] > 0 {
					return false
				}
			}
		}
		return total == budgeted.Coverage
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedyBudgetedRespectsBudget(t *testing.T) {
	r := xrand.New(5)
	c, idx := randomCollection(r, 20, 100, 5)
	costs := make([]float64, 20)
	for i := range costs {
		costs[i] = 0.5 + r.Float64()*3
	}
	o, _ := NewLocalOracle(c, idx, 20)
	const budget = 4.0
	res, err := RunGreedyBudgeted(o, costs, budget)
	if err != nil {
		t.Fatal(err)
	}
	var spent float64
	for _, s := range res.Seeds {
		spent += costs[s]
	}
	if spent > budget+1e-9 {
		t.Fatalf("spent %v over budget %v", spent, budget)
	}
	if CoverageOf(c, res.Seeds) != res.Coverage {
		t.Fatal("reported coverage disagrees with recount")
	}
}

func TestRunGreedyBudgetedPrefersRatio(t *testing.T) {
	// Item 0 covers 3 elements at cost 10; items 1..3 each cover 2 at
	// cost 1. With budget 3, the ratio greedy must buy the cheap trio
	// (coverage 6), never the big expensive set.
	c := rrset.NewCollection(32)
	sets := [][]uint32{
		{0, 1}, {0, 2}, {0, 3}, // covered by item 0 plus one cheap item each
		{1}, {2}, {3},
	}
	for _, s := range sets {
		c.Append(s, 0)
	}
	idx, _ := rrset.BuildIndex(c, 4)
	o, _ := NewLocalOracle(c, idx, 4)
	costs := []float64{10, 1, 1, 1}
	res, err := RunGreedyBudgeted(o, costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Seeds {
		if s == 0 {
			t.Fatal("bought the unaffordable-ratio item")
		}
	}
	if res.Coverage != 6 {
		t.Fatalf("coverage %d, want 6", res.Coverage)
	}
}

func TestRunGreedyBudgetedValidation(t *testing.T) {
	c, idx := fig2Collection(t)
	o, _ := NewLocalOracle(c, idx, 4)
	if _, err := RunGreedyBudgeted(o, []float64{1, 1}, 1); err == nil {
		t.Fatal("wrong cost count accepted")
	}
	if _, err := RunGreedyBudgeted(o, []float64{1, 1, 0, 1}, 1); err == nil {
		t.Fatal("zero cost accepted")
	}
	if _, err := RunGreedyBudgeted(o, []float64{1, 1, 1, 1}, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}
