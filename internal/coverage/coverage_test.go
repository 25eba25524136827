package coverage

import (
	"math"
	"testing"
	"testing/quick"

	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// fig2Collection builds 6 RR sets over 4 nodes consistent with every fact
// the paper states about its Fig. 2 (Example 3): R3 = {v1,v3}, node v1
// covers R1/R3/R5, the set {v1,v4} covers R1/R3/R5/R6, and {v1,v2} covers
// all six. One such instance: R1={v1}, R2={v2,v3}, R3={v1,v3}, R4={v2},
// R5={v1,v2}, R6={v2,v4}. (0-based ids: v1=0 … v4=3.)
func fig2Collection(t testing.TB) (*rrset.Collection, *rrset.Index) {
	t.Helper()
	c := rrset.NewCollection(16)
	for _, s := range [][]uint32{{0}, {1, 2}, {0, 2}, {1}, {0, 1}, {1, 3}} {
		c.Append(s, 0)
	}
	idx, err := rrset.BuildIndex(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx
}

// TestExampleThree reproduces Example 3: node v1 covers R1,R3,R5 and the
// optimal pair {v1,v2} covers all 6 RR sets.
func TestExampleThree(t *testing.T) {
	c, idx := fig2Collection(t)
	if idx.Degree(0) != 3 {
		t.Fatalf("v1 covers %d RR sets, paper says 3", idx.Degree(0))
	}
	if got := CoverageOf(c, []uint32{0, 3}); got != 4 {
		t.Fatalf("{v1,v4} covers %d, paper says 4", got)
	}
	o, err := NewLocalOracle(c, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGreedy(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 6 {
		t.Fatalf("greedy pair covers %d of 6", res.Coverage)
	}
	seeds := map[uint32]bool{res.Seeds[0]: true, res.Seeds[1]: true}
	if !seeds[0] || !seeds[1] {
		t.Fatalf("greedy picked %v, optimum is {v1,v2}", res.Seeds)
	}
	opt, err := BruteForceOptimum(c, idx, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 6 {
		t.Fatalf("brute force optimum = %d, want 6", opt)
	}
}

func TestRunGreedyValidation(t *testing.T) {
	c, idx := fig2Collection(t)
	o, _ := NewLocalOracle(c, idx, 4)
	if _, err := RunGreedy(o, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunGreedy(o, 5); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestGreedyFillsWithZeroMarginals(t *testing.T) {
	// Only 2 distinct useful nodes but k=4: greedy must still return 4
	// seeds, padding with zero-marginal nodes, and coverage must not lie.
	c := rrset.NewCollection(8)
	c.Append([]uint32{0}, 0)
	c.Append([]uint32{1}, 0)
	idx, _ := rrset.BuildIndex(c, 4)
	o, _ := NewLocalOracle(c, idx, 4)
	res, err := RunGreedy(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 || res.Coverage != 2 {
		t.Fatalf("got %d seeds coverage %d, want 4 seeds coverage 2", len(res.Seeds), res.Coverage)
	}
}

// randomCollection builds a random hypergraph instance for property tests.
func randomCollection(r *xrand.Rand, n, sets, maxSize int) (*rrset.Collection, *rrset.Index) {
	c := rrset.NewCollection(sets * maxSize)
	for i := 0; i < sets; i++ {
		size := 1 + r.Intn(maxSize)
		seen := map[uint32]bool{}
		var s []uint32
		for j := 0; j < size; j++ {
			v := uint32(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		c.Append(s, 0)
	}
	idx, _ := rrset.BuildIndex(c, n)
	return c, idx
}

// isTrueGreedy replays a result and verifies that every selected item had
// the maximum marginal coverage available at its selection step, and that
// the recorded marginals and total coverage are exact. This is the real
// greedy invariant: two correct implementations may break ties differently,
// but each pick must be an argmax.
func isTrueGreedy(c *rrset.Collection, idx *rrset.Index, n int, res *Result) bool {
	covered := make([]bool, c.Count())
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(idx.Degree(uint32(v)))
	}
	selected := make([]bool, n)
	var total int64
	for step, u := range res.Seeds {
		var max int64 = -1
		for v := 0; v < n; v++ {
			if !selected[v] && deg[v] > max {
				max = deg[v]
			}
		}
		if deg[u] != max || res.Marginals[step] != max {
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
	return total == res.Coverage
}

// TestLazyIsExactGreedy: the vector-D lazy greedy (and the rescan
// baseline) are both exact greedy algorithms on random instances.
func TestLazyIsExactGreedy(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(30)
		c, idx := randomCollection(r, n, 1+r.Intn(60), 1+r.Intn(6))
		k := 1 + r.Intn(n)
		o, err := NewLocalOracle(c, idx, n)
		if err != nil {
			return false
		}
		lazy, err := RunGreedy(o, k)
		if err != nil {
			return false
		}
		naive, err := NaiveGreedy(c, idx, n, k)
		if err != nil {
			return false
		}
		return isTrueGreedy(c, idx, n, lazy) && isTrueGreedy(c, idx, n, naive)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNewGreeDiEqualsCentralized is the Lemma 2 property: for every
// machine count, the element-distributed oracle yields exactly the
// centralized greedy coverage, and the reported coverage matches an
// independent evaluation of the chosen seeds.
func TestNewGreeDiEqualsCentralized(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(25)
		sets := 1 + r.Intn(80)
		c, idx := randomCollection(r, n, sets, 1+r.Intn(6))
		k := 1 + r.Intn(n)
		central, err := NewLocalOracle(c, idx, n)
		if err != nil {
			return false
		}
		want, err := RunGreedy(central, k)
		if err != nil {
			return false
		}
		for _, machines := range []int{1, 2, 3, 7} {
			// Partition the RR sets round-robin across machines.
			parts := make([]*rrset.Collection, machines)
			for i := range parts {
				parts[i] = rrset.NewCollection(64)
			}
			for i := 0; i < c.Count(); i++ {
				parts[i%machines].Append(c.Set(i), 0)
			}
			oracles := make([]*LocalOracle, machines)
			for i, p := range parts {
				pi, err := rrset.BuildIndex(p, n)
				if err != nil {
					return false
				}
				oracles[i], err = NewLocalOracle(p, pi, n)
				if err != nil {
					return false
				}
			}
			multi, err := NewMultiOracle(oracles)
			if err != nil {
				return false
			}
			got, err := RunGreedy(multi, k)
			if err != nil {
				return false
			}
			if got.Coverage != want.Coverage {
				return false
			}
			// Identical aggregated degree streams must give the identical
			// seed sequence (Lemma 2 is an exact-equality statement).
			for i := range want.Seeds {
				if got.Seeds[i] != want.Seeds[i] {
					return false
				}
			}
			// The reported coverage must equal an independent recount of
			// the same seeds on the full data.
			if CoverageOf(c, got.Seeds) != got.Coverage {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyApproximationBound: greedy coverage >= (1 - 1/e) * OPT on
// random small instances (Lemma 2 / Feige).
func TestGreedyApproximationBound(t *testing.T) {
	bound := 1 - 1/math.E
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(8)
		c, idx := randomCollection(r, n, 1+r.Intn(40), 1+r.Intn(4))
		k := 1 + r.Intn(3)
		o, err := NewLocalOracle(c, idx, n)
		if err != nil {
			return false
		}
		res, err := RunGreedy(o, k)
		if err != nil {
			return false
		}
		opt, err := BruteForceOptimum(c, idx, n, k)
		if err != nil {
			return false
		}
		return float64(res.Coverage) >= bound*float64(opt)-1e-9
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalsNonIncreasing(t *testing.T) {
	// Submodularity: the greedy's marginal gains never increase.
	r := xrand.New(99)
	c, idx := randomCollection(r, 20, 200, 5)
	o, _ := NewLocalOracle(c, idx, 20)
	res, err := RunGreedy(o, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Marginals); i++ {
		if res.Marginals[i] > res.Marginals[i-1] {
			t.Fatalf("marginal grew: %v", res.Marginals)
		}
	}
	// Algorithm 1 returns after the k-th pick without running its map
	// stage (line 13), so the oracle's covered count lags the reported
	// coverage by exactly the final marginal.
	want := res.Coverage - res.Marginals[len(res.Marginals)-1]
	if o.CoveredCount() != want {
		t.Fatalf("oracle covered %d, want %d (coverage %d minus final marginal)", o.CoveredCount(), want, res.Coverage)
	}
	// After replaying the final seed's map stage, the counts must agree.
	if _, err := o.Select(res.Seeds[len(res.Seeds)-1]); err != nil {
		t.Fatal(err)
	}
	if o.CoveredCount() != res.Coverage {
		t.Fatalf("after final map stage: oracle covered %d, result says %d", o.CoveredCount(), res.Coverage)
	}
}

func TestOracleReuse(t *testing.T) {
	// A second greedy run on the same oracle must reset covered state and
	// produce identical output (DIIMM calls NEWGREEDI repeatedly).
	r := xrand.New(7)
	c, idx := randomCollection(r, 15, 100, 4)
	o, _ := NewLocalOracle(c, idx, 15)
	a, err := RunGreedy(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGreedy(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Coverage != b.Coverage || len(a.Seeds) != len(b.Seeds) {
		t.Fatal("oracle not reusable across greedy runs")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("seed sequence changed on rerun")
		}
	}
}

func TestNewLocalOracleValidation(t *testing.T) {
	c := rrset.NewCollection(4)
	c.Append([]uint32{0}, 0)
	idx, _ := rrset.BuildIndex(c, 2)
	c.Append([]uint32{1}, 0) // index now stale
	if _, err := NewLocalOracle(c, idx, 2); err == nil {
		t.Fatal("stale index accepted")
	}
}

func TestMultiOracleValidation(t *testing.T) {
	if _, err := NewMultiOracle(nil); err == nil {
		t.Fatal("empty machine list accepted")
	}
	c1 := rrset.NewCollection(4)
	c1.Append([]uint32{0}, 0)
	i1, _ := rrset.BuildIndex(c1, 2)
	o1, _ := NewLocalOracle(c1, i1, 2)
	c2 := rrset.NewCollection(4)
	c2.Append([]uint32{0}, 0)
	i2, _ := rrset.BuildIndex(c2, 3)
	o2, _ := NewLocalOracle(c2, i2, 3)
	if _, err := NewMultiOracle([]*LocalOracle{o1, o2}); err == nil {
		t.Fatal("mismatched item counts accepted")
	}
}

func TestBruteForceGuards(t *testing.T) {
	r := xrand.New(3)
	c, idx := randomCollection(r, 50, 100, 4)
	if _, err := BruteForceOptimum(c, idx, 50, 25); err == nil {
		t.Fatal("infeasible brute force accepted")
	}
	if _, err := BruteForceOptimum(c, idx, 50, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
