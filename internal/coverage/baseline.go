package coverage

import (
	"fmt"
	"math/bits"

	"dimm/internal/rrset"
)

// NaiveGreedy is the textbook greedy without the lazy bucket structure:
// every iteration rescans all items for the current best marginal. It is
// O(k·n + k·Σ|R|) and exists as the ablation baseline for the vector-D
// design (DESIGN.md choice 2) and as an independent implementation for
// equivalence testing.
func NaiveGreedy(c *rrset.Collection, idx *rrset.Index, n, k int) (*Result, error) {
	if k <= 0 || k > n {
		return nil, fmt.Errorf("coverage: invalid k = %d for %d items", k, n)
	}
	covered := make([]bool, c.Count())
	deg := make([]int64, n)
	idx.FillDegrees(deg)
	selected := make([]bool, n)
	res := &Result{}
	for iter := 0; iter < k; iter++ {
		best := -1
		var bestDeg int64 = -1
		for v := 0; v < n; v++ {
			if !selected[v] && deg[v] > bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		u := uint32(best)
		selected[best] = true
		res.Seeds = append(res.Seeds, u)
		res.Marginals = append(res.Marginals, bestDeg)
		res.Coverage += bestDeg
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
	return res, nil
}

// BruteForceOptimum enumerates all size-k item subsets and returns the
// maximum achievable coverage. Exponential; restricted to tiny instances
// (it is the OPT against which the (1-1/e) bound is tested).
func BruteForceOptimum(c *rrset.Collection, idx *rrset.Index, n, k int) (int64, error) {
	if k <= 0 || k > n {
		return 0, fmt.Errorf("coverage: invalid k = %d for %d items", k, n)
	}
	// Cost guard: C(n,k) subsets, each O(k · avg cover degree).
	combos := 1.0
	for i := 0; i < k; i++ {
		combos *= float64(n-i) / float64(i+1)
	}
	if combos > 2e6 {
		return 0, fmt.Errorf("coverage: brute force over C(%d,%d) subsets is infeasible", n, k)
	}
	if c.Count() > 1<<16 {
		return 0, fmt.Errorf("coverage: brute force needs <= 65536 elements, got %d", c.Count())
	}
	words := (c.Count() + 63) / 64
	// Precompute per-item element bitmaps.
	masks := make([][]uint64, n)
	for v := 0; v < n; v++ {
		m := make([]uint64, words)
		for _, j := range idx.AppendCovers(nil, uint32(v)) {
			m[j/64] |= 1 << (j % 64)
		}
		masks[v] = m
	}
	idxs := make([]int, k)
	for i := range idxs {
		idxs[i] = i
	}
	acc := make([]uint64, words)
	var best int64
	for {
		for w := range acc {
			acc[w] = 0
		}
		for _, v := range idxs {
			for w, x := range masks[v] {
				acc[w] |= x
			}
		}
		var cov int64
		for _, x := range acc {
			cov += int64(bits.OnesCount64(x))
		}
		if cov > best {
			best = cov
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idxs[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idxs[i]++
		for j := i + 1; j < k; j++ {
			idxs[j] = idxs[j-1] + 1
		}
	}
	return best, nil
}

// CoverageOf evaluates how many RR sets in c a given item set covers,
// independently of any oracle state. Used to validate greedy results and
// to score GREEDI candidates.
func CoverageOf(c *rrset.Collection, seeds []uint32) int64 {
	in := make(map[uint32]bool, len(seeds))
	for _, s := range seeds {
		in[s] = true
	}
	var cov int64
	for i := 0; i < c.Count(); i++ {
		for _, v := range c.Set(i) {
			if in[v] {
				cov++
				break
			}
		}
	}
	return cov
}
