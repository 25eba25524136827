package sketch

import "sort"

// TopCandidates returns the c nodes with the largest estimated instance
// coverage, plus the estimator evaluations spent. This is the fast
// tier's pruning primitive (SKIM-style): a greedy pick's marginal gain
// never exceeds its instance coverage, so a pool of the top-c estimated
// coverages with c comfortably above k almost surely contains every node
// exact greedy would select — selection then runs on the RR sample
// restricted to the pool, O(c) candidates instead of O(n).
//
// Deterministic: ordered by (estimate descending, node id ascending),
// ties broken toward smaller ids like every selection path in the repo.
func (s *Set) TopCandidates(c int) ([]uint32, int) {
	if c < 1 {
		return nil, 0
	}
	if c > s.n {
		c = s.n
	}
	type cand struct {
		est float64
		v   uint32
	}
	cands := make([]cand, 0, s.n)
	evals := 0
	for v := 0; v < s.n; v++ {
		if s.size[v] == 0 {
			continue
		}
		cands = append(cands, cand{est: s.EstimateCovers(uint32(v)), v: uint32(v)})
		evals++
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].est != cands[j].est {
			return cands[i].est > cands[j].est
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > c {
		cands = cands[:c]
	}
	out := make([]uint32, len(cands))
	for i, e := range cands {
		out[i] = e.v
	}
	return out, evals
}
