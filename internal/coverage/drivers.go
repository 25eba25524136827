package coverage

import (
	"container/heap"
	"fmt"
)

// This file contains alternative selection drivers over the same Oracle
// abstraction that RunGreedy uses. Because they only consume the degree
// vector and per-selection delta updates, every driver here runs
// unmodified over the distributed cluster oracle — which is exactly the
// paper's closing claim that seed minimization, budgeted influence
// maximization and friends "can be implemented in a distributed manner
// via our approaches".

// RunGreedyUntil selects items greedily until the covered-element count
// reaches target (or maxSeeds items have been selected, whichever comes
// first). It is the selection core of seed minimization: with RR sets as
// elements, coverage ≥ target certifies estimated spread ≥ n·target/θ.
func RunGreedyUntil(o Oracle, maxSeeds int, target int64) (*Result, error) {
	n := o.NumItems()
	if maxSeeds <= 0 || maxSeeds > n {
		return nil, fmt.Errorf("coverage: maxSeeds = %d outside [1, %d]", maxSeeds, n)
	}
	if target < 0 {
		return nil, fmt.Errorf("coverage: negative coverage target %d", target)
	}
	return greedy(o, maxSeeds, target)
}

// costItem is a lazy-heap entry for the budgeted greedy.
type costItem struct {
	node  uint32
	ratio float64 // stale Δ(v)/c(v); revalidated at pop time
}

type costHeap []costItem

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i].ratio > h[j].ratio }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)        { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// RunGreedyBudgeted runs the cost-aware lazy greedy (CELF-style): items
// carry costs, the budget caps the total cost, and each step picks the
// item with the best marginal-coverage-per-cost ratio that still fits.
// Items with zero marginal are never bought. This is the selection core
// of budgeted influence maximization.
func RunGreedyBudgeted(o Oracle, costs []float64, budget float64) (*Result, error) {
	n := o.NumItems()
	if len(costs) != n {
		return nil, fmt.Errorf("coverage: %d costs for %d items", len(costs), n)
	}
	for v, c := range costs {
		if c <= 0 {
			return nil, fmt.Errorf("coverage: item %d has non-positive cost %v", v, c)
		}
	}
	if budget <= 0 {
		return nil, fmt.Errorf("coverage: budget %v must be positive", budget)
	}
	deg, err := o.InitialDegrees()
	if err != nil {
		return nil, err
	}
	h := make(costHeap, 0, n)
	for v := 0; v < n; v++ {
		if deg[v] > 0 {
			h = append(h, costItem{node: uint32(v), ratio: float64(deg[v]) / costs[v]})
		}
	}
	heap.Init(&h)
	res := &Result{}
	remaining := budget
	selected := make([]bool, n)
	for h.Len() > 0 {
		top := heap.Pop(&h).(costItem)
		v := top.node
		if selected[v] || deg[v] == 0 {
			continue
		}
		cur := float64(deg[v]) / costs[v]
		if cur < top.ratio {
			// Stale (CELF lazy re-evaluation): push back with the fresh
			// ratio; the next pop sees a consistent ordering.
			heap.Push(&h, costItem{node: v, ratio: cur})
			continue
		}
		if costs[v] > remaining {
			// Unaffordable; drop it and keep scanning cheaper items.
			continue
		}
		selected[v] = true
		remaining -= costs[v]
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, deg[v])
		res.Coverage += deg[v]
		deltas, err := o.Select(v)
		if err != nil {
			return nil, err
		}
		for _, dl := range deltas {
			deg[dl.Node] -= int64(dl.Dec)
		}
	}
	return res, nil
}
