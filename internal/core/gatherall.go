package core

import (
	"time"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/rrset"
)

// GatherAllResult reports the naive gather-everything baseline.
type GatherAllResult struct {
	Seeds    []uint32
	Coverage int64
	// GatherBytes is the traffic spent shipping every RR set to the
	// master — the cost §II-B identifies as the strategy's flaw.
	GatherBytes int64
	// GatherTime and SelectTime split the master-side wall time.
	GatherTime time.Duration
	SelectTime time.Duration
}

// GatherAllSelect implements the strategy of Haque and Banerjee [28] that
// the paper's §II-B argues against: pull every RR set from every worker
// into the master's memory, then run the centralized greedy there. It is
// correct (it returns the same seeds as NEWGREEDI over the same samples,
// which the tests verify) — the point is its cost: traffic and master
// memory are Θ(Σ|R|) instead of O(ℓ·k·n), which is what makes it
// infeasible at the paper's scales. Benchmarks quantify the gap.
func GatherAllSelect(n int, cl *cluster.Cluster, k int) (*GatherAllResult, error) {
	before := cl.Metrics()
	gatherStart := time.Now()
	union, err := cl.GatherAll()
	if err != nil {
		return nil, err
	}
	defer union.Release()
	gatherTime := time.Since(gatherStart)
	after := cl.Metrics()

	selStart := time.Now()
	idx, err := rrset.BuildIndex(union, n)
	if err != nil {
		return nil, err
	}
	defer idx.Release()
	o, err := coverage.NewLocalOracle(union, idx, n)
	if err != nil {
		return nil, err
	}
	res, err := coverage.RunGreedy(o, k)
	if err != nil {
		return nil, err
	}
	return &GatherAllResult{
		Seeds:       res.Seeds,
		Coverage:    res.Coverage,
		GatherBytes: (after.BytesReceived - before.BytesReceived) + (after.BytesSent - before.BytesSent),
		GatherTime:  gatherTime,
		SelectTime:  time.Since(selStart),
	}, nil
}
