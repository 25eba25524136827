// Package apps implements the influence-based applications the paper's
// conclusion lists as direct beneficiaries of its distributed techniques:
// targeted influence maximization (weighted activation goals), budgeted
// influence maximization (per-node seeding costs), and seed minimization
// (smallest seed set reaching a spread goal). Each follows the same
// two-phase recipe — distributed RIS sampling plus a greedy selection
// driven through the element-distributed oracle — so all of them run over
// the identical cluster substrate DIIMM uses.
//
// Approximation notes. These applications reuse DIIMM's sampling schedule
// for the underlying influence-maximization instance, which makes the
// estimation error of every reported spread the same ε-band as DIIMM's.
// The selection guarantees are the classic ones per driver: (1 − 1/e)
// for the targeted (weighted-coverage) greedy, the cost-ratio greedy's
// bicriteria bound for budgets, and the logarithmic seed-count factor of
// the greedy set-cover argument for seed minimization.
package apps

import (
	"fmt"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

// Common configures the shared sampling machinery of all applications.
type Common struct {
	Machines int
	Model    diffusion.Model
	Eps      float64 // sampling density: θ follows DIIMM's schedule at this ε
	Delta    float64
	Seed     uint64
	// Parallelism is the per-worker RR-generation shard count
	// (rrset.ShardedSampler); values below 1 mean 1 (sequential).
	Parallelism int
}

func (c Common) withDefaults(n int) Common {
	if c.Machines == 0 {
		c.Machines = 1
	}
	if c.Eps == 0 {
		c.Eps = 0.2
	}
	if c.Delta == 0 {
		c.Delta = 1 / float64(n)
	}
	return c
}

// newCluster spins up the in-process workers shared by every application;
// like every in-process cluster, it respawns and replays a failed worker.
func (c Common) newCluster(g *graph.Graph, rootWeights []float64) (*cluster.Cluster, error) {
	return cluster.NewLocal(cluster.WorkerConfig{
		Graph:       g,
		Model:       c.Model,
		Seed:        c.Seed,
		RootWeights: rootWeights,
		Parallelism: c.Parallelism,
	}, c.Machines, g.NumNodes(), cluster.Recovery{Salt: c.Seed})
}

// sampleTheta generates a DIIMM-grade number of RR sets for a size-k
// instance: it runs the IMM phase-1 schedule to find a lower bound of
// OPT, then tops up to θ = λ*/LB — all distributed.
func sampleTheta(cl *cluster.Cluster, n, k int, eps, delta float64) (int64, error) {
	p, err := imm.ComputeParams(n, k, eps, delta)
	if err != nil {
		return 0, err
	}
	var count int64
	lb := 1.0
	for t := 1; t <= p.MaxRounds(); t++ {
		x := float64(n) / float64(int64(1)<<uint(t))
		stats, err := cl.Generate(p.ThetaAt(t) - count)
		if err != nil {
			return 0, err
		}
		count = stats.Count
		sel, err := coverage.RunGreedy(cl.Oracle(), k)
		if err != nil {
			return 0, err
		}
		frac := float64(sel.Coverage) / float64(count)
		if float64(n)*frac >= (1+p.EpsPrime)*x {
			lb = float64(n) * frac / (1 + p.EpsPrime)
			break
		}
	}
	if add := p.FinalTheta(lb) - count; add > 0 {
		stats, err := cl.Generate(add)
		if err != nil {
			return 0, err
		}
		count = stats.Count
	}
	return count, nil
}

// Result is the common outcome shape of the applications.
type Result struct {
	Seeds     []uint32
	EstSpread float64 // estimated (possibly weighted) spread of Seeds
	Theta     int64
	Metrics   cluster.Metrics
	Wall      time.Duration
}

// ---------------------------------------------------------------------------
// Targeted influence maximization
// ---------------------------------------------------------------------------

// TargetedIM selects k seeds maximizing the *weighted* spread
// Σ_v w(v)·Pr[S activates v]: RR-set roots are drawn proportionally to
// the target weights, under which the coverage estimator is unbiased for
// the weighted spread (scaled by W = Σ w rather than n). Weights of zero
// exclude nodes from the objective (they can still relay influence).
func TargetedIM(g *graph.Graph, weights []float64, k int, c Common) (*Result, error) {
	n := g.NumNodes()
	c = c.withDefaults(n)
	if len(weights) != n {
		return nil, fmt.Errorf("apps: %d target weights for %d nodes", len(weights), n)
	}
	var total float64
	for v, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("apps: negative target weight on node %d", v)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("apps: all target weights are zero")
	}
	cl, err := c.newCluster(g, weights)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	start := time.Now()
	theta, err := sampleTheta(cl, n, k, c.Eps, c.Delta)
	if err != nil {
		return nil, err
	}
	sel, err := coverage.RunGreedy(cl.Oracle(), k)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:     sel.Seeds,
		EstSpread: total * float64(sel.Coverage) / float64(theta),
		Theta:     theta,
		Metrics:   cl.Metrics(),
		Wall:      time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------------
// Budgeted influence maximization
// ---------------------------------------------------------------------------

// BudgetedIM selects a seed set of total cost at most budget maximizing
// influence spread, with per-node seeding costs. Selection is the
// cost-ratio lazy greedy over the distributed oracle.
func BudgetedIM(g *graph.Graph, costs []float64, budget float64, c Common) (*Result, error) {
	n := g.NumNodes()
	c = c.withDefaults(n)
	if len(costs) != n {
		return nil, fmt.Errorf("apps: %d costs for %d nodes", len(costs), n)
	}
	// The sampling schedule needs a nominal k; use the largest seed count
	// the budget could buy so θ is dense enough for any feasible set.
	minCost := costs[0]
	for _, cst := range costs {
		if cst <= 0 {
			return nil, fmt.Errorf("apps: non-positive seeding cost %v", cst)
		}
		if cst < minCost {
			minCost = cst
		}
	}
	kMax := int(budget / minCost)
	if kMax < 1 {
		return nil, fmt.Errorf("apps: budget %v cannot afford any node (min cost %v)", budget, minCost)
	}
	if kMax > n {
		kMax = n
	}
	cl, err := c.newCluster(g, nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	start := time.Now()
	theta, err := sampleTheta(cl, n, kMax, c.Eps, c.Delta)
	if err != nil {
		return nil, err
	}
	sel, err := coverage.RunGreedyBudgeted(cl.Oracle(), costs, budget)
	if err != nil {
		return nil, err
	}
	var spent float64
	for _, s := range sel.Seeds {
		spent += costs[s]
	}
	if spent > budget+1e-9 {
		return nil, fmt.Errorf("apps: internal error: spent %v over budget %v", spent, budget)
	}
	return &Result{
		Seeds:     sel.Seeds,
		EstSpread: float64(n) * float64(sel.Coverage) / float64(theta),
		Theta:     theta,
		Metrics:   cl.Metrics(),
		Wall:      time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------------
// Seed minimization
// ---------------------------------------------------------------------------

// SeedMinimize returns the smallest greedy seed set whose estimated
// spread reaches targetSpread (in expected activated nodes). maxSeeds
// caps the search; if the target is unreachable within the cap on the
// sampled data, the best-effort set found is returned with Reached=false.
type MinimizeResult struct {
	Result
	Reached bool
}

// SeedMinimize implements the distributed greedy for seed minimization.
func SeedMinimize(g *graph.Graph, targetSpread float64, maxSeeds int, c Common) (*MinimizeResult, error) {
	n := g.NumNodes()
	c = c.withDefaults(n)
	if targetSpread <= 0 || targetSpread > float64(n) {
		return nil, fmt.Errorf("apps: target spread %v outside (0, %d]", targetSpread, n)
	}
	if maxSeeds < 1 || maxSeeds > n {
		return nil, fmt.Errorf("apps: maxSeeds %d outside [1, %d]", maxSeeds, n)
	}
	cl, err := c.newCluster(g, nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	start := time.Now()
	theta, err := sampleTheta(cl, n, maxSeeds, c.Eps, c.Delta)
	if err != nil {
		return nil, err
	}
	// Spread target σ translates to coverage target σ·θ/n on the samples.
	covTarget := int64(targetSpread*float64(theta)/float64(n) + 0.999999)
	sel, err := coverage.RunGreedyUntil(cl.Oracle(), maxSeeds, covTarget)
	if err != nil {
		return nil, err
	}
	return &MinimizeResult{
		Result: Result{
			Seeds:     sel.Seeds,
			EstSpread: float64(n) * float64(sel.Coverage) / float64(theta),
			Theta:     theta,
			Metrics:   cl.Metrics(),
			Wall:      time.Since(start),
		},
		Reached: sel.Coverage >= covTarget,
	}, nil
}
