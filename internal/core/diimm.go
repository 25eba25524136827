// Package core assembles the paper's contribution: DIIMM (Algorithm 2),
// the distributed influence-maximization algorithm that pairs distributed
// reverse influence sampling with NEWGREEDI element-distributed maximum
// coverage inside the IMM framework, plus the distributed variant of
// SUBSIM and cluster-backed NEWGREEDI for standalone maximum coverage.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

// AutoParallelism, as Options.Parallelism, spreads GOMAXPROCS evenly
// across the ℓ machines: P = max(1, GOMAXPROCS/ℓ). On a 1-core box this
// resolves to P = 1, preserving the sequential-broadcast measurement
// story of DESIGN.md; on a multi-core box it uses the hardware.
const AutoParallelism = -1

// Options configures a DIIMM run.
type Options struct {
	K        int     // seed set size (default 50, the paper's setting)
	Eps      float64 // ε approximation slack (paper default 0.01; see README on runtime)
	Delta    float64 // δ failure probability (paper default 1/n)
	Machines int     // ℓ, number of workers
	Model    diffusion.Model
	Subset   bool   // true = distributed SUBSIM sampling (Fig. 7)
	Seed     uint64 // base seed; machine i samples from a derived stream
	// Parallelism is the number of intra-worker RR-generation goroutines
	// per machine (rrset.ShardedSampler shards). 0 (the default) means 1:
	// sequential sampling. AutoParallelism derives it from GOMAXPROCS/ℓ.
	// Seed sets are a deterministic function of (Seed, Machines): shards
	// split one stream by set ordinal, so P is a pure speed knob.
	Parallelism int
	// Batch is the frontier-batch width of each worker's RR sampling
	// shards (rrset.BatchSampler). 0 selects rrset.DefaultBatch; 1 forces
	// the scalar kernel. Like Parallelism, Batch never changes sampled
	// bytes — it is a pure locality/throughput knob.
	Batch int
}

// ResolveParallelism maps an Options.Parallelism value to the effective
// per-worker shard count for a run over machines workers.
func ResolveParallelism(p, machines int) int {
	switch {
	case p > 0:
		return p
	case p == AutoParallelism:
		if machines < 1 {
			machines = 1
		}
		per := runtime.GOMAXPROCS(0) / machines
		if per < 1 {
			per = 1
		}
		return per
	default:
		return 1
	}
}

// withDefaults fills unset fields with the paper's defaults.
func (o Options) withDefaults(n int) Options {
	if o.K == 0 {
		o.K = 50
	}
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if o.Delta == 0 {
		o.Delta = 1 / float64(n)
	}
	if o.Machines == 0 {
		o.Machines = 1
	}
	return o
}

// workerConfig is the base configuration of a run's in-process workers;
// cluster.NewLocal derives each machine's stream from its Seed.
func (o Options) workerConfig(g *graph.Graph) cluster.WorkerConfig {
	return cluster.WorkerConfig{
		Graph:       g,
		Model:       o.Model,
		Subset:      o.Subset,
		Seed:        o.Seed,
		Parallelism: ResolveParallelism(o.Parallelism, o.Machines),
		Batch:       o.Batch,
	}
}

// Result reports a DIIMM run: the algorithmic outcome plus the cluster's
// phase accounting (the Fig. 5/6 breakdown) and the RR-set statistics
// (Table IV).
type Result struct {
	imm.Result
	Stats cluster.GenerateStats
	// Workers holds each machine's share of Stats: the scheduler-free
	// measure of how evenly the sampling work was split.
	Workers []cluster.GenerateStats
	Metrics cluster.Metrics
	// Wall is the end-to-end master wall time. On a genuinely parallel
	// deployment this approaches Metrics.CriticalPath(); on an
	// oversubscribed box it approaches the sequential total.
	Wall time.Duration
}

// clusterEngine adapts a cluster to the imm.Engine interface. With this
// adapter, DIIMM is — exactly as the paper puts it — IMM whose sampling
// and seed selection happen across ℓ machines.
type clusterEngine struct {
	cl    *cluster.Cluster
	count int64
}

func (e *clusterEngine) Generate(target int64) error {
	add := target - e.count
	if add <= 0 {
		return nil
	}
	stats, err := e.cl.Generate(add)
	if err != nil {
		return err
	}
	e.count = stats.Count
	return nil
}

func (e *clusterEngine) Count() int64 { return e.count }

func (e *clusterEngine) SelectK(k int) (*coverage.Result, error) {
	// A worker quarantined mid-greedy surfaces as *RebalancedError: the
	// cluster already regenerated the lost shard on survivors and
	// rebuilt the baseline, but the in-flight greedy's degree vector
	// describes the pre-repair sample. Restarting from InitialDegrees
	// is sound — the repaired sample has the original size and law, so
	// the NEWGREEDI guarantee is unchanged. Bounded by the worker count:
	// every restart consumed at least one quarantine.
	for attempt := 0; ; attempt++ {
		res, err := coverage.RunGreedy(e.cl.Oracle(), k)
		var reb *cluster.RebalancedError
		if err != nil && errors.As(err, &reb) && attempt < e.cl.NumWorkers() {
			continue
		}
		return res, err
	}
}

// RunDIIMM runs DIIMM over an in-process cluster of opt.Machines workers
// (the multi-core-server deployment of Figs. 6/7/9). Every worker holds a
// reference to g and samples an independent stream; a failed worker is
// respawned from its config and replayed, so a fault never kills the run.
func RunDIIMM(g *graph.Graph, opt Options) (*Result, error) {
	opt = opt.withDefaults(g.NumNodes())
	cl, err := cluster.NewLocal(opt.workerConfig(g), opt.Machines, g.NumNodes(), cluster.Recovery{Salt: opt.Seed})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return RunDIIMMOnCluster(g.NumNodes(), cl, opt)
}

// RunDIIMMOnCluster runs DIIMM over an existing cluster (e.g. TCP workers
// dialed by cmd/dimmd). The cluster is reset first so repeated runs are
// independent; it is not closed (the caller owns it).
func RunDIIMMOnCluster(n int, cl *cluster.Cluster, opt Options) (*Result, error) {
	opt = opt.withDefaults(n)
	params, err := imm.ComputeParams(n, opt.K, opt.Eps, opt.Delta)
	if err != nil {
		return nil, err
	}
	if err := cl.Reset(); err != nil {
		return nil, fmt.Errorf("core: resetting cluster: %w", err)
	}
	start := time.Now()
	engine := &clusterEngine{cl: cl}
	immRes, err := imm.Run(engine, params)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	workers, err := cl.WorkerStats()
	if err != nil {
		return nil, err
	}
	var stats cluster.GenerateStats
	for _, w := range workers {
		stats.Add(w)
	}
	return &Result{
		Result:  *immRes,
		Stats:   stats,
		Workers: workers,
		Metrics: cl.Metrics(),
		Wall:    time.Since(start),
	}, nil
}
