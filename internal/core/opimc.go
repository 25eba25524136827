package core

import (
	"time"

	"dimm/internal/cluster"
	"dimm/internal/graph"
	"dimm/internal/imm"
)

// OPIMResult reports a distributed OPIM-C run with cluster accounting.
type OPIMResult struct {
	imm.OPIMResult
	Metrics cluster.Metrics
	Wall    time.Duration
}

// NewClusterPair builds OPIM-C's two in-process clusters of machines
// workers each: [0] samples R1, which the greedy selects on, and [1]
// samples R2, which certifies it. Cluster j is base over the stream
// imm.PairSeeds(base.Seed)[j], which also salts its rebalance streams;
// rec supplies the failover schedule (cluster.NewLocal respawns from the
// workers' own configs). base.Graph sets the item space.
func NewClusterPair(base cluster.WorkerConfig, machines int, rec cluster.Recovery) ([2]*cluster.Cluster, error) {
	var pair [2]*cluster.Cluster
	for j, seed := range imm.PairSeeds(base.Seed) {
		cfg := base
		cfg.Seed = seed
		rec.Salt = seed
		var err error
		if pair[j], err = cluster.NewLocal(cfg, machines, base.Graph.NumNodes(), rec); err != nil {
			if j > 0 {
				pair[0].Close()
			}
			return [2]*cluster.Cluster{}, err
		}
	}
	return pair, nil
}

// dualClusterEngine backs each OPIM-C collection with its own cluster of
// ℓ workers: R1's cluster is DIIMM's engine, driving the greedy (via
// NEWGREEDI, restarted after a rebalance), and R2's cluster answers
// coverage queries for the lower bound. This is the distributed OPIM-C
// the paper's §III-C/Remark claims follows from its techniques.
type dualClusterEngine struct {
	clusterEngine
	cert *cluster.Cluster
}

func (e *dualClusterEngine) Generate(target int64) error {
	if add := target - e.count; add > 0 {
		if _, err := e.cert.Generate(add); err != nil {
			return err
		}
	}
	return e.clusterEngine.Generate(target)
}

func (e *dualClusterEngine) CoverageOn2(seeds []uint32) (int64, error) {
	return e.cert.CoverageOf(seeds)
}

// RunDOPIMC runs distributed OPIM-C over 2×opt.Machines in-process
// workers (one cluster per collection). Options fields have the same
// meaning as for RunDIIMM; like RunDIIMM's, a failed worker is respawned
// and replayed, so a fault does not change the answer.
func RunDOPIMC(g *graph.Graph, opt Options) (*OPIMResult, error) {
	opt = opt.withDefaults(g.NumNodes())
	pair, err := NewClusterPair(opt.workerConfig(g), opt.Machines, cluster.Recovery{})
	if err != nil {
		return nil, err
	}
	defer pair[0].Close()
	defer pair[1].Close()
	return runDOPIMC(g.NumNodes(), pair, opt)
}

// runDOPIMC runs OPIM-C over an existing, fresh cluster pair.
func runDOPIMC(n int, pair [2]*cluster.Cluster, opt Options) (*OPIMResult, error) {
	start := time.Now()
	res, err := imm.RunOPIMC(&dualClusterEngine{clusterEngine{cl: pair[0]}, pair[1]}, n, opt.K, opt.Eps, opt.Delta)
	if err != nil {
		return nil, err
	}
	m := pair[0].Metrics()
	m.Add(pair[1].Metrics())
	return &OPIMResult{
		OPIMResult: *res,
		Metrics:    m,
		Wall:       time.Since(start),
	}, nil
}
