// Package dimm is a Go implementation of DIIMM — distributed influence
// maximization for large-scale online social networks (Tang, Tang, Zhu,
// Han; ICDE 2022) — together with everything it stands on: reverse
// influence sampling under the IC and LT diffusion models, the IMM
// framework with Chen's corrected parameterization, NEWGREEDI
// element-distributed maximum coverage with the exact (1−1/e) guarantee,
// the GREEDI composable-core-set baseline, and a master–worker cluster
// substrate with in-process and TCP transports.
//
// The quickest way in:
//
//	g, _ := dimm.LoadGraph("soc-LiveJournal1.txt", false)
//	g, _ = dimm.ApplyWeightedCascade(g)
//	res, _ := dimm.MaximizeInfluence(g, dimm.Options{
//	    K: 50, Eps: 0.1, Machines: 8, Model: dimm.IC,
//	})
//	fmt.Println(res.Seeds, res.EstSpread)
//
// The returned seed set is a (1 − 1/e − ε)-approximation of the optimal
// influence spread with probability at least 1 − δ, regardless of how
// many machines participate.
package dimm

import (
	"fmt"

	"dimm/internal/core"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/workload"
)

// Model selects the diffusion model.
type Model = diffusion.Model

// Diffusion models.
const (
	// IC is the independent cascade model.
	IC = diffusion.IC
	// LT is the linear threshold model.
	LT = diffusion.LT
)

// Graph is a weighted directed social graph in compact CSR form.
type Graph = graph.Graph

// Options configures MaximizeInfluence. Zero values take the paper's
// defaults: K=50, Eps=0.1, Delta=1/n, Machines=1, Parallelism=1
// (sequential per-worker sampling). Set Parallelism to AutoParallelism to
// fan each worker's RR-set generation across GOMAXPROCS/Machines
// goroutines; the sampled sets are the same at every Parallelism.
type Options = core.Options

// AutoParallelism, as Options.Parallelism, sizes each worker's sampling
// shard count to GOMAXPROCS/Machines (min 1). Seed sets stay a
// deterministic function of (Seed, Machines): the shard count, and so
// the host's core count, never changes them.
const AutoParallelism = core.AutoParallelism

// Result reports a MaximizeInfluence run: the seed set, its estimated
// spread, θ, and the cluster's per-phase time/traffic accounting.
type Result = core.Result

// SetSystem is a generic maximum-coverage instance.
type SetSystem = coverage.SetSystem

// MaxCoverResult reports a MaxCoverage run.
type MaxCoverResult = core.MaxCoverResult

// LoadGraph reads a SNAP-style edge list ("u v" or "u v p" lines, '#'
// comments). Set undirected to materialize both directions of each edge.
// Follow with ApplyWeightedCascade (or another weight helper) if the file
// carries no probabilities.
func LoadGraph(path string, undirected bool) (*Graph, error) {
	return graph.LoadEdgeListFile(path, undirected)
}

// GraphBackend selects how LoadGraphFile materializes a segmented graph:
// a verified private copy or a demand-paged read-only mapping.
type GraphBackend = graph.Backend

// Graph materialization backends.
const (
	// MemBackend loads the whole graph into memory (every format; a
	// segmented file lands in a private mapping off the Go heap).
	MemBackend = graph.BackendMem
	// MmapBackend maps a segmented (.dsg) file and serves the CSR
	// straight from the page cache, so graphs larger than RAM sample at
	// full speed without ever being fully resident. Mapped graphs are
	// frozen (no mutation). Graph.Close releases a segmented graph's
	// mapping; a graph dropped without Close is freed by a finalizer and
	// counted as a leak (see internal/offheap).
	MmapBackend = graph.BackendMmap
)

// LoadGraphFile loads a graph from either supported format, routed by
// extension: ".dsg" segmented (the one binary format, written by
// SaveGraphSegmented; the only one MmapBackend accepts), anything else a
// SNAP-style text edge list. weights is "wc", "uniform", "trivalency", or
// "file" to keep the stored probabilities.
func LoadGraphFile(path string, backend GraphBackend, weights string, undirected bool) (*Graph, error) {
	return graph.LoadAny(path, graph.LoadOptions{
		Undirected: undirected, Weights: weights, Backend: backend,
	})
}

// SaveGraphSegmented writes the graph in the segmented out-of-core
// format (.dsg): page-aligned CSR sections with per-block CRC32C
// trailers, openable with either backend. weightTag names the weight
// model the graph carries (e.g. "wc"); LoadGraphFile uses it to decide
// whether stored probabilities satisfy a weights request.
func SaveGraphSegmented(path string, g *Graph, weightTag string) error {
	return graph.WriteSegmentedFile(path, g, weightTag)
}

// ApplyWeightedCascade reassigns every edge probability to 1/indeg(head),
// the weighted-cascade setting used throughout the paper's evaluation.
func ApplyWeightedCascade(g *Graph) (*Graph, error) {
	return graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
}

// ApplyUniformWeights sets every edge probability to p.
func ApplyUniformWeights(g *Graph, p float32) (*Graph, error) {
	return graph.AssignWeights(g, graph.UniformWeight, p, 0)
}

// ApplyTrivalencyWeights draws each edge probability uniformly from
// {0.1, 0.01, 0.001}.
func ApplyTrivalencyWeights(g *Graph, seed uint64) (*Graph, error) {
	return graph.AssignWeights(g, graph.Trivalency, 0, seed)
}

// SocialNetworkConfig configures GenerateSocialNetwork.
type SocialNetworkConfig struct {
	Nodes      int
	AvgDegree  float64
	Undirected bool
	Seed       uint64
}

// GenerateSocialNetwork builds a synthetic OSN with a heavy-tailed degree
// distribution (preferential attachment) and weighted-cascade edge
// probabilities — a stand-in for real follower graphs in examples, tests
// and benchmarks.
func GenerateSocialNetwork(cfg SocialNetworkConfig) (*Graph, error) {
	g, err := graph.GenPreferential(graph.GenConfig{
		Nodes:         cfg.Nodes,
		AvgDegree:     cfg.AvgDegree,
		Undirected:    cfg.Undirected,
		Seed:          cfg.Seed,
		UniformAttach: 0.15,
	})
	if err != nil {
		return nil, err
	}
	return graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
}

// MaximizeInfluence runs DIIMM over opts.Machines in-process workers and
// returns a (1 − 1/e − ε)-approximate seed set with probability ≥ 1 − δ.
func MaximizeInfluence(g *Graph, opts Options) (*Result, error) {
	return core.RunDIIMM(g, opts)
}

// EstimateSpread estimates σ(seeds) by forward Monte-Carlo simulation
// with the given number of rounds, returning the mean and its standard
// error. It is the standard way to validate a seed set independently of
// the RR sets that produced it.
func EstimateSpread(g *Graph, seeds []uint32, model Model, rounds int, seed uint64) (mean, stderr float64) {
	sim := diffusion.NewSimulator(g, seed)
	return sim.Estimate(seeds, model, rounds)
}

// NewSetSystem builds a maximum-coverage instance from explicit per-set
// element lists over a universe of numElements elements.
func NewSetSystem(numElements int, sets [][]uint32) (*SetSystem, error) {
	return coverage.NewSetSystem(numElements, sets)
}

// NeighborSetSystem maps a graph to the paper's §IV-C maximum-coverage
// instance: pick k nodes whose out-neighbor union is largest.
func NeighborSetSystem(g *Graph) (*SetSystem, error) {
	return workload.NeighborSetSystem(g)
}

// MaxCoverage runs NEWGREEDI element-distributed maximum coverage over
// machines in-process workers. The result's coverage is exactly the
// centralized greedy's (the paper's Lemma 2), i.e. a (1−1/e)-approximation.
func MaxCoverage(sys *SetSystem, k, machines int) (*MaxCoverResult, error) {
	if sys == nil {
		return nil, fmt.Errorf("dimm: nil set system")
	}
	return core.NewGreeDiMaxCoverage(sys, k, machines)
}
