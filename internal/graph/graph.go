// Package graph provides the compact directed-graph substrate used by every
// algorithm in this repository.
//
// An online social network is stored in compressed sparse row (CSR) form
// twice — once over outgoing edges (for forward diffusion simulation) and
// once over incoming edges (for reverse influence sampling, which walks
// edges backwards). All adjacency data lives in a handful of flat slices
// with uint32 node identifiers, so a graph with m edges costs roughly
// 2·m·(4+4) bytes regardless of node count; this keeps Go's garbage
// collector out of the hot path, which is the main scalability risk of a
// Go implementation at this data volume.
package graph

import (
	"fmt"
	"math"
	"sync"
)

// Graph is an immutable weighted directed graph. Construct one with a
// Builder, a loader, or a generator; once built it is safe for concurrent
// readers (all algorithms here share one Graph across machines/goroutines).
// A graph opened from a segmented file keeps its CSR in a mapping off the
// Go heap that is released when the graph becomes unreachable (or is
// Closed): slices its accessors return are valid only while their *Graph
// is reachable.
//
// Each directed edge <u,v> carries a propagation probability p(u,v) in
// (0,1], the probability that u activates v under the IC model, and the
// weight of u in v's threshold sum under the LT model.
type Graph struct {
	n int64 // number of nodes
	m int64 // number of directed edges

	// Out-CSR: edges leaving each node. outAdj[outStart[u]:outStart[u+1]]
	// are the heads of u's outgoing edges; outProb holds p(u, head).
	outStart []int64
	outAdj   []uint32
	outProb  []float32

	// In-CSR: edges entering each node. inAdj[inStart[v]:inStart[v+1]]
	// are the tails of v's incoming edges; inProb holds p(tail, v).
	inStart []int64
	inAdj   []uint32
	inProb  []float32

	// inProbSum[v] is the sum of v's incoming edge probabilities. The LT
	// model requires it to be <= 1; the reverse random walk stops at v
	// with probability 1 - inProbSum[v].
	inProbSum []float64

	// uniformIn reports that, for every node v, all of v's incoming edges
	// carry the same probability (true under the weighted-cascade model,
	// p = 1/indeg). Samplers use it to pick in-neighbors in O(1) and to
	// enable subset sampling with geometric jumps.
	uniformIn bool

	// hashOnce/hash memoize the base (version-0) content hash. The graph
	// is always handled by pointer, so the sync.Once copy restriction is
	// moot. ContentHash layers a per-version chained hash on top when the
	// graph has been mutated (see mutate.go).
	hashOnce sync.Once
	hash     string

	// mut holds all dynamic-graph state (overlay adjacency, version,
	// chained hash); nil for frozen graphs, so the frozen hot paths pay
	// one pointer test. See mutate.go.
	mut *mutState

	// seg records segmented-file provenance (source path, the region the
	// CSR aliases, trailer CRCs); nil for graphs built in memory or loaded from
	// non-segmented formats. See segreader.go.
	seg *segState
}

// NumNodes returns n, the number of nodes.
func (g *Graph) NumNodes() int { return int(g.n) }

// NumEdges returns m, the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the number of edges leaving u.
func (g *Graph) OutDegree(u uint32) int {
	return int(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v uint32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutNeighbors returns the heads and probabilities of u's outgoing edges.
// The returned slices alias the graph's storage, must not be modified,
// and are valid while g is reachable.
func (g *Graph) OutNeighbors(u uint32) ([]uint32, []float32) {
	lo, hi := g.outStart[u], g.outStart[u+1]
	return g.outAdj[lo:hi], g.outProb[lo:hi]
}

// InNeighbors returns the tails and probabilities of v's incoming edges.
// The returned slices alias the graph's storage, must not be modified,
// and are valid while g is reachable.
func (g *Graph) InNeighbors(v uint32) ([]uint32, []float32) {
	lo, hi := g.inStart[v], g.inStart[v+1]
	return g.inAdj[lo:hi], g.inProb[lo:hi]
}

// InProbSum returns the sum of incoming edge probabilities of v.
func (g *Graph) InProbSum(v uint32) float64 { return g.inProbSum[v] }

// UniformIn reports whether every node's incoming edges share one
// probability value (e.g. weighted-cascade weights).
func (g *Graph) UniformIn() bool { return g.uniformIn }

// AvgDegree returns m/n, the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// ValidateLT checks the linear-threshold precondition that every node's
// incoming probabilities sum to at most 1 (plus a small tolerance for
// float accumulation). Algorithms under the LT model call this up front so
// a bad weight assignment fails loudly instead of skewing the walk.
func (g *Graph) ValidateLT() error {
	const tol = 1e-6
	for v := int64(0); v < g.n; v++ {
		if g.inProbSum[v] > 1+tol {
			return fmt.Errorf("graph: node %d has incoming probability sum %g > 1; not a valid LT instance", v, g.inProbSum[v])
		}
	}
	return nil
}

// Edge is a single directed, weighted edge. It is the exchange format of
// builders and loaders, not the storage format.
type Edge struct {
	From, To uint32
	Prob     float32
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are kept as parallel edges (matching how SNAP-style edge lists are
// usually consumed after dedup by the loader); self-loops are rejected
// because neither diffusion model gives them meaning.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph over n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewBuilderHint is NewBuilder with a capacity hint for the edge count.
func NewBuilderHint(n int, edgeHint int) *Builder {
	return &Builder{n: n, edges: make([]Edge, 0, edgeHint)}
}

// AddEdge records the directed edge <from,to> with probability prob.
func (b *Builder) AddEdge(from, to uint32, prob float32) error {
	if int(from) >= b.n || int(to) >= b.n {
		return fmt.Errorf("graph: edge <%d,%d> out of range for %d nodes", from, to, b.n)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	if prob < 0 || prob > 1 || (prob != prob) {
		return fmt.Errorf("graph: edge <%d,%d> probability %v outside [0,1]", from, to, prob)
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Prob: prob})
	return nil
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph. The builder can be reused after
// Build; the produced graph does not alias builder memory.
func (b *Builder) Build() *Graph {
	n := int64(b.n)
	m := int64(len(b.edges))
	g := &Graph{
		n:         n,
		m:         m,
		outStart:  make([]int64, n+1),
		outAdj:    make([]uint32, m),
		outProb:   make([]float32, m),
		inStart:   make([]int64, n+1),
		inAdj:     make([]uint32, m),
		inProb:    make([]float32, m),
		inProbSum: make([]float64, n),
	}
	// Counting sort into both CSRs.
	for _, e := range b.edges {
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for i := int64(0); i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	outPos := make([]int64, n)
	inPos := make([]int64, n)
	for _, e := range b.edges {
		op := g.outStart[e.From] + outPos[e.From]
		g.outAdj[op] = e.To
		g.outProb[op] = e.Prob
		outPos[e.From]++
		ip := g.inStart[e.To] + inPos[e.To]
		g.inAdj[ip] = e.From
		g.inProb[ip] = e.Prob
		inPos[e.To]++
	}
	g.finalize()
	return g
}

// finalize computes derived fields (inProbSum, uniformIn).
func (g *Graph) finalize() {
	uniform := true
	for v := int64(0); v < g.n; v++ {
		lo, hi := g.inStart[v], g.inStart[v+1]
		sum := 0.0
		var first float32
		for i := lo; i < hi; i++ {
			p := g.inProb[i]
			sum += float64(p)
			if i == lo {
				first = p
			} else if p != first {
				uniform = false
			}
		}
		g.inProbSum[v] = sum
	}
	g.uniformIn = uniform
}

// Edges calls fn for every directed edge. It exists for loaders/writers and
// tests; algorithms use the CSR accessors directly.
func (g *Graph) Edges(fn func(from, to uint32, prob float32)) {
	for u := int64(0); u < g.n; u++ {
		lo, hi := g.outStart[u], g.outStart[u+1]
		for i := lo; i < hi; i++ {
			fn(uint32(u), g.outAdj[i], g.outProb[i])
		}
	}
}

// MaxInDegree returns the maximum in-degree; generators use it in stats.
func (g *Graph) MaxInDegree() int {
	best := int64(0)
	for v := int64(0); v < g.n; v++ {
		if d := g.inStart[v+1] - g.inStart[v]; d > best {
			best = d
		}
	}
	return int(best)
}

// DegreeHistogramLogBins returns counts of out-degrees in power-of-two bins
// (bin i holds degrees in [2^i, 2^(i+1))); used to sanity-check that the
// synthetic generators produce heavy-tailed distributions.
func (g *Graph) DegreeHistogramLogBins() []int64 {
	bins := make([]int64, 34)
	for u := int64(0); u < g.n; u++ {
		d := g.outStart[u+1] - g.outStart[u]
		if d == 0 {
			bins[0]++
			continue
		}
		b := int(math.Log2(float64(d))) + 1
		if b >= len(bins) {
			b = len(bins) - 1
		}
		bins[b]++
	}
	return bins
}
