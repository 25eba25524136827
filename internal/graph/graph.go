// Package graph provides the compact directed-graph substrate used by every
// algorithm in this repository.
//
// An online social network is stored in compressed sparse row (CSR) form
// twice — once over outgoing edges (for forward diffusion simulation) and
// once over incoming edges (for reverse influence sampling, which walks
// edges backwards). All adjacency data lives in a handful of flat slices
// with uint32 node identifiers. When every node's in-edges share one
// probability (the paper's weighted-cascade setting), the graph keeps that
// probability once per node instead of once per edge, so it costs 8 bytes
// per edge plus 28 per node; otherwise each edge also carries its
// probability on both sides, 16 bytes per edge plus 24 per node. Flat
// slices keep Go's garbage collector out of the hot path, which is the
// main scalability risk of a Go implementation at this data volume.
package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dimm/internal/offheap"
)

// Graph is an immutable weighted directed graph. Construct one with a
// Builder, a loader, or a generator; once built it is safe for concurrent
// readers (all algorithms here share one Graph across machines/goroutines).
// A graph opened from a segmented file, or made mutable, keeps its CSR
// in mappings off the Go heap that Close releases: slices its accessors
// return are valid until Close, and only while g is reachable (a dropped
// graph is freed by its finalizer).
//
// Each directed edge <u,v> carries a propagation probability p(u,v) in
// (0,1], the probability that u activates v under the IC model, and the
// weight of u in v's threshold sum under the LT model.
//
// A frozen graph whose UniformIn holds is compact: it stores p(·,v) once,
// as InP(v), and no per-edge probability arrays. Every constructor
// establishes that; only EnableMutation materializes per-edge arrays,
// because removals and reweights act on single edges.
type Graph struct {
	n int64 // number of nodes
	m int64 // number of directed edges

	// Out-CSR: edges leaving each node. outAdj[outStart[u]:outStart[u+1]]
	// are the heads of u's outgoing edges; outProb holds p(u, head), or
	// is nil on a compact graph.
	outStart []int64
	outAdj   []uint32
	outProb  []float32

	// outPending is set while the out-CSR of a graph opened with
	// BackendMem is still on disk; see loadOut.
	outPending atomic.Bool

	// In-CSR: edges entering each node. inAdj[inStart[v]:inStart[v+1]]
	// are the tails of v's incoming edges; inProb holds p(tail, v), or
	// is nil on a compact graph.
	inStart []int64
	inAdj   []uint32
	inProb  []float32

	// inP[v] is the probability every in-edge of v carries while
	// uniformIn holds (0 for a node without in-edges); nil otherwise.
	// With inProb nil it is the only record of the edge probabilities.
	inP []float32

	// edgeProbs is the off-heap mapping EnableMutation filled outProb and
	// inProb into on a compact graph of ≥ offheap.MinBytes of them; nil
	// otherwise.
	edgeProbs *offheap.Region

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
	g.loadOut()
	return int(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v uint32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutAdj returns the heads of u's outgoing edges. The slice aliases the
// graph's storage, must not be modified, and is valid until Close and
// while g is reachable.
func (g *Graph) OutAdj(u uint32) []uint32 {
	g.loadOut()
	return g.outAdj[g.outStart[u]:g.outStart[u+1]]
}

// OutCSR is a view of the out-CSR for a kernel that reads the out-side
// of many nodes, such as a forward simulation: Graph.Out makes the
// out-side readable once, so its accessors need no first-use check and
// inline. It is valid while the arrays it views are: until Close or the
// next ApplyUpdates or Compact.
type OutCSR struct {
	start []int64
	adj   []uint32
	prob  []float32
}

// Out returns the view of the out-CSR, loading a BackendMem graph's
// out-side if no read has yet.
func (g *Graph) Out() OutCSR {
	g.loadOut()
	return OutCSR{start: g.outStart, adj: g.outAdj, prob: g.outProb}
}

// Adj is OutAdj over the view.
func (o OutCSR) Adj(u uint32) []uint32 { return o.adj[o.start[u]:o.start[u+1]] }

// Prob returns p(u, head) for u's out-edges, aligned with Adj(u), on a
// graph that keeps per-edge arrays (every graph whose UniformIn does not
// hold); on a compact graph read InP of the heads instead.
func (o OutCSR) Prob(u uint32) []float32 { return o.prob[o.start[u]:o.start[u+1]] }

// InAdj returns the tails of v's incoming edges. The slice aliases the
// graph's storage, must not be modified, and is valid until Close and
// while g is reachable.
func (g *Graph) InAdj(v uint32) []uint32 {
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// InP returns the probability every in-edge of v carries (0 when v has
// none). It is defined only while UniformIn holds; kernels read it
// instead of a per-edge array, so p(u, v) for an out-edge of u is
// InP(v).
func (g *Graph) InP(v uint32) float32 { return g.inP[v] }

// OutNeighbors returns the heads and probabilities of u's outgoing edges.
// The heads alias the graph's storage, as OutAdj's do. The probabilities
// alias it too when the graph keeps per-edge arrays; on a compact graph
// they are a fresh slice filled from InP, one allocation per call, so
// hot paths use OutAdj and InP instead. Neither may be modified.
func (g *Graph) OutNeighbors(u uint32) ([]uint32, []float32) {
	g.loadOut()
	lo, hi := g.outStart[u], g.outStart[u+1]
	adj := g.outAdj[lo:hi]
	if g.outProb != nil {
		return adj, g.outProb[lo:hi]
	}
	prob := make([]float32, len(adj))
	for i, v := range adj {
		prob[i] = g.inP[v]
	}
	return adj, prob
}

// InNeighbors returns the tails and probabilities of v's incoming edges,
// with OutNeighbors' aliasing: the probabilities are a fresh slice
// filled with InP(v) on a compact graph, and alias the graph's storage
// otherwise.
func (g *Graph) InNeighbors(v uint32) ([]uint32, []float32) {
	lo, hi := g.inStart[v], g.inStart[v+1]
	adj := g.inAdj[lo:hi]
	if g.inProb != nil {
		return adj, g.inProb[lo:hi]
	}
	prob := make([]float32, len(adj))
	for i := range prob {
		prob[i] = g.inP[v]
	}
	return adj, prob
}

// outProbAt returns the probability of out-slot i, whose head is
// outAdj[i]. The caller has loaded the out-side.
func (g *Graph) outProbAt(i int64) float32 {
	if g.outProb != nil {
		return g.outProb[i]
	}
	return g.inP[g.outAdj[i]]
}

// edgeProbArrays returns the per-edge out- and in-probability arrays:
// the graph's own, or copies expanded from inP on a compact graph.
func (g *Graph) edgeProbArrays() (out, in []float32) {
	g.loadOut()
	if g.inProb != nil {
		return g.outProb, g.inProb
	}
	out = make([]float32, g.m)
	in = make([]float32, g.m)
	g.fillEdgeProbs(out, in)
	return out, in
}

// fillEdgeProbs writes the per-edge probabilities of a compact graph
// into out and in (each m long).
func (g *Graph) fillEdgeProbs(out, in []float32) {
	g.loadOut()
	for i, v := range g.outAdj {
		out[i] = g.inP[v]
	}
	for v := int64(0); v < g.n; v++ {
		p := g.inP[v]
		for i := g.inStart[v]; i < g.inStart[v+1]; i++ {
			in[i] = p
		}
	}
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

// finalize computes derived fields (inProbSum, uniformIn) and, when the
// in-probabilities are uniform, makes the graph compact: inP takes one
// value per node and the per-edge arrays are dropped. Uniformity is
// bitwise, so the expansion of inP reproduces every stored bit.
func (g *Graph) finalize() {
	uniform := true
	inP := make([]float32, g.n)
	for v := int64(0); v < g.n; v++ {
		lo, hi := g.inStart[v], g.inStart[v+1]
		sum := 0.0
		for i := lo; i < hi; i++ {
			p := g.inProb[i]
			sum += float64(p)
			if i == lo {
				inP[v] = p
			} else if math.Float32bits(p) != math.Float32bits(inP[v]) {
				uniform = false
			}
		}
		g.inProbSum[v] = sum
	}
	g.uniformIn = uniform
	if uniform {
		g.inP = inP
		g.outProb, g.inProb = nil, nil
	}
}

// Edges calls fn for every directed edge. It exists for loaders/writers and
// tests; algorithms use the CSR accessors directly.
func (g *Graph) Edges(fn func(from, to uint32, prob float32)) {
	g.loadOut()
	for u := int64(0); u < g.n; u++ {
		lo, hi := g.outStart[u], g.outStart[u+1]
		for i := lo; i < hi; i++ {
			fn(uint32(u), g.outAdj[i], g.outProbAt(i))
		}
	}
}

// CSRBytes returns the bytes the graph's CSR arrays hold now: offsets,
// adjacency and in-probability sums, plus inP on a uniform-in graph and
// the two per-edge probability arrays on any other (a mutable graph
// holds both until its first update). A graph opened with BackendMem
// holds no out-side offsets, adjacency or probabilities until their
// first read, and CSRBytes does not read them. A segmented file's
// payload, the out-of-core RSS base, is SegInfo.CSRBytes.
func (g *Graph) CSRBytes() int64 {
	return int64(8*(len(g.outStart)+len(g.inStart)+len(g.inProbSum)) +
		4*(len(g.outAdj)+len(g.inAdj)+len(g.outProb)+len(g.inProb)+len(g.inP)))
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
	g.loadOut()
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
