package diffusion

import (
	"fmt"

	"dimm/internal/graph"
)

// Exact limits: enumeration is exponential, so it is restricted to graphs
// small enough for the test suite (the spread is #P-hard in general).
const (
	maxExactEdgesIC   = 22 // 2^22 worlds
	maxExactChoicesLT = 1 << 22
)

// ExactSpread computes σ(seeds) exactly by enumerating possible worlds
// under the triggering-model interpretation of the given diffusion model.
// It is ground truth for tests and tiny examples only.
//
// IC: every edge is independently live with its probability; a world is a
// subset of edges and σ(S) = Σ_world Pr[world] · |reachable(S, world)|.
//
// LT: by the equivalence of Kempe et al., each node independently selects
// at most one incoming edge (edge <u,v> with probability p(u,v), none with
// probability 1 − Σ p); σ(S) is the expected reachability over those
// selections.
func ExactSpread(g *graph.Graph, seeds []uint32, model Model) (float64, error) {
	switch model {
	case IC:
		return exactIC(g, seeds)
	case LT:
		return exactLT(g, seeds)
	default:
		return 0, fmt.Errorf("diffusion: unknown model %v", model)
	}
}

type edgeRec struct {
	from, to uint32
	prob     float64
}

func collectEdges(g *graph.Graph) []edgeRec {
	edges := make([]edgeRec, 0, g.NumEdges())
	g.Edges(func(u, v uint32, p float32) {
		edges = append(edges, edgeRec{u, v, float64(p)})
	})
	return edges
}

// reach counts nodes reachable from seeds over the live edges.
func reach(n int, live []edgeRec, seeds []uint32) int {
	adj := make([][]uint32, n)
	for _, e := range live {
		adj[e.from] = append(adj[e.from], e.to)
	}
	seen := make([]bool, n)
	stack := make([]uint32, 0, n)
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	count := len(stack)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
				count++
			}
		}
	}
	return count
}

func exactIC(g *graph.Graph, seeds []uint32) (float64, error) {
	edges := collectEdges(g)
	if len(edges) > maxExactEdgesIC {
		return 0, fmt.Errorf("diffusion: exact IC spread needs <= %d edges, graph has %d", maxExactEdgesIC, len(edges))
	}
	n := g.NumNodes()
	total := 0.0
	worlds := 1 << len(edges)
	live := make([]edgeRec, 0, len(edges))
	for w := 0; w < worlds; w++ {
		p := 1.0
		live = live[:0]
		for i, e := range edges {
			if w&(1<<i) != 0 {
				p *= e.prob
				live = append(live, e)
			} else {
				p *= 1 - e.prob
			}
		}
		if p == 0 {
			continue
		}
		total += p * float64(reach(n, live, seeds))
	}
	return total, nil
}

func exactLT(g *graph.Graph, seeds []uint32) (float64, error) {
	n := g.NumNodes()
	// Each node selects one incoming edge or none.
	choices := 1
	for v := 0; v < n; v++ {
		c := g.InDegree(uint32(v)) + 1
		if choices > maxExactChoicesLT/c {
			return 0, fmt.Errorf("diffusion: exact LT spread has too many selection combinations")
		}
		choices *= c
	}
	adjs, probs := make([][]uint32, n), make([][]float32, n)
	for v := range adjs {
		adjs[v], probs[v] = g.InNeighbors(uint32(v))
	}
	idx := make([]int, n) // current selection per node; InDegree(v) means "none"
	total := 0.0
	live := make([]edgeRec, 0, n)
	for {
		p := 1.0
		live = live[:0]
		for v := 0; v < n && p > 0; v++ {
			adj, prob := adjs[v], probs[v]
			if idx[v] < len(adj) {
				p *= float64(prob[idx[v]])
				live = append(live, edgeRec{adj[idx[v]], uint32(v), 0})
			} else {
				p *= 1 - g.InProbSum(uint32(v))
			}
		}
		if p > 0 {
			total += p * float64(reach(n, live, seeds))
		}
		// Advance the mixed-radix counter.
		v := 0
		for ; v < n; v++ {
			idx[v]++
			if idx[v] <= g.InDegree(uint32(v)) {
				break
			}
			idx[v] = 0
		}
		if v == n {
			break
		}
	}
	return total, nil
}
