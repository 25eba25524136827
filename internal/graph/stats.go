package graph

import "sort"

// Stats summarizes a graph for dataset validation (Table III reporting
// and sanity checks on generated stand-ins).
type Stats struct {
	Nodes        int
	Edges        int64
	AvgDegree    float64
	MaxOutDegree int
	MaxInDegree  int
	// Degree percentiles over out-degrees (p50, p90, p99).
	P50, P90, P99 int
	// Isolated counts nodes with neither in- nor out-edges.
	Isolated int
	// Symmetric reports whether every edge has a reverse counterpart
	// (undirected graphs stored as edge pairs).
	Symmetric bool
}

// ComputeStats scans the graph once (plus a sort over the degree array).
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{
		Nodes:     n,
		Edges:     g.NumEdges(),
		AvgDegree: g.AvgDegree(),
	}
	out := make([]int, n)
	for v := 0; v < n; v++ {
		out[v] = g.OutDegree(uint32(v))
		if out[v] > s.MaxOutDegree {
			s.MaxOutDegree = out[v]
		}
		in := g.InDegree(uint32(v))
		if in > s.MaxInDegree {
			s.MaxInDegree = in
		}
		if out[v] == 0 && in == 0 {
			s.Isolated++
		}
	}
	sort.Ints(out)
	pick := func(p float64) int {
		if n == 0 {
			return 0
		}
		i := int(p * float64(n-1))
		return out[i]
	}
	s.P50, s.P90, s.P99 = pick(0.50), pick(0.90), pick(0.99)
	s.Symmetric = isSymmetric(g)
	return s
}

// WeaklyConnectedComponents returns the number of weakly connected
// components and the size of the largest one (directions ignored).
// Social-network stand-ins should be dominated by one giant component,
// which this lets the dataset tests assert.
func WeaklyConnectedComponents(g *Graph) (count, largest int) {
	n := g.NumNodes()
	seen := make([]bool, n)
	stack := make([]uint32, 0, 1024)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		count++
		size := 0
		seen[start] = true
		stack = append(stack[:0], uint32(start))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, v := range g.OutAdj(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
			for _, v := range g.InAdj(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// isSymmetric checks whether the edge multiset is closed under reversal.
func isSymmetric(g *Graph) bool {
	type pair struct{ u, v uint32 }
	counts := make(map[pair]int, g.NumEdges())
	g.Edges(func(u, v uint32, _ float32) {
		counts[pair{u, v}]++
	})
	for p, c := range counts {
		if counts[pair{p.v, p.u}] != c {
			return false
		}
	}
	return true
}
