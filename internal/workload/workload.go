// Package workload defines the experimental workloads of the paper's §IV:
// synthetic stand-ins for the four SNAP datasets of Table III (scaled to
// commodity hardware but matched in directedness and degree shape), and
// the neighbor-set maximum-coverage instances of §IV-C.
//
// The real datasets drop in unchanged through graph.LoadEdgeListFile; the
// stand-ins exist because the originals (up to 41.7M nodes / 1.5G edges)
// are not redistributable here and exceed a single test box. Every
// reported experiment depends on degree distribution and relative scale,
// which the generators control — see DESIGN.md, "Substitutions".
package workload

import (
	"fmt"

	"dimm/internal/coverage"
	"dimm/internal/graph"
)

// Spec describes one dataset stand-in.
type Spec struct {
	Name       string
	Nodes      int
	AvgDegree  float64
	Undirected bool
	// Paper columns of Table III for side-by-side reporting.
	PaperNodes     string
	PaperEdges     string
	PaperAvgDegree float64
	Seed           uint64
}

// Scale multiplies dataset node counts; the experiment harness uses small
// scales for quick runs and larger ones for the recorded EXPERIMENTS.md
// numbers.
type Scale float64

// Standard scales.
const (
	ScaleTiny  Scale = 0.25
	ScaleSmall Scale = 1.0
	ScaleFull  Scale = 4.0
)

// Specs returns the four Table III stand-ins at the given scale. Node
// counts are scaled from a baseline that keeps the largest dataset
// tractable on one machine; average degrees follow the paper's ratios
// (Facebook 43.7 undirected, Google+ 254.1, LiveJournal 28.5, Twitter
// 70.5), capped for the two highest-degree sets to keep RR generation
// costs proportionate at reduced node counts.
func Specs(scale Scale) []Spec {
	s := float64(scale)
	return []Spec{
		{
			Name: "facebook-sim", Nodes: max2(int(4000 * s)), AvgDegree: 43.7, Undirected: true,
			PaperNodes: "4.0K", PaperEdges: "88.2K", PaperAvgDegree: 43.7, Seed: 0xFACEB00C,
		},
		{
			Name: "gplus-sim", Nodes: max2(int(20000 * s)), AvgDegree: 60, Undirected: false,
			PaperNodes: "107.6K", PaperEdges: "13.7M", PaperAvgDegree: 254.1, Seed: 0x6500105,
		},
		{
			Name: "livejournal-sim", Nodes: max2(int(60000 * s)), AvgDegree: 28.5, Undirected: false,
			PaperNodes: "4.8M", PaperEdges: "69.0M", PaperAvgDegree: 28.5, Seed: 0x11763041,
		},
		{
			Name: "twitter-sim", Nodes: max2(int(100000 * s)), AvgDegree: 40, Undirected: false,
			PaperNodes: "41.7M", PaperEdges: "1.5G", PaperAvgDegree: 70.5, Seed: 0x731773,
		},
	}
}

func max2(n int) int {
	if n < 2 {
		return 2
	}
	return n
}

// Build materializes the stand-in graph with weighted-cascade edge
// probabilities (the paper's weight setting).
func (s Spec) Build() (*graph.Graph, error) {
	g, err := graph.GenPreferential(graph.GenConfig{
		Nodes:         s.Nodes,
		AvgDegree:     s.AvgDegree,
		Undirected:    s.Undirected,
		Seed:          s.Seed,
		UniformAttach: 0.15,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: building %s: %w", s.Name, err)
	}
	wc, err := graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("workload: weighting %s: %w", s.Name, err)
	}
	return wc, nil
}

// TypeString returns the Table III "Type" column value.
func (s Spec) TypeString() string {
	if s.Undirected {
		return "Undirected"
	}
	return "Directed"
}

// NeighborSetSystem maps a graph to the §IV-C maximum-coverage instance:
// the universe is V, and node u's set is its out-neighborhood N_u, so the
// goal is to pick k users whose neighbor union is largest.
func NeighborSetSystem(g *graph.Graph) (*coverage.SetSystem, error) {
	n := g.NumNodes()
	sets := make([][]uint32, n)
	for u := 0; u < n; u++ {
		sets[u] = g.OutAdj(uint32(u))
	}
	return coverage.NewSetSystem(n, sets)
}
