// Package diffusion implements the influence propagation models of
// Kempe, Kleinberg and Tardos (KDD'03): independent cascade (IC) and
// linear threshold (LT). It provides
//
//   - forward Monte-Carlo simulation, the classic unbiased estimator of a
//     seed set's influence spread σ(S), used to validate seed sets produced
//     by the RIS-based algorithms; and
//   - exact spread computation by enumeration of all possible worlds, which
//     is only feasible on tiny graphs (the spread is #P-hard in general) and
//     serves as ground truth in the test suite.
package diffusion

import (
	"fmt"
	"math"

	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// Model identifies a diffusion model.
type Model int

const (
	// IC is the independent cascade model: a newly activated node u gets a
	// single chance to activate each out-neighbor v with probability p(u,v).
	IC Model = iota
	// LT is the linear threshold model: node v activates once the weights
	// of its activated in-neighbors reach a uniform random threshold.
	LT
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts a CLI string to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "ic", "IC":
		return IC, nil
	case "lt", "LT":
		return LT, nil
	default:
		return 0, fmt.Errorf("diffusion: unknown model %q (want ic|lt)", s)
	}
}

// Simulator runs forward cascades on one graph. It owns reusable scratch
// buffers, so a single Simulator amortizes all allocation across runs; it
// is not safe for concurrent use.
type Simulator struct {
	g       *graph.Graph
	r       *xrand.Rand
	visited []uint32 // epoch stamps; visited[v] == epoch means active
	epoch   uint32
	queue   []uint32
	thresh  []float64 // LT: remaining threshold mass per node this run, made by the first LT run
	dirty   []uint32  // LT: the nodes whose threshold this run drew
}

// NewSimulator returns a simulator over g seeded with seed.
func NewSimulator(g *graph.Graph, seed uint64) *Simulator {
	return &Simulator{
		g:       g,
		r:       xrand.New(seed),
		visited: make([]uint32, g.NumNodes()),
		queue:   make([]uint32, 0, 1024),
	}
}

// nextEpoch advances the visited-stamp epoch, clearing the array only on
// the (rare) wraparound.
func (s *Simulator) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
}

// RunOnce simulates a single cascade from seeds and returns the number of
// activated nodes (including the seeds).
func (s *Simulator) RunOnce(seeds []uint32, model Model) int {
	switch model {
	case IC:
		return s.runIC(seeds)
	case LT:
		return s.runLT(seeds)
	default:
		panic(fmt.Sprintf("diffusion: unknown model %v", model))
	}
}

func (s *Simulator) runIC(seeds []uint32) int {
	s.nextEpoch()
	s.queue = s.queue[:0]
	for _, v := range seeds {
		if s.visited[v] != s.epoch {
			s.visited[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
	activated := len(s.queue)
	// The generator lives in a local for the cascade (see xrand.Rand.Next):
	// one coin per edge to an inactive target, in scan order.
	rng := *s.r
	uniform := s.g.UniformIn()
	out := s.g.Out()
	var prob []float32
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		adj := out.Adj(u)
		if !uniform {
			prob = out.Prob(u)
		}
		for i, v := range adj {
			if s.visited[v] == s.epoch {
				continue
			}
			var coin uint64
			if coin, rng = rng.Next(); xrand.Unit(coin) < float64(s.edgeProb(uniform, prob, i, v)) {
				s.visited[v] = s.epoch
				s.queue = append(s.queue, v)
				activated++
			}
		}
	}
	*s.r = rng
	return activated
}

// runLT simulates the LT model with lazily drawn thresholds: a node's
// threshold is sampled the first time one of its in-neighbors activates,
// then decremented by each newly active in-neighbor's weight; the node
// activates when the remainder crosses zero. This is distributionally
// identical to drawing all thresholds up front and costs O(activated
// out-degree volume) instead of O(n) per run.
func (s *Simulator) runLT(seeds []uint32) int {
	s.nextEpoch()
	s.queue = s.queue[:0]
	for _, v := range seeds {
		if s.visited[v] != s.epoch {
			s.visited[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
	activated := len(s.queue)
	// dirty lists the nodes whose threshold was drawn this run, so the
	// thresh array can be reset to its zero ("undrawn") state afterwards.
	// It holds at most one entry per node, so it is sized once. An IC
	// simulator never makes either.
	if s.thresh == nil {
		s.thresh = make([]float64, len(s.visited))
		s.dirty = make([]uint32, 0, len(s.visited))
	}
	dirty := s.dirty[:0]
	defer func() {
		for _, v := range dirty {
			s.thresh[v] = 0
		}
	}()
	rng := *s.r
	uniform := s.g.UniformIn()
	out := s.g.Out()
	var prob []float32
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		adj := out.Adj(u)
		if !uniform {
			prob = out.Prob(u)
		}
		for i, v := range adj {
			if s.visited[v] == s.epoch {
				continue
			}
			if s.thresh[v] == 0 {
				// First active in-neighbor: draw threshold in (0,1].
				var draw uint64
				draw, rng = rng.Next()
				t := xrand.Unit(draw)
				if t == 0 {
					t = 1e-18
				}
				s.thresh[v] = t
				dirty = append(dirty, v)
			}
			s.thresh[v] -= float64(s.edgeProb(uniform, prob, i, v))
			if s.thresh[v] <= 1e-12 {
				s.visited[v] = s.epoch
				s.queue = append(s.queue, v)
				activated++
			}
		}
	}
	*s.r = rng
	return activated
}

// edgeProb is p(u, v) for out-edge i of u, whose head is v: the head's
// in-probability on a uniform-in graph, else prob[i] from u's
// out-neighbour probabilities.
func (s *Simulator) edgeProb(uniform bool, prob []float32, i int, v uint32) float32 {
	if uniform {
		return s.g.InP(v)
	}
	return prob[i]
}

// Estimate runs rounds cascades and returns the sample mean and standard
// error of the spread σ(seeds).
func (s *Simulator) Estimate(seeds []uint32, model Model, rounds int) (mean, stderr float64) {
	if rounds <= 0 {
		return 0, 0
	}
	sum, sumSq := 0.0, 0.0
	for i := 0; i < rounds; i++ {
		x := float64(s.RunOnce(seeds, model))
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(rounds)
	variance := sumSq/float64(rounds) - mean*mean
	if variance < 0 {
		variance = 0
	}
	stderr = math.Sqrt(variance / float64(rounds))
	return mean, stderr
}
