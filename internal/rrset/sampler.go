package rrset

import (
	"fmt"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// Scratch-shrink policy. One pathological RR set can balloon the BFS
// queue (and, in the batched kernel, the per-lane member/frontier
// arenas) to millions of entries; Go's append never releases capacity,
// so without a valve that worst case is retained for the sampler's
// lifetime. Every shrinkWindow samples the sampler compares retained
// capacity against the window's peak demand and reallocates when the
// slack factor is exceeded, so steady-state capacity tracks the recent
// workload instead of the all-time outlier.
const (
	shrinkWindow = 64   // samples between shrink decisions
	shrinkSlack  = 8    // keep capacity while cap ≤ slack × window peak
	shrinkMinCap = 1024 // never shrink below the initial capacity
)

// shrinkScratch returns buf, or a smaller replacement when its capacity
// exceeds shrinkSlack times the recent peak demand. The returned slice
// has length 0; callers must only invoke it between samples.
func shrinkScratch[T any](buf []T, peak int) []T {
	keep := shrinkSlack * peak
	if keep < shrinkMinCap {
		keep = shrinkMinCap
	}
	if cap(buf) <= keep {
		return buf[:0]
	}
	want := 2 * peak
	if want < shrinkMinCap {
		want = shrinkMinCap
	}
	return make([]T, 0, want)
}

// Sampler generates random RR sets on one graph (Definition 1 of the
// paper). It owns reusable scratch state (epoch-stamped visited array,
// BFS queue), so per-sample allocation is zero once warm. Not safe for
// concurrent use; each machine owns one Sampler.
//
// Randomness is organized in counter-based lanes: RR set number t (a
// lifetime counter, reset by Seed) draws from the generator stream
// xrand.LaneSeed(base, t), and within an IC traversal the coins for node
// u's in-edge scan come from the stream xrand.ScanSeed(lane, u). Every
// draw is therefore a pure function of (base, t, node visited), never of
// traversal interleaving — which is what allows BatchSampler to advance
// many sets per adjacency pass and still emit bit-identical output.
type Sampler struct {
	g     *graph.Graph
	model diffusion.Model

	// subset enables the SUBSIM subset-sampling optimization for IC: when
	// all of a node's incoming edges share one probability p, the indices
	// of successful coin flips are generated directly with geometric jumps
	// instead of flipping every coin. Requires g.UniformIn().
	subset bool

	// roots, when set, draws RR-set roots from a weighted distribution
	// instead of uniformly — the targeted-influence-maximization variant,
	// where Lemma 1 generalizes to the weighted spread
	// Σ_v w(v)·Pr[S activates v] = W·Pr[S ∩ R ≠ ∅], W = Σ w(v).
	roots *xrand.Alias

	base   uint64     // stream seed; RR set t uses lane xrand.LaneSeed(base, t)
	setCtr uint64     // lifetime RR-set counter
	lane   xrand.Rand // per-set generator: root draw and the LT walk
	scan   xrand.Rand // per-(set, node) generator: IC in-edge coins

	visited []uint32
	epoch   uint32
	queue   []uint32

	// One node's overlay in-edges, split into the coin-scan kernel's
	// adjacency/probability form (overlay lists are short: Compact folds
	// them at 1/8 of the base slots).
	overAdj  []uint32
	overProb []float32

	peakSize int // largest RR set in the current shrink window
	window   int // samples since the last shrink decision
}

// NewSampler returns an RR-set sampler for the given model. subset selects
// the SUBSIM generation strategy and requires per-node-uniform incoming
// probabilities (true for weighted-cascade graphs).
func NewSampler(g *graph.Graph, model diffusion.Model, seed uint64, subset bool) (*Sampler, error) {
	if subset && !g.UniformIn() {
		return nil, fmt.Errorf("rrset: subset sampling requires per-node-uniform incoming probabilities (weighted-cascade weights)")
	}
	if subset && g.MutationEnabled() {
		// Geometric jumps consume a variable number of draws per scan and
		// divide by log(1-p), so neither positional coin stability nor
		// p = 0 tombstones survive subset mode. Dynamic graphs use the
		// dense kernel.
		return nil, fmt.Errorf("rrset: subset sampling is incompatible with a mutation-enabled graph (coin positions are not stable under updates)")
	}
	if model == diffusion.LT {
		if err := g.ValidateLT(); err != nil {
			return nil, err
		}
	}
	return &Sampler{
		g:       g,
		base:    seed,
		model:   model,
		subset:  subset,
		visited: make([]uint32, g.NumNodes()),
		queue:   make([]uint32, 0, shrinkMinCap),
	}, nil
}

// Seed resets the sampler to the beginning of the stream identified by
// seed: the set counter rewinds, so the next sample is set 0 of that
// stream (used by tests for reproducibility).
func (s *Sampler) Seed(seed uint64) {
	s.base = seed
	s.setCtr = 0
}

// SetRootWeights switches the sampler to targeted mode: RR-set roots are
// drawn proportionally to weights (length n, non-negative, positive sum).
// Pass nil to return to uniform roots.
func (s *Sampler) SetRootWeights(weights []float64) error {
	if weights == nil {
		s.roots = nil
		return nil
	}
	if len(weights) != s.g.NumNodes() {
		return fmt.Errorf("rrset: %d root weights for %d nodes", len(weights), s.g.NumNodes())
	}
	a, err := xrand.NewAlias(weights)
	if err != nil {
		return err
	}
	s.roots = a
	return nil
}

func (s *Sampler) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
}

// SampleInto generates one random RR set and appends it to c. It returns
// the cardinality of the new set and the number of incoming edges probed.
func (s *Sampler) SampleInto(c *Collection) (size int, probes int64) {
	laneSeed := xrand.LaneSeed(s.base, s.setCtr)
	s.setCtr++
	s.lane.Seed(laneSeed)
	var root uint32
	if s.roots != nil {
		root = uint32(s.roots.Sample(&s.lane))
	} else {
		root = s.lane.Uint32n(uint32(s.g.NumNodes()))
	}
	switch s.model {
	case diffusion.IC:
		size, probes = s.sampleIC(root, laneSeed)
	case diffusion.LT:
		size, probes = s.sampleLT(root)
	default:
		panic(fmt.Sprintf("rrset: unknown model %v", s.model))
	}
	c.Append(s.queue[:size], probes)
	if size > s.peakSize {
		s.peakSize = size
	}
	if s.window++; s.window >= shrinkWindow {
		s.queue = shrinkScratch(s.queue, s.peakSize)
		s.peakSize, s.window = 0, 0
	}
	return size, probes
}

// ResampleLane re-runs RR-set generation for one explicit lane seed on
// the graph's current version, without touching the sampler's stream
// counter or appending anywhere. Because every draw an RR traversal
// consumes is a pure function of (lane seed, node, draw position),
// ResampleLane(xrand.LaneSeed(base, t)) IS set t of stream base as it
// would have been sampled on this graph — the incremental-repair
// primitive: recomputing an RR set after a graph mutation keeps the
// whole sample exactly i.i.d. on the new graph (see internal/mutate).
// The returned slice aliases the sampler's scratch queue; copy it before
// the next sampling call.
func (s *Sampler) ResampleLane(laneSeed uint64) ([]uint32, int64) {
	s.lane.Seed(laneSeed)
	var root uint32
	if s.roots != nil {
		root = uint32(s.roots.Sample(&s.lane))
	} else {
		root = s.lane.Uint32n(uint32(s.g.NumNodes()))
	}
	var size int
	var probes int64
	switch s.model {
	case diffusion.IC:
		size, probes = s.sampleIC(root, laneSeed)
	case diffusion.LT:
		size, probes = s.sampleLT(root)
	default:
		panic(fmt.Sprintf("rrset: unknown model %v", s.model))
	}
	return s.queue[:size], probes
}

// SampleManyInto generates count RR sets into c.
func (s *Sampler) SampleManyInto(c *Collection, count int64) {
	for i := int64(0); i < count; i++ {
		s.SampleInto(c)
	}
}

// sampleIC performs the stochastic reverse BFS of §III-A: starting from
// root, each incoming edge <u',u> is traversed with probability p(u',u).
// The visited nodes (left in s.queue) form the RR set.
//
// Every edge coin is flipped, even when the far endpoint is already in
// the set. Flipping a coin whose outcome cannot matter is distributionally
// a no-op (the coins are independent), but it makes the number and order
// of draws per node scan a fixed function of (lane, node) — the invariant
// the batched kernel relies on.
func (s *Sampler) sampleIC(root uint32, laneSeed uint64) (int, int64) {
	s.nextEpoch()
	s.queue = s.queue[:0]
	s.visited[root] = s.epoch
	s.queue = append(s.queue, root)
	uniform := s.g.UniformIn()
	var probes int64
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		adj := s.g.InAdj(u)
		over := s.g.InOverlay(u)
		if len(adj) == 0 && len(over) == 0 {
			continue
		}
		s.scan.Seed(xrand.ScanSeed(laneSeed, u))
		if s.subset {
			// All incoming probabilities of u are equal; jump straight to
			// the successful flips. Expected probes = 1 + d·p instead of d.
			if p := float64(s.g.InP(u)); p > 0 {
				logQ := xrand.LogComplement(p)
				i := s.scan.GeometricLog(logQ)
				for i < len(adj) {
					probes++
					up := adj[i]
					if s.visited[up] != s.epoch {
						s.visited[up] = s.epoch
						s.queue = append(s.queue, up)
					}
					i += 1 + s.scan.GeometricLog(logQ)
				}
			}
			probes++ // the terminating jump
			continue
		}
		// Successes land behind the queue's tail and are then admitted in
		// scan order: the coin is drawn before the membership test.
		tail := len(s.queue)
		if uniform {
			s.queue = s.scan.AppendUniformCoins(s.queue, adj, s.g.InP(u))
		} else {
			_, prob := s.g.InNeighbors(u)
			s.queue = s.scan.AppendCoins(s.queue, adj, prob)
		}
		// Overlay in-edges (added by mutation) continue the same scan
		// stream: overlay entry j draws coin number len(adj)+j, the
		// position it was assigned at ApplyUpdates. Tombstoned entries
		// (p = 0) still consume a draw but can never succeed, exactly
		// like tombstoned base slots.
		if len(over) > 0 {
			s.overAdj, s.overProb = s.overAdj[:0], s.overProb[:0]
			for _, e := range over {
				s.overAdj = append(s.overAdj, e.Node)
				s.overProb = append(s.overProb, e.Prob)
			}
			s.queue = s.scan.AppendCoins(s.queue, s.overAdj, s.overProb)
		}
		probes += int64(len(adj) + len(over))
		keep := tail
		for _, up := range s.queue[tail:] {
			if s.visited[up] != s.epoch {
				s.visited[up] = s.epoch
				s.queue[keep] = up
				keep++
			}
		}
		s.queue = s.queue[:keep]
	}
	return len(s.queue), probes
}

// sampleLT performs the reverse random walk of §III-A: from the current
// node u the walk stops with probability 1 − Σ p(·,u), otherwise moves to
// an in-neighbor drawn proportionally to its edge weight; it also stops on
// revisiting a node. The visited nodes form the RR set. All draws come
// from the set's lane generator: the walk is inherently sequential, so a
// batched kernel advances it one step per wave on the same stream.
func (s *Sampler) sampleLT(root uint32) (int, int64) {
	s.nextEpoch()
	s.queue = s.queue[:0]
	s.visited[root] = s.epoch
	s.queue = append(s.queue, root)
	var probes int64
	u := root
	for {
		adj := s.g.InAdj(u)
		over := s.g.InOverlay(u)
		if len(adj) == 0 && len(over) == 0 {
			break
		}
		sum := s.g.InProbSum(u)
		x := s.lane.Float64()
		if x >= sum {
			// Also the exit when every in-edge of u is tombstoned
			// (sum = 0): x >= 0 always holds.
			probes++
			break
		}
		var next uint32
		if s.g.UniformIn() {
			// Equal weights: the proportional draw is uniform. (Mutated
			// graphs clear uniformIn, so this path never sees overlays.)
			// x < sum makes x/sum ≤ 1 after rounding, so i ≤ d: the
			// subtraction wraps the one out-of-range value like "% d".
			d := len(adj)
			i := int(x / sum * float64(d))
			if i >= d {
				i -= d
			}
			next = adj[i]
			probes++
		} else {
			// Cumulative scan over base slots then overlay entries.
			// Tombstones (p = 0) never advance acc, so they cannot be
			// picked; the round-off fallback keeps the last live slot.
			_, prob := s.g.InNeighbors(u)
			acc := 0.0
			picked, haveLive := false, false
			var lastLive uint32
			for i, up := range adj {
				probes++
				if p := float64(prob[i]); p > 0 {
					lastLive, haveLive = up, true
					acc += p
					if x < acc {
						next = up
						picked = true
						break
					}
				}
			}
			if !picked {
				for _, e := range over {
					probes++
					if p := float64(e.Prob); p > 0 {
						lastLive, haveLive = e.Node, true
						acc += p
						if x < acc {
							next = e.Node
							picked = true
							break
						}
					}
				}
			}
			if !picked { // float round-off at the boundary
				if !haveLive {
					break
				}
				next = lastLive
			}
		}
		if s.visited[next] == s.epoch {
			break
		}
		s.visited[next] = s.epoch
		s.queue = append(s.queue, next)
		u = next
	}
	return len(s.queue), probes
}
