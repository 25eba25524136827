package rrset

import (
	"fmt"
	"slices"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// DefaultBatch is the frontier-batch width used when a batching knob is
// left at its zero value. Batching is safe to enable by default because
// the batched kernel's output is bit-identical to the scalar sampler's at
// every width; the knob only trades scratch memory (O(B × set size)) for
// adjacency-read locality.
const DefaultBatch = 64

// BatchStats are cumulative counters describing how effectively the
// batched kernel amortized adjacency reads. They are observability, not
// part of the sampled output: bit-identity of the RR sets holds at any
// batch width, so these numbers may legitimately differ across widths
// while the Collections stay byte-identical.
type BatchStats struct {
	// Cohorts counts batched rounds; each round carries up to B sets.
	Cohorts int64
	// Waves counts level-synchronous frontier expansions across cohorts.
	Waves int64
	// FrontierItems counts (set, node) scan items over all waves — the
	// unit of work the kernel groups by node to share adjacency reads.
	FrontierItems int64
	// LaneWaves sums, over waves, the number of lanes still active. The
	// ratio LaneWaves/(Waves·B) is frontier occupancy: how full the
	// batch is while waves are running.
	LaneWaves int64
	// SkippedEdges counts adjacency entries never touched thanks to
	// SUBSIM geometric jumps (subset mode only).
	SkippedEdges int64
}

// Add accumulates o into s.
func (s *BatchStats) Add(o BatchStats) {
	s.Cohorts += o.Cohorts
	s.Waves += o.Waves
	s.FrontierItems += o.FrontierItems
	s.LaneWaves += o.LaneWaves
	s.SkippedEdges += o.SkippedEdges
}

// batchLane is one in-flight RR traversal inside a cohort: the set under
// construction, its BFS frontier (IC) or walk position (LT), and a
// stamp-generation hash set answering "is node w already a member".
// All lane scratch is reused across cohorts — no per-set allocation in
// steady state.
type batchLane struct {
	laneSeed uint64
	r        xrand.Rand // lane generator: root draw and the LT walk
	members  []uint32   // RR set so far, in scalar append order
	frontier []uint32
	next     []uint32
	probes   int64
	cur      uint32 // LT: current walk node
	done     bool   // LT: walk terminated
	peak     int    // shrink-window peak set size

	// Visited membership, replacing the scalar sampler's n-sized
	// epoch-stamped array: B lanes × n words would be prohibitive, so each
	// lane keeps a linear-probing hash set sized to its set, with a
	// per-set generation stamp making cross-set reuse O(1). A slot holds
	// stamp<<32 | node+1; a slot whose stamp differs from the lane's
	// current stamp is empty.
	slots []uint64
	used  int
	stamp uint32
}

func laneHash(w uint32) uint32 {
	h := w * 2654435761
	return h ^ h>>16
}

// begin points the lane at a fresh RR set on the given lane seed.
func (ln *batchLane) begin(laneSeed uint64) {
	ln.laneSeed = laneSeed
	ln.r.Seed(laneSeed)
	ln.members = ln.members[:0]
	ln.frontier = ln.frontier[:0]
	ln.probes = 0
	ln.done = false
	ln.used = 0
	ln.stamp++
	if ln.stamp == 0 {
		// Stamp wraparound: stale slots from 2^32 sets ago would alias the
		// new generation, so clear the table once per wrap (cf. the scalar
		// sampler's epoch reset).
		clear(ln.slots)
		ln.stamp = 1
	}
}

// insert adds w to the lane's membership set; it reports whether w was
// newly inserted (false: already a member).
func (ln *batchLane) insert(w uint32) bool {
	if (ln.used+1)*4 > len(ln.slots)*3 {
		ln.grow()
	}
	mask := uint32(len(ln.slots) - 1)
	key := uint64(ln.stamp)<<32 | uint64(w+1)
	for h := laneHash(w) & mask; ; h = (h + 1) & mask {
		s := ln.slots[h]
		if uint32(s>>32) != ln.stamp {
			ln.slots[h] = key
			ln.used++
			return true
		}
		if s == key {
			return false
		}
	}
}

func (ln *batchLane) grow() {
	old := ln.slots
	ln.slots = make([]uint64, 2*len(old))
	mask := uint32(len(ln.slots) - 1)
	for _, s := range old {
		if uint32(s>>32) != ln.stamp {
			continue // stale or empty slot: not part of the current set
		}
		h := laneHash(uint32(s)-1) & mask
		for ln.slots[h] != 0 {
			h = (h + 1) & mask
		}
		ln.slots[h] = s
	}
}

// BatchSampler generates RR sets with the same semantics — and, set for
// set, the same bytes — as Sampler, but advances up to B traversals
// (lanes) level-synchronously: each wave gathers every lane's frontier,
// sorts the (node, lane) items by node, and scans each distinct node's
// in-adjacency once for all lanes that want it. On graphs whose in-CSR
// exceeds cache, that amortization is the win gIM/DiFuseR get from GPU
// frontier batching, on a CPU.
//
// Bit-identity with the scalar sampler holds because no draw depends on
// interleaving: set t draws from lane xrand.LaneSeed(base, t), and IC
// edge coins for node u come from xrand.ScanSeed(lane, u). The commit
// pass replays each lane's frontier in FIFO order, so member order
// matches the scalar BFS exactly. Not safe for concurrent use.
type BatchSampler struct {
	g      *graph.Graph
	model  diffusion.Model
	subset bool
	roots  *xrand.Alias

	base   uint64
	setCtr uint64
	lanes  []batchLane
	scan   xrand.Rand // per-(lane, node) scan generator, reseeded per item

	// Wave scratch, reused across waves and cohorts.
	keys      []uint64 // node<<32 | seq, sorted per wave
	laneBySeq []int32
	cand      []uint32 // flat arena of successful coin flips, all items
	candStart []int32  // per-seq [start, end) into cand
	candEnd   []int32

	stats    BatchStats
	cohorts  int // shrink-window counter
	peakWave int // shrink-window peak wave items

	// prefetchSink keeps prefetchWave's loads observable so the compiler
	// cannot eliminate them. Per-sampler: shards must not share a word.
	prefetchSink uint64
}

// NewBatchSampler returns a frontier-batched sampler advancing width RR
// traversals per adjacency pass. Width values below 1 are treated as 1.
// Seed identifies the same stream a Sampler with that seed samples.
func NewBatchSampler(g *graph.Graph, model diffusion.Model, seed uint64, subset bool, width int) (*BatchSampler, error) {
	if subset && !g.UniformIn() {
		return nil, fmt.Errorf("rrset: subset sampling requires per-node-uniform incoming probabilities (weighted-cascade weights)")
	}
	if model == diffusion.LT {
		if err := g.ValidateLT(); err != nil {
			return nil, err
		}
	}
	if width < 1 {
		width = 1
	}
	s := &BatchSampler{
		g:      g,
		model:  model,
		subset: subset,
		base:   seed,
		lanes:  make([]batchLane, width),
	}
	for i := range s.lanes {
		s.lanes[i].slots = make([]uint64, 64)
	}
	return s, nil
}

// Width returns B, the number of lanes advanced per wave.
func (s *BatchSampler) Width() int { return len(s.lanes) }

// Seed rewinds the sampler to set 0 of the stream identified by seed.
func (s *BatchSampler) Seed(seed uint64) {
	s.base = seed
	s.setCtr = 0
}

// Stats returns the cumulative batching counters.
func (s *BatchSampler) Stats() BatchStats { return s.stats }

// SetRootWeights switches the sampler to targeted mode (see
// Sampler.SetRootWeights).
func (s *BatchSampler) SetRootWeights(weights []float64) error {
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

// SampleManyInto generates count RR sets into c, in cohorts of up to B.
// The emitted sets are numbers setCtr..setCtr+count-1 of the seed's
// stream, byte-identical to what a Sampler on the same stream would
// append — including across SampleManyInto call boundaries that split a
// cohort.
func (s *BatchSampler) SampleManyInto(c *Collection, count int64) {
	for count > 0 {
		active := int64(len(s.lanes))
		if count < active {
			active = count
		}
		s.runCohort(c, int(active))
		count -= active
	}
}

func (s *BatchSampler) runCohort(c *Collection, active int) {
	n := uint32(s.g.NumNodes())
	for i := 0; i < active; i++ {
		ln := &s.lanes[i]
		ln.begin(xrand.LaneSeed(s.base, s.setCtr))
		s.setCtr++
		var root uint32
		if s.roots != nil {
			root = uint32(s.roots.Sample(&ln.r))
		} else {
			root = ln.r.Uint32n(n)
		}
		ln.insert(root)
		ln.members = append(ln.members, root)
		if s.model == diffusion.IC {
			ln.frontier = append(ln.frontier, root)
		} else {
			ln.cur = root
		}
	}
	s.stats.Cohorts++
	switch s.model {
	case diffusion.IC:
		s.runICWaves(active)
	case diffusion.LT:
		s.runLTWaves(active)
	default:
		panic(fmt.Sprintf("rrset: unknown model %v", s.model))
	}
	// Emit in lane-slot order = ascending set number within the cohort.
	for i := 0; i < active; i++ {
		ln := &s.lanes[i]
		c.Append(ln.members, ln.probes)
		if len(ln.members) > ln.peak {
			ln.peak = len(ln.members)
		}
	}
	if s.cohorts++; s.cohorts >= shrinkWindow {
		for i := range s.lanes {
			ln := &s.lanes[i]
			ln.members = shrinkScratch(ln.members, ln.peak)
			ln.frontier = shrinkScratch(ln.frontier, ln.peak)
			ln.next = shrinkScratch(ln.next, ln.peak)
			ln.peak = 0
		}
		s.keys = shrinkScratch(s.keys, s.peakWave)
		s.laneBySeq = shrinkScratch(s.laneBySeq, s.peakWave)
		s.cand = shrinkScratch(s.cand, s.peakWave)
		s.candStart = shrinkScratch(s.candStart, s.peakWave)
		s.candEnd = shrinkScratch(s.candEnd, s.peakWave)
		s.cohorts, s.peakWave = 0, 0
	}
}

// runICWaves expands all lanes' BFS frontiers level-synchronously. Each
// wave is two passes: a scan pass over the wave's (node, lane) items in
// node-sorted order — so one InNeighbors fetch serves every lane whose
// frontier holds that node — recording successful coin flips per item,
// then a commit pass replaying items in lane/FIFO order so membership
// checks and appends happen in exactly the scalar sampler's sequence.
func (s *BatchSampler) runICWaves(active int) {
	uniform := s.g.UniformIn()
	for {
		s.keys = s.keys[:0]
		s.laneBySeq = s.laneBySeq[:0]
		lanesLive := 0
		for li := 0; li < active; li++ {
			ln := &s.lanes[li]
			if len(ln.frontier) == 0 {
				continue
			}
			lanesLive++
			for _, u := range ln.frontier {
				s.keys = append(s.keys, uint64(u)<<32|uint64(len(s.laneBySeq)))
				s.laneBySeq = append(s.laneBySeq, int32(li))
			}
		}
		items := len(s.keys)
		if items == 0 {
			return
		}
		if items > s.peakWave {
			s.peakWave = items
		}
		s.stats.Waves++
		s.stats.LaneWaves += int64(lanesLive)
		s.stats.FrontierItems += int64(items)
		slices.Sort(s.keys)

		s.candStart = slices.Grow(s.candStart[:0], items)[:items]
		s.candEnd = slices.Grow(s.candEnd[:0], items)[:items]
		s.cand = s.cand[:0]
		s.prefetchWave()
		curNode := ^uint32(0)
		var adj []uint32
		var prob []float32
		for _, key := range s.keys {
			u := uint32(key >> 32)
			seq := int32(key)
			if u != curNode {
				adj, prob = s.g.InNeighbors(u)
				curNode = u
			}
			ln := &s.lanes[s.laneBySeq[seq]]
			start := int32(len(s.cand))
			if len(adj) > 0 {
				s.scan.Seed(xrand.ScanSeed(ln.laneSeed, u))
				if s.subset {
					p := float64(prob[0])
					landed := 0
					if p > 0 {
						i := s.scan.Geometric(p)
						for i < len(adj) {
							ln.probes++
							landed++
							s.cand = append(s.cand, adj[i])
							i += 1 + s.scan.Geometric(p)
						}
					}
					ln.probes++ // the terminating jump
					s.stats.SkippedEdges += int64(len(adj) - landed)
				} else {
					s.cand = s.scan.AppendCoins(s.cand, adj, prob, uniform)
					ln.probes += int64(len(adj))
				}
			}
			s.candStart[seq], s.candEnd[seq] = start, int32(len(s.cand))
		}

		seq := 0
		for li := 0; li < active; li++ {
			ln := &s.lanes[li]
			if len(ln.frontier) == 0 {
				continue
			}
			ln.next = ln.next[:0]
			for range ln.frontier {
				for _, w := range s.cand[s.candStart[seq]:s.candEnd[seq]] {
					if ln.insert(w) {
						ln.members = append(ln.members, w)
						ln.next = append(ln.next, w)
					}
				}
				seq++
			}
			ln.frontier, ln.next = ln.next, ln.frontier
		}
	}
}

// prefetchWave touches the CSR offset and adjacency-block boundary
// entries of the wave's nodes before the scan pass (skipping adjacent
// repeats, which a node-sorted IC wave makes of every duplicate).
// Each iteration's loads are independent of the previous one's, so the
// CPU overlaps their DRAM misses at full memory-level parallelism; the
// serial scan pass that follows then finds the lines resident instead of
// stalling one miss at a time. This is where most of the batched kernel's
// speedup on larger-than-LLC graphs comes from — a lone BFS has almost no
// independent loads to overlap.
func (s *BatchSampler) prefetchWave() {
	var sink uint64
	cur := ^uint32(0)
	for _, key := range s.keys {
		u := uint32(key >> 32)
		if u == cur {
			continue
		}
		cur = u
		adj, prob := s.g.InNeighbors(u)
		if len(adj) > 0 {
			sink += uint64(adj[0]) + uint64(adj[len(adj)-1]) + uint64(uint32(prob[0]))
		}
	}
	s.prefetchSink += sink
}

// runLTWaves advances every live walk one step per wave, visiting live
// lanes in slot order. All draws come from each lane's own generator, so
// the cross-lane visit order cannot perturb any walk — and, unlike an IC
// wave, no adjacency fetch is shared between lanes (each walk reads one
// in-edge list once), so sorting the wave by node would buy nothing the
// prefetch pass does not already give.
func (s *BatchSampler) runLTWaves(active int) {
	for {
		s.keys = s.keys[:0]
		for li := 0; li < active; li++ {
			ln := &s.lanes[li]
			if ln.done {
				continue
			}
			s.keys = append(s.keys, uint64(ln.cur)<<32|uint64(li))
		}
		items := len(s.keys)
		if items == 0 {
			return
		}
		s.stats.Waves++
		s.stats.LaneWaves += int64(items)
		s.stats.FrontierItems += int64(items)
		s.prefetchWave()
		for _, key := range s.keys {
			u := uint32(key >> 32)
			ln := &s.lanes[int32(key)]
			adj, prob := s.g.InNeighbors(u)
			if len(adj) == 0 {
				ln.done = true
				continue
			}
			sum := s.g.InProbSum(u)
			x := ln.r.Float64()
			if x >= sum {
				ln.probes++
				ln.done = true
				continue
			}
			var next uint32
			if s.g.UniformIn() {
				next = adj[int(x/sum*float64(len(adj)))%len(adj)]
				ln.probes++
			} else {
				acc := 0.0
				picked := false
				for i, up := range adj {
					ln.probes++
					acc += float64(prob[i])
					if x < acc {
						next = up
						picked = true
						break
					}
				}
				if !picked { // float round-off at the boundary
					next = adj[len(adj)-1]
				}
			}
			if !ln.insert(next) {
				ln.done = true
				continue
			}
			ln.members = append(ln.members, next)
			ln.cur = next
		}
	}
}
