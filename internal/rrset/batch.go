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

// ringFactor sizes the in-order emit ring at ringFactor·B slots: that
// many sets may start past the oldest unfinished one before lanes idle.
// 4 is the smallest that measured full speed on the benchmark graph
// (8 raised occupancy from 0.80 to 0.98 at the same ns/member).
const ringFactor = 4

// BatchStats are cumulative counters describing how effectively the
// batched kernel amortized adjacency reads. They are observability, not
// part of the sampled output: bit-identity of the RR sets holds at any
// batch width, so these numbers may legitimately differ across widths
// while the Collections stay byte-identical.
type BatchStats struct {
	// Streams counts SampleManyInto calls that sampled anything; each one
	// fills the lanes, refills them as sets finish, and drains them
	// before returning. (It occupies the wire slot and /statsz field of
	// the cohort counter it replaced: "batch_cohorts".)
	Streams int64
	// Waves counts wave steps over all streams: one BFS level of every
	// live IC lane, or one walk step of every live LT lane.
	Waves int64
	// FrontierItems counts (set, node) scan items over all waves — the
	// unit of work the kernel groups by node to share adjacency reads.
	FrontierItems int64
	// LaneWaves sums, over waves, the number of lanes holding a set. The
	// ratio LaneWaves/(Waves·B) is frontier occupancy: lanes idle only
	// while the emit ring is full or a stream drains.
	LaneWaves int64
	// SkippedEdges counts adjacency entries never touched thanks to
	// SUBSIM geometric jumps (subset mode only).
	SkippedEdges int64
}

// Add accumulates o into s.
func (s *BatchStats) Add(o BatchStats) {
	s.Streams += o.Streams
	s.Waves += o.Waves
	s.FrontierItems += o.FrontierItems
	s.LaneWaves += o.LaneWaves
	s.SkippedEdges += o.SkippedEdges
}

// batchLane is one RR traversal slot: the set under construction, its
// BFS frontier (IC) or walk position (LT), and a stamp-generation hash set
// answering "is node w already a member". All lane scratch is reused from
// set to set — no per-set allocation in steady state.
type batchLane struct {
	laneSeed uint64
	r        xrand.Rand // lane generator: root draw and the LT walk
	set      int64      // the set in flight, numbered from the call's first
	live     bool       // holds an unfinished set
	members  []uint32   // RR set so far, in scalar append order
	frontier []uint32
	next     []uint32
	probes   int64
	cur      uint32 // LT: current walk node
	gen      uint32 // shrink decision the buffers last went through

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
	ln.live = true
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

// ringSlot parks one finished set until every earlier set is emitted.
type ringSlot struct {
	members []uint32
	probes  int64
	full    bool
	gen     uint32 // shrink decision members last went through
}

// ltStep is one live walk's step on its way through a wave's staged
// passes.
type ltStep struct {
	lane int32
	adj  []uint32
	sum  float64
	x    float64 // the step's draw, kept for the non-uniform scan
	pick int     // slot of the next node, or stepStop / stepScan
	next uint32
}

const (
	stepStop = -1 // the walk ends at this node
	stepScan = -2 // non-uniform weights: the commit pass scans for the pick
)

// BatchSampler generates RR sets with the same semantics — and, set for
// set, the same bytes — as Sampler, but keeps up to B traversals (lanes)
// in flight and advances all of them one wave at a time. A lane whose set
// finishes starts the next unstarted set at once, so a straggler holds
// back only its own lane; finished sets wait in a fixed in-order ring of
// ringFactor·B slots until every earlier set is out, and lanes idle only
// while that ring is full. Under IC each wave sorts the lanes' frontier
// items by node and scans each distinct node's in-adjacency once for all
// lanes that want it; under LT each wave steps every walk through staged
// passes whose loads are independent across lanes, so their cache misses
// overlap. On graphs whose in-CSR exceeds cache, that is the win
// gIM/DiFuseR get from GPU frontier batching, on a CPU.
//
// Bit-identity with the scalar sampler holds because no draw depends on
// interleaving: set t draws from lane xrand.LaneSeed(base, t), and IC
// edge coins for node u come from xrand.ScanSeed(lane, u). The IC commit
// pass replays each lane's frontier in FIFO order, so member order
// matches the scalar BFS exactly, and the ring appends sets in set order
// whichever lane finished first. Not safe for concurrent use.
type BatchSampler struct {
	g      *graph.Graph
	model  diffusion.Model
	subset bool
	roots  *xrand.Alias

	base   uint64
	setCtr uint64
	lanes  []batchLane
	ring   []ringSlot // set j (call-relative) waits in ring[j % len(ring)]
	scan   xrand.Rand // per-(lane, node) scan generator, reseeded per item

	// The stream in progress: sets [emitted, started) are in flight or
	// parked in the ring, and started never runs len(ring) past emitted.
	out                     *Collection
	count, started, emitted int64

	// Wave scratch, reused across waves and streams.
	keys      []uint64 // IC: node<<32 | seq, sorted per wave
	laneBySeq []int32
	cand      []uint32 // flat arena of successful coin flips, all items
	candStart []int32  // per-seq [start, end) into cand
	candEnd   []int32
	steps     []ltStep // LT: one per live lane

	stats BatchStats

	// Shrink window, counted in finished sets: after shrinkWindow·B of
	// them the wave scratch is trimmed to the window's peak wave, and
	// every lane and ring slot is trimmed against the window's largest
	// set the next time it is empty (gen tags which decision a buffer has
	// seen).
	finished   int
	peakSet    int
	peakWave   int
	gen        uint32
	shrinkPeak int

	// prefetchSink keeps prefetchWave's loads observable so the compiler
	// cannot eliminate them. Per-sampler: shards must not share a word.
	prefetchSink uint64
}

// NewBatchSampler returns a frontier-batched sampler keeping width RR
// traversals in flight. Width values below 1 are treated as 1. Seed
// identifies the same stream a Sampler with that seed samples.
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
		ring:   make([]ringSlot, ringFactor*width),
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

// SampleManyInto generates count RR sets into c: numbers
// setCtr..setCtr+count-1 of the seed's stream, byte-identical to what a
// Sampler on the same stream would append. The call drains completely —
// every lane finishes and the ring empties before it returns — so no
// lane state outlives it and any split of a request into calls emits the
// same bytes.
func (s *BatchSampler) SampleManyInto(c *Collection, count int64) {
	if count <= 0 {
		return
	}
	s.stats.Streams++
	s.out, s.count, s.started, s.emitted = c, count, 0, 0
	switch s.model {
	case diffusion.IC:
		s.runICWaves()
	case diffusion.LT:
		s.runLTWaves()
	default:
		panic(fmt.Sprintf("rrset: unknown model %v", s.model))
	}
	s.out = nil
	for i := range s.lanes {
		s.trimLane(&s.lanes[i])
	}
	for i := range s.ring {
		s.trimSlot(&s.ring[i])
	}
}

// start hands the next unstarted set to an idle lane. It refuses when the
// stream is exhausted or the set would have no ring slot to wait in.
func (s *BatchSampler) start(ln *batchLane) bool {
	if s.started == s.count || s.started-s.emitted == int64(len(s.ring)) {
		return false
	}
	s.trimLane(ln)
	ln.set = s.started
	s.started++
	ln.begin(xrand.LaneSeed(s.base, s.setCtr))
	s.setCtr++
	var root uint32
	if s.roots != nil {
		root = uint32(s.roots.Sample(&ln.r))
	} else {
		root = ln.r.Uint32n(uint32(s.g.NumNodes()))
	}
	ln.insert(root)
	ln.members = append(ln.members, root)
	if s.model == diffusion.IC {
		ln.frontier = append(ln.frontier, root)
	} else {
		ln.cur = root
	}
	return true
}

// finish retires ln's set: appended at once when it is next in set
// order, otherwise parked in its ring slot; each append flushes the run
// of parked sets that follows it.
func (s *BatchSampler) finish(ln *batchLane) {
	ln.live = false
	s.finished++
	if len(ln.members) > s.peakSet {
		s.peakSet = len(ln.members)
	}
	r := int64(len(s.ring))
	if ln.set != s.emitted {
		sl := &s.ring[ln.set%r]
		if sl.full {
			panic("rrset: emit ring overrun")
		}
		// Park by swapping buffers, not copying: the lane takes the slot's
		// empty buffer (trimmed to the current decision) and the slot's tag
		// follows the lane's buffer it now holds.
		s.trimSlot(sl)
		sl.members, ln.members = ln.members, sl.members[:0]
		sl.gen = ln.gen
		sl.probes, sl.full = ln.probes, true
		return
	}
	s.out.Append(ln.members, ln.probes)
	for s.emitted++; ; s.emitted++ {
		sl := &s.ring[s.emitted%r]
		if !sl.full {
			return
		}
		s.out.Append(sl.members, sl.probes)
		sl.members, sl.full = sl.members[:0], false
	}
}

// closeWindow ends a shrink window once shrinkWindow·B sets finished
// since the last one (the sets a wave finishes past that count go to the
// next window). It runs between waves, when the wave scratch is free;
// lanes and ring slots take the decision when next empty.
func (s *BatchSampler) closeWindow() {
	window := shrinkWindow * len(s.lanes)
	if s.finished < window {
		return
	}
	s.keys = shrinkScratch(s.keys, s.peakWave)
	s.laneBySeq = shrinkScratch(s.laneBySeq, s.peakWave)
	s.cand = shrinkScratch(s.cand, s.peakWave)
	s.candStart = shrinkScratch(s.candStart, s.peakWave)
	s.candEnd = shrinkScratch(s.candEnd, s.peakWave)
	s.gen++
	s.shrinkPeak = s.peakSet
	s.finished -= window
	s.peakSet, s.peakWave = 0, 0
}

// trimLane applies the latest shrink decision to an idle lane: buffers
// and membership table more than shrinkSlack times what the window's
// largest set needed are reallocated at that size.
func (s *BatchSampler) trimLane(ln *batchLane) {
	if ln.gen == s.gen {
		return
	}
	ln.gen = s.gen
	ln.members = shrinkScratch(ln.members, s.shrinkPeak)
	ln.frontier = shrinkScratch(ln.frontier, s.shrinkPeak)
	ln.next = shrinkScratch(ln.next, s.shrinkPeak)
	want := 64
	for want*3 < (s.shrinkPeak+1)*4 {
		want *= 2
	}
	if len(ln.slots) > shrinkSlack*want {
		ln.slots = make([]uint64, want) // all stamps 0: empty
	}
}

// trimSlot applies the latest shrink decision to an empty ring slot.
func (s *BatchSampler) trimSlot(sl *ringSlot) {
	if sl.gen == s.gen {
		return
	}
	sl.gen = s.gen
	sl.members = shrinkScratch(sl.members, s.shrinkPeak)
}

// runICWaves expands the lanes' BFS frontiers level-synchronously, idle
// lanes taking the next set as each wave is gathered. Each wave is two
// passes: a scan pass over the wave's (node, lane) items in node-sorted
// order — so one adjacency fetch serves every lane whose frontier holds
// that node — recording successful coin flips per item, then a commit
// pass replaying items in lane/FIFO order so membership checks and
// appends happen in exactly the scalar sampler's sequence.
func (s *BatchSampler) runICWaves() {
	uniform := s.g.UniformIn()
	for {
		s.closeWindow()
		s.keys = s.keys[:0]
		s.laneBySeq = s.laneBySeq[:0]
		lanesLive := 0
		for li := range s.lanes {
			ln := &s.lanes[li]
			if !ln.live && !s.start(ln) {
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
			return // no set in flight and none left to start
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
		s.prefetchWave(uniform)
		curNode := ^uint32(0)
		var adj []uint32
		var prob []float32
		var pIn float32 // the in-probability of curNode when uniform
		for _, key := range s.keys {
			u := uint32(key >> 32)
			seq := int32(key)
			if u != curNode {
				if uniform {
					adj, pIn = s.g.InAdj(u), s.g.InP(u)
				} else {
					adj, prob = s.g.InNeighbors(u)
				}
				curNode = u
			}
			ln := &s.lanes[s.laneBySeq[seq]]
			start := int32(len(s.cand))
			if len(adj) > 0 {
				s.scan.Seed(xrand.ScanSeed(ln.laneSeed, u))
				if s.subset {
					landed := 0
					if p := float64(pIn); p > 0 {
						logQ := xrand.LogComplement(p)
						i := s.scan.GeometricLog(logQ)
						for i < len(adj) {
							ln.probes++
							landed++
							s.cand = append(s.cand, adj[i])
							i += 1 + s.scan.GeometricLog(logQ)
						}
					}
					ln.probes++ // the terminating jump
					s.stats.SkippedEdges += int64(len(adj) - landed)
				} else if uniform {
					s.cand = s.scan.AppendUniformCoins(s.cand, adj, pIn)
					ln.probes += int64(len(adj))
				} else {
					s.cand = s.scan.AppendCoins(s.cand, adj, prob)
					ln.probes += int64(len(adj))
				}
			}
			s.candStart[seq], s.candEnd[seq] = start, int32(len(s.cand))
		}

		seq := 0
		for li := range s.lanes {
			ln := &s.lanes[li]
			if !ln.live {
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
			if len(ln.frontier) == 0 {
				s.finish(ln)
			}
		}
	}
}

// prefetchWave touches the CSR offset and adjacency-block boundary
// entries and the in-probability of an IC wave's nodes before the scan
// pass (skipping adjacent
// repeats, which the node sort makes of every duplicate). Each
// iteration's loads are independent of the previous one's, so the CPU
// overlaps their DRAM misses at full memory-level parallelism; the serial
// scan pass that follows then finds the lines resident instead of
// stalling one miss at a time — a lone BFS has almost no independent
// loads to overlap.
func (s *BatchSampler) prefetchWave(uniform bool) {
	var sink uint64
	cur := ^uint32(0)
	for _, key := range s.keys {
		u := uint32(key >> 32)
		if u == cur {
			continue
		}
		cur = u
		adj := s.g.InAdj(u)
		if len(adj) == 0 {
			continue
		}
		sink += uint64(adj[0]) + uint64(adj[len(adj)-1])
		if uniform {
			sink += uint64(s.g.InP(u))
		} else {
			_, prob := s.g.InNeighbors(u)
			sink += uint64(uint32(prob[0]))
		}
	}
	s.prefetchSink += sink
}

// runLTWaves advances every live walk one step per wave, idle lanes
// taking the next set as each wave is gathered. A walk's step is a chain
// of dependent misses (the node's CSR offsets and in-probability sum,
// then the picked in-neighbour), and no adjacency fetch is shared between
// walks, so the wave is split into passes that each issue one link of
// every lane's chain: (a) the gather, loading offsets and sum, (b) the
// draw and the slot arithmetic with no memory access, (c) the picked
// in-neighbour, (d) the commit — membership, append, finish, and the
// cumulative scan when weights are not uniform. Loads within a pass are
// independent across lanes, so the CPU overlaps B misses where a lone
// walk would take them one at a time. (Folding (b) into (c) measured 20 %
// slower.) All draws come from each lane's own generator, so pass order
// cannot perturb any walk.
func (s *BatchSampler) runLTWaves() {
	uniform := s.g.UniformIn()
	for {
		s.closeWindow()
		// (a) doubles as the gather. Step records are reused and written
		// field by field: appending a fresh literal per lane per wave cost
		// 15 % of the kernel.
		n := 0
		for li := range s.lanes { // (a)
			ln := &s.lanes[li]
			if !ln.live && !s.start(ln) {
				continue
			}
			if n == len(s.steps) {
				s.steps = append(s.steps, ltStep{})
			}
			st := &s.steps[n]
			st.lane = int32(li)
			st.adj = s.g.InAdj(ln.cur)
			st.sum = s.g.InProbSum(ln.cur)
			n++
		}
		if n == 0 {
			return // no set in flight and none left to start
		}
		steps := s.steps[:n]
		s.stats.Waves++
		s.stats.LaneWaves += int64(n)
		s.stats.FrontierItems += int64(n)
		for i := range steps { // (b)
			st := &steps[i]
			ln := &s.lanes[st.lane]
			d := len(st.adj)
			if d == 0 {
				st.pick = stepStop
				continue
			}
			x := ln.r.Float64()
			if x >= st.sum {
				ln.probes++
				st.pick = stepStop
				continue
			}
			if !uniform {
				st.x, st.pick = x, stepScan
				continue
			}
			// Equal weights: the proportional draw is uniform. x < sum
			// makes x/sum ≤ 1 after rounding, so j ≤ d and the
			// subtraction is the scalar sampler's "% d".
			ln.probes++
			j := int(x / st.sum * float64(d))
			if j >= d {
				j -= d
			}
			st.pick = j
		}
		for i := range steps { // (c)
			if st := &steps[i]; st.pick >= 0 {
				st.next = st.adj[st.pick]
			}
		}
		for i := range steps { // (d)
			st := &steps[i]
			ln := &s.lanes[st.lane]
			switch st.pick {
			case stepStop:
				s.finish(ln)
				continue
			case stepScan:
				_, prob := s.g.InNeighbors(ln.cur)
				st.next = ln.scanPick(st.adj, prob, st.x)
			}
			if !ln.insert(st.next) {
				s.finish(ln)
				continue
			}
			ln.members = append(ln.members, st.next)
			ln.cur = st.next
		}
	}
}

// scanPick is the non-uniform LT pick: the in-neighbour whose cumulative
// weight first exceeds x, one probe per slot scanned.
func (ln *batchLane) scanPick(adj []uint32, prob []float32, x float64) uint32 {
	acc := 0.0
	for i, up := range adj {
		ln.probes++
		acc += float64(prob[i])
		if x < acc {
			return up
		}
	}
	return adj[len(adj)-1] // float round-off at the boundary
}
