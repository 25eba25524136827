package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"dimm/internal/offheap"
)

// Dynamic-graph support: a frozen CSR graph can be switched into mutable
// mode (EnableMutation), after which versioned batches of edge updates
// (ApplyUpdates) mutate it behind a delta overlay. The overlay discipline
// is chosen so that the coins an RR sampler draws stay positionally
// stable under mutation:
//
//   - a removed edge's CSR slot is kept in place with its probability set
//     to 0 (a tombstone) — the dense IC scan still draws its coin, which
//     can never succeed, so every later slot keeps its draw index;
//   - an added edge is appended to the END of the head's in-list, as a
//     per-node overlay entry, so its coin index is base slots + overlay
//     position and no existing coin shifts;
//   - a reweighted edge changes its probability in place.
//
// With coins keyed by (lane, head, slot index) — xrand.ScanSeed plus the
// draw position — this makes RR(G', laneSeed) a well-defined pure
// function for every lane on every graph version, which is what the
// incremental sample repair in internal/mutate relies on. Compact folds
// the overlay into a rebuilt CSR *preserving every slot position*
// (tombstones stay, overlay entries append), so compaction never changes
// any set's coins. Tombstones accumulate for the graph's lifetime: a
// heavily-removal workload eventually wants a fresh build (see README
// "Dynamic graphs" for the churn limits).

// EdgeOp is the kind of a single edge update.
type EdgeOp uint8

const (
	// OpAdd inserts a new directed edge with the given probability. The
	// edge must not already exist (parallel edges cannot be introduced by
	// mutation, though a base graph built with them stays valid).
	OpAdd EdgeOp = iota + 1
	// OpRemove deletes an existing directed edge (tombstones its slot).
	OpRemove
	// OpReweight changes an existing edge's probability in place.
	OpReweight
)

// String returns the op's wire name (also used by the HTTP update API).
func (op EdgeOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReweight:
		return "reweight"
	}
	return fmt.Sprintf("EdgeOp(%d)", uint8(op))
}

// EdgeUpdate is one edge mutation. Prob is ignored for OpRemove.
type EdgeUpdate struct {
	Op       EdgeOp
	From, To uint32
	Prob     float32
}

// EdgeDelta records where one applied update landed, in the coordinates
// the RR-sample repair planner needs: the head node whose in-edge scan
// stream holds the mutated coin, the coin's draw index in that stream
// (slot position in the head's concatenated base+overlay in-list), and
// the probability before/after. For an add POld is 0; for a removal PNew
// is 0.
type EdgeDelta struct {
	Head uint32
	Tail uint32
	Pos  int
	POld float32
	PNew float32
}

// OverlayEdge is one overlay adjacency entry: the far endpoint and the
// edge probability (0 for a tombstoned overlay edge).
type OverlayEdge struct {
	Node uint32
	Prob float32
}

// compactDenominator: Compact triggers when overlay edges exceed
// base slots / compactDenominator (and a small floor, so tiny graphs
// don't compact on every batch).
const (
	compactDenominator = 8
	compactFloor       = 256
)

// mutState holds all dynamic-graph state; nil on frozen graphs, so the
// frozen hot paths pay one pointer test.
type mutState struct {
	version uint64 // last applied batch sequence number
	hash    string // chained content hash at this version

	// Per-node overlay: idx[v] is an index into lists (-1 = none).
	inIdx    []int32
	outIdx   []int32
	inLists  [][]OverlayEdge
	outLists [][]OverlayEdge

	overlay    int64 // overlay edge slots (same count on both sides)
	tombstones int64 // zeroed slots (removals), kept forever
	compacts   int64

	// Memo of the most recent batch's deltas, so a second ApplyUpdates of
	// the same (already applied) batch — the shared-graph worker path —
	// can return the refined repair plan without re-mutating.
	lastSeq    uint64
	lastDeltas []EdgeDelta
}

// EnableMutation switches the graph into mutable mode. Idempotent. Must
// be called before the graph is shared with concurrent readers; after
// that, ApplyUpdates calls must be externally serialized against reads.
//
// Mmap-backed graphs are rejected with *MappedGraphError: removals and
// reweights write probabilities through the CSR slots in place, which on
// a MAP_SHARED read-only mapping would fault (or, worse, mutate a file
// other processes have mapped). Until a mutation overlay over segments
// lands, dynamic workloads must load with the mem backend, whose private
// region is writable.
//
// On a compact graph it first materializes the per-edge out- and
// in-probability arrays from InP, in one mapping off the Go heap that
// the graph owns (on the heap below offheap.MinBytes): tombstones and
// reweights act on single edges. InP
// stays valid until the first update clears UniformIn. Updates write
// both sides, so a mem graph's out-side is loaded here.
func (g *Graph) EnableMutation() error {
	if g.Mapped() {
		return &MappedGraphError{Path: g.seg.path, Op: "EnableMutation"}
	}
	if g.mut != nil {
		return nil
	}
	g.loadOut()
	if g.inProb == nil && g.m > 0 {
		var probs []float32
		if size := int(2 * 4 * g.m); size >= offheap.MinBytes {
			r, err := offheap.NewRegion(size)
			if err != nil {
				return fmt.Errorf("graph: mapping per-edge probabilities: %w", err)
			}
			b := r.Bytes()
			probs = unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), 2*g.m)
			g.edgeProbs = r
		} else {
			probs = make([]float32, 2*g.m)
		}
		out, in := probs[:g.m:g.m], probs[g.m:]
		g.fillEdgeProbs(out, in)
		g.outProb, g.inProb = out, in
	}
	m := &mutState{
		inIdx:  make([]int32, g.n),
		outIdx: make([]int32, g.n),
	}
	for i := range m.inIdx {
		m.inIdx[i] = -1
		m.outIdx[i] = -1
	}
	g.mut = m
	return nil
}

// MutationEnabled reports whether EnableMutation has been called.
func (g *Graph) MutationEnabled() bool { return g.mut != nil }

// Version returns the sequence number of the last applied update batch
// (0 for a frozen or never-mutated graph).
func (g *Graph) Version() uint64 {
	if g.mut == nil {
		return 0
	}
	return g.mut.version
}

// OverlayEdges returns how many overlay adjacency slots are live (not
// yet folded by Compact); Tombstones returns how many base/overlay slots
// have been zeroed by removals over the graph's lifetime.
func (g *Graph) OverlayEdges() int64 {
	if g.mut == nil {
		return 0
	}
	return g.mut.overlay
}

// Tombstones returns the number of zeroed (removed) edge slots.
func (g *Graph) Tombstones() int64 {
	if g.mut == nil {
		return 0
	}
	return g.mut.tombstones
}

// Compactions returns how many times the overlay was folded into the CSR.
func (g *Graph) Compactions() int64 {
	if g.mut == nil {
		return 0
	}
	return g.mut.compacts
}

// InOverlay returns node v's overlay in-edges (tails appended after the
// base in-list). The slice aliases internal storage; do not modify. Nil
// for frozen graphs and untouched nodes.
func (g *Graph) InOverlay(v uint32) []OverlayEdge {
	if g.mut == nil {
		return nil
	}
	li := g.mut.inIdx[v]
	if li < 0 {
		return nil
	}
	return g.mut.inLists[li]
}

// OutOverlay returns node u's overlay out-edges (heads appended after
// the base out-list). The slice aliases internal storage; do not modify.
func (g *Graph) OutOverlay(u uint32) []OverlayEdge {
	if g.mut == nil {
		return nil
	}
	li := g.mut.outIdx[u]
	if li < 0 {
		return nil
	}
	return g.mut.outLists[li]
}

// InSlots returns the number of coin slots in v's concatenated in-list:
// base CSR slots (live or tombstoned) plus overlay entries. This is the
// draw count of a dense IC scan of v, and the position the next added
// in-edge of v would take.
func (g *Graph) InSlots(v uint32) int {
	d := int(g.inStart[v+1] - g.inStart[v])
	return d + len(g.InOverlay(v))
}

// slotRef locates one mutable edge slot: base CSR index, or overlay
// list position (ovl >= 0 means overlay entry ovl of the node's list).
type slotRef struct {
	base int64 // index into inProb/outProb when ovl < 0
	ovl  int   // overlay position, -1 for base slots
}

// findInSlot returns the k-th (claimed-skipping first) live slot in v's
// in-list whose tail is u, plus its concatenated position and
// probability. claimed marks slots consumed by earlier ops of the same
// batch, keyed by position.
func (g *Graph) findInSlot(u, v uint32, claimed map[[2]uint64]bool) (slotRef, int, float32, bool) {
	lo, hi := g.inStart[v], g.inStart[v+1]
	for i := lo; i < hi; i++ {
		if g.inAdj[i] == u && g.inProb[i] > 0 {
			pos := int(i - lo)
			if claimed[[2]uint64{uint64(v), uint64(pos)}] {
				continue
			}
			return slotRef{base: i, ovl: -1}, pos, g.inProb[i], true
		}
	}
	base := int(hi - lo)
	for j, e := range g.InOverlay(v) {
		if e.Node == u && e.Prob > 0 {
			pos := base + j
			if claimed[[2]uint64{uint64(v), uint64(pos)}] {
				continue
			}
			return slotRef{ovl: j}, pos, e.Prob, true
		}
	}
	return slotRef{}, 0, 0, false
}

// findOutSlot is findInSlot for u's out-list (the forward-CSR mirror of
// the same physical edge: both CSRs preserve builder insertion order per
// bucket, so the k-th live <u,v> slot on each side is the same edge).
func (g *Graph) findOutSlot(u, v uint32, claimed map[[2]uint64]bool) (slotRef, int, bool) {
	g.loadOut()
	lo, hi := g.outStart[u], g.outStart[u+1]
	for i := lo; i < hi; i++ {
		if g.outAdj[i] == v && g.outProb[i] > 0 {
			pos := int(i - lo)
			if claimed[[2]uint64{uint64(u), uint64(pos)}] {
				continue
			}
			return slotRef{base: i, ovl: -1}, pos, true
		}
	}
	base := int(hi - lo)
	for j, e := range g.OutOverlay(u) {
		if e.Node == v && e.Prob > 0 {
			pos := base + j
			if claimed[[2]uint64{uint64(u), uint64(pos)}] {
				continue
			}
			return slotRef{ovl: j}, pos, true
		}
	}
	return slotRef{}, 0, false
}

type resolvedOp struct {
	op      EdgeUpdate
	inSlot  slotRef // remove/reweight: the in-CSR slot to mutate
	outSlot slotRef // remove/reweight: the out-CSR mirror slot
	pos     int     // coin position in the head's in-list
	pOld    float32
}

// ApplyUpdates atomically applies one sequenced batch of edge updates.
//
// Sequencing makes application idempotent on a shared graph: batches
// carry seq = Version()+1; a batch whose seq is at or below the current
// version is a no-op (it was already applied — the path an in-process
// worker takes after the master applied the shared graph's batch), and a
// seq further ahead is an error (a gap would silently skip updates).
//
// Returns the per-op deltas for the repair planner and fresh=true when
// this call actually mutated the graph. A no-op call returns the
// memoized deltas when the batch is the most recently applied one, and
// (nil, false, nil) for older batches — callers replaying history must
// then fall back to a conservative repair plan (see internal/mutate).
//
// The whole batch is validated before any state changes: on error the
// graph is untouched.
func (g *Graph) ApplyUpdates(seq uint64, ops []EdgeUpdate) (deltas []EdgeDelta, fresh bool, err error) {
	if g.mut == nil {
		return nil, false, fmt.Errorf("graph: ApplyUpdates on a frozen graph (EnableMutation first)")
	}
	m := g.mut
	if seq <= m.version {
		if seq != 0 && seq == m.lastSeq {
			return m.lastDeltas, false, nil
		}
		return nil, false, nil
	}
	if seq != m.version+1 {
		return nil, false, fmt.Errorf("graph: update batch seq %d after version %d (gap)", seq, m.version)
	}
	if len(ops) == 0 {
		return nil, false, fmt.Errorf("graph: empty update batch")
	}

	// Phase 1: resolve and validate every op against the current state
	// plus the earlier ops of this batch, without mutating anything.
	resolved := make([]resolvedOp, 0, len(ops))
	inClaimed := make(map[[2]uint64]bool)  // (head, pos) slots consumed by earlier ops
	outClaimed := make(map[[2]uint64]bool) // (tail, pos) out-mirror slots
	pendingPair := make(map[[2]uint32]int) // in-batch adds per (from, to)
	pendingAdds := make(map[uint32]int)    // in-batch appended in-slots per head
	for i, op := range ops {
		if int64(op.From) >= g.n || int64(op.To) >= g.n {
			return nil, false, fmt.Errorf("graph: update %d: edge <%d,%d> out of range for %d nodes", i, op.From, op.To, g.n)
		}
		if op.From == op.To {
			return nil, false, fmt.Errorf("graph: update %d: self-loop on node %d rejected", i, op.From)
		}
		key := [2]uint32{op.From, op.To}
		switch op.Op {
		case OpAdd:
			if !(op.Prob > 0) || op.Prob > 1 {
				return nil, false, fmt.Errorf("graph: update %d: add <%d,%d> probability %v outside (0,1]", i, op.From, op.To, op.Prob)
			}
			if _, _, _, ok := g.findInSlot(op.From, op.To, inClaimed); ok || pendingPair[key] > 0 {
				return nil, false, fmt.Errorf("graph: update %d: edge <%d,%d> already exists", i, op.From, op.To)
			}
			pos := g.InSlots(op.To) + pendingAdds[op.To]
			resolved = append(resolved, resolvedOp{op: op, pos: pos})
			pendingAdds[op.To]++
			pendingPair[key]++
		case OpRemove, OpReweight:
			if op.Op == OpReweight && (!(op.Prob > 0) || op.Prob > 1) {
				return nil, false, fmt.Errorf("graph: update %d: reweight <%d,%d> probability %v outside (0,1]", i, op.From, op.To, op.Prob)
			}
			if pendingPair[key] > 0 {
				return nil, false, fmt.Errorf("graph: update %d: %s of edge <%d,%d> added earlier in the same batch", i, op.Op, op.From, op.To)
			}
			in, pos, pOld, ok := g.findInSlot(op.From, op.To, inClaimed)
			if !ok {
				return nil, false, fmt.Errorf("graph: update %d: %s of nonexistent edge <%d,%d>", i, op.Op, op.From, op.To)
			}
			out, outPos, ok := g.findOutSlot(op.From, op.To, outClaimed)
			if !ok {
				return nil, false, fmt.Errorf("graph: update %d: edge <%d,%d> missing its out-CSR mirror", i, op.From, op.To)
			}
			resolved = append(resolved, resolvedOp{op: op, inSlot: in, outSlot: out, pos: pos, pOld: pOld})
			// Claim the slot either way: a reweight pins this physical
			// edge, so a second op on the same pair targets the next one.
			inClaimed[[2]uint64{uint64(op.To), uint64(pos)}] = true
			outClaimed[[2]uint64{uint64(op.From), uint64(outPos)}] = true
		default:
			return nil, false, fmt.Errorf("graph: update %d: unknown op %d", i, op.Op)
		}
	}

	// Phase 2: apply. No failure paths from here on. The previous
	// version's hash must be captured before the CSR is touched — at
	// version 0 it is the (memoized) base hash streamed from the arrays
	// about to be mutated.
	prevHash := g.ContentHash()
	deltas = make([]EdgeDelta, 0, len(resolved))
	for _, r := range resolved {
		op := r.op
		switch op.Op {
		case OpAdd:
			g.appendOverlay(op.From, op.To, op.Prob)
			g.inProbSum[op.To] += float64(op.Prob)
			g.m++
			m.overlay++
			deltas = append(deltas, EdgeDelta{Head: op.To, Tail: op.From, Pos: r.pos, POld: 0, PNew: op.Prob})
		case OpRemove:
			g.setSlotProb(op.To, r.inSlot, 0, false)
			g.setSlotProb(op.From, r.outSlot, 0, true)
			g.inProbSum[op.To] -= float64(r.pOld)
			if g.inProbSum[op.To] < 0 {
				g.inProbSum[op.To] = 0
			}
			g.m--
			m.tombstones++
			deltas = append(deltas, EdgeDelta{Head: op.To, Tail: op.From, Pos: r.pos, POld: r.pOld, PNew: 0})
		case OpReweight:
			g.setSlotProb(op.To, r.inSlot, op.Prob, false)
			g.setSlotProb(op.From, r.outSlot, op.Prob, true)
			g.inProbSum[op.To] += float64(op.Prob) - float64(r.pOld)
			deltas = append(deltas, EdgeDelta{Head: op.To, Tail: op.From, Pos: r.pos, POld: r.pOld, PNew: op.Prob})
		}
	}
	// Any mutation can break per-node-uniform in-probabilities; clearing
	// the flag is conservative and byte-safe: for equal weights the LT
	// uniform fast path and the cumulative scan pick the same in-neighbor
	// (floor(x·d/sum) vs first i with x < (i+1)·p), so only probe
	// accounting changes, never members. Subset sampling is rejected on
	// mutable graphs outright (its draw counts are not positional).
	g.uniformIn = false

	// Chain the content hash: new = SHA-256(prev hash ‖ seq ‖ ops).
	h := sha256.New()
	h.Write([]byte("dimm-graph-delta-v1"))
	h.Write([]byte(prevHash))
	var buf [13]byte
	binary.LittleEndian.PutUint64(buf[:8], seq)
	h.Write(buf[:8])
	for _, op := range ops {
		buf[0] = byte(op.Op)
		binary.LittleEndian.PutUint32(buf[1:5], op.From)
		binary.LittleEndian.PutUint32(buf[5:9], op.To)
		binary.LittleEndian.PutUint32(buf[9:13], math.Float32bits(op.Prob))
		h.Write(buf[:13])
	}
	m.hash = fmt.Sprintf("sha256:%x", h.Sum(nil))
	m.version = seq
	m.lastSeq = seq
	m.lastDeltas = deltas

	if m.overlay > compactFloor && m.overlay > int64(len(g.inAdj))/compactDenominator {
		g.Compact()
	}
	return deltas, true, nil
}

// appendOverlay appends edge <u,v> with probability p to both overlays.
func (g *Graph) appendOverlay(u, v uint32, p float32) {
	m := g.mut
	if m.inIdx[v] < 0 {
		m.inIdx[v] = int32(len(m.inLists))
		m.inLists = append(m.inLists, nil)
	}
	li := m.inIdx[v]
	m.inLists[li] = append(m.inLists[li], OverlayEdge{Node: u, Prob: p})
	if m.outIdx[u] < 0 {
		m.outIdx[u] = int32(len(m.outLists))
		m.outLists = append(m.outLists, nil)
	}
	lo := m.outIdx[u]
	m.outLists[lo] = append(m.outLists[lo], OverlayEdge{Node: v, Prob: p})
}

// setSlotProb writes probability p into one slot of node x's in-list
// (out=false) or out-list (out=true).
func (g *Graph) setSlotProb(x uint32, s slotRef, p float32, out bool) {
	if s.ovl >= 0 {
		if out {
			g.mut.outLists[g.mut.outIdx[x]][s.ovl].Prob = p
		} else {
			g.mut.inLists[g.mut.inIdx[x]][s.ovl].Prob = p
		}
		return
	}
	if out {
		g.outProb[s.base] = p
	} else {
		g.inProb[s.base] = p
	}
}

// Compact folds the overlay into a rebuilt CSR, preserving every slot
// position: tombstoned base slots stay in place (probability 0) and
// overlay entries are appended at the end of each node's list, exactly
// where their coin indices already are. The graph's content (and hence
// ContentHash) is unchanged — compaction is a pure storage operation.
// The rebuilt arrays live on the heap: on a graph opened with BackendMem
// every array moves off the private region, which is released here, as
// is the mapping EnableMutation materialized. inP is dropped: updates
// cleared UniformIn, so nothing reads it.
func (g *Graph) Compact() {
	m := g.mut
	if m == nil || m.overlay == 0 {
		return
	}
	g.loadOut()
	g.inStart, g.inAdj, g.inProb = compactCSR(g.n, g.inStart, g.inAdj, g.inProb, m.inIdx, m.inLists)
	g.outStart, g.outAdj, g.outProb = compactCSR(g.n, g.outStart, g.outAdj, g.outProb, m.outIdx, m.outLists)
	g.inP = nil
	g.edgeProbs.Free()
	g.edgeProbs = nil
	if g.seg != nil && g.seg.region != nil {
		g.inProbSum = slices.Clone(g.inProbSum)
		g.seg.release()
	}
	for i := range m.inIdx {
		m.inIdx[i] = -1
		m.outIdx[i] = -1
	}
	m.inLists = m.inLists[:0]
	m.outLists = m.outLists[:0]
	m.overlay = 0
	m.compacts++
}

func compactCSR(n int64, start []int64, adj []uint32, prob []float32, idx []int32, lists [][]OverlayEdge) ([]int64, []uint32, []float32) {
	extra := 0
	for _, l := range lists {
		extra += len(l)
	}
	newStart := make([]int64, n+1)
	newAdj := make([]uint32, 0, len(adj)+extra)
	newProb := make([]float32, 0, len(prob)+extra)
	for v := int64(0); v < n; v++ {
		lo, hi := start[v], start[v+1]
		newAdj = append(newAdj, adj[lo:hi]...)
		newProb = append(newProb, prob[lo:hi]...)
		if li := idx[v]; li >= 0 {
			for _, e := range lists[li] {
				newAdj = append(newAdj, e.Node)
				newProb = append(newProb, e.Prob)
			}
		}
		newStart[v+1] = int64(len(newAdj))
	}
	return newStart, newAdj, newProb
}
