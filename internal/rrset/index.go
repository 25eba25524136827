package rrset

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"dimm/internal/bitset"
	"dimm/internal/offheap"
)

// Index is an inverted node→RR-set index over a Collection prefix: for
// each node v, the ids of the RR sets that contain v. In the paper's
// notation the list for node v is I_i(v) on machine s_i.
//
// The index is segmented: each growth increment of the collection becomes
// one CSR segment per id window it touches, over flat arrays (same GC
// rationale as Collection), so extending the index after a DIIMM doubling
// round costs O(new RR size) instead of an O(total size) rebuild.
// Segments cover disjoint ascending RR-id ranges, so per-node id lists
// stay globally sorted when segments are visited in order.
//
// A window is an aligned run of 2¹⁶ RR ids. No segment spans two, so a
// posting stores only its id's low 16 bits, and the segment's window
// supplies the rest: 2 B per posting instead of 4.
type Index struct {
	n     int // item-space size (graph nodes)
	count int // number of RR sets indexed
	segs  []indexSeg

	// increments counts the builds and AppendFrom calls the segments
	// came from since the last full build; maxIndexIncrements caps it.
	increments int

	// Patch state (see ApplyPatches): repaired RR sets change membership
	// in place, which the CSR segments cannot express by resizing. A
	// posting removed by a patch is tombstoned in its segment's dead
	// bitset; a posting added by a patch lands in the per-node overlay,
	// read as one extra list after the segments'. dead and overlayLen
	// track the accumulated debt that triggers a compacting rebuild;
	// degAdj corrects Degree for both.
	overlay    map[uint32][]uint32
	overlayLen int
	dead       int
	degAdj     []int32

	// fullBuilds counts from-scratch constructions (instrumentation for
	// the incremental-maintenance guarantee; see Worker.ensureIndex).
	fullBuilds int

	// order caches DegreeOrder. Every change of the index drops it (under
	// the caller's exclusive access); the first reader after the change
	// builds it under orderMu, so concurrent readers build it once.
	order   atomic.Pointer[DegreeOrder]
	orderMu sync.Mutex
}

// windowBits is the log2 of a window's id count. A window is 2¹⁰ words
// of a covered bitset, so a posting's word within its window is its
// offset's top ten bits.
const windowBits = 16

// indexSeg is one segment covering RR sets [from, to) of one window: a
// CSR over only the nodes it holds postings for. Node v is held iff bit v
// of has is set; its rank r, the number of held nodes below it, is
// rank[v/64] plus a popcount of the word of has below v, and its ids are
// base + ids[offs[r]:offs[r+1]], base being from with its low windowBits
// cleared.
type indexSeg struct {
	from   int             // first RR-set id this segment covers
	has    []uint64        // bitmap of held nodes, one bit per node
	rank   []uint32        // rank[w]: held nodes in words [0, w) of has
	offs   []uint32        // offs[r]..offs[r+1] delimits held node r's ids
	ids    []uint16        // id offsets within the window
	region *offheap.Region // backs ids when they are off the heap

	// dead has bit p set when posting ids[p] is tombstoned: its RR set
	// no longer contains the node. It is made by the first such patch,
	// so a segment no patch touched keeps nil and its readers' loops
	// test nothing.
	dead []uint64
}

// base returns the first id of the segment's window.
func (s *indexSeg) base() uint32 { return uint32(s.from) &^ (1<<windowBits - 1) }

// window returns the covered bitset's words of the segment's window,
// which a posting's offset o indexes as o>>6.
func (s *indexSeg) window(words []uint64) []uint64 { return words[s.base()>>6:] }

// isDead reports whether posting p is tombstoned.
func (s *indexSeg) isDead(p uint32) bool {
	return s.dead != nil && s.dead[p>>6]>>(p&63)&1 != 0
}

// maxIndexIncrements bounds how many increments the segment chain may
// come from. DIIMM's doubling schedule produces O(log θ) of them, far
// below this; a pathological caller issuing thousands of tiny increments
// triggers a compacting full rebuild instead of degrading every posting
// read. Windows are not counted: a full build of 2²² sets already has 64.
const maxIndexIncrements = 64

// BuildIndex constructs the inverted index of the first c.Count() RR sets
// for a graph of n nodes. RR-set ids must fit in uint32, and members
// must be below n.
func BuildIndex(c *Collection, n int) (*Index, error) {
	idx := &Index{n: n, fullBuilds: 1}
	if err := idx.appendSets(c, 0); err != nil {
		idx.Release()
		return nil, err
	}
	return idx, nil
}

// AppendFrom extends the index with the RR sets [from, c.Count()) of c,
// where from must equal the number of sets already indexed. The work is
// O(n/64 + size of the new sets) per window the sets touch when a pooled
// cursor array is at hand, plus O(n) to zero a new one when none is. It
// never touches previously indexed segments (unless the increment cap
// forces a compaction).
func (idx *Index) AppendFrom(c *Collection, from int) error {
	if from != idx.count {
		return fmt.Errorf("rrset: AppendFrom at %d but %d RR sets indexed", from, idx.count)
	}
	if from > c.Count() {
		return fmt.Errorf("rrset: index covers %d RR sets but the collection holds %d", from, c.Count())
	}
	if from == c.Count() {
		return nil
	}
	if idx.increments >= maxIndexIncrements {
		idx.reset()
		from = 0
	}
	return idx.appendSets(c, from)
}

// appendSets indexes the sets [from, c.Count()) as one increment: one
// segment per window they touch.
func (idx *Index) appendSets(c *Collection, from int) error {
	if c.Count() > 1<<32 {
		return fmt.Errorf("rrset: %d RR sets exceed the uint32 id space", c.Count())
	}
	idx.order.Store(nil)
	for from < c.Count() {
		to := min(c.Count(), (from>>windowBits+1)<<windowBits)
		if err := idx.appendSeg(c, from, to); err != nil {
			return err
		}
		from = to
	}
	idx.increments++
	return nil
}

// cursorPool holds the n-entry write cursors of segment builds. A pooled
// array is all zeros: a build counts into it, fills through it, and then
// clears only the entries of the nodes it held.
var cursorPool sync.Pool

// appendSeg builds one segment over sets [from, to), which lie in one
// window. It counts and fills through a dense cursor array, as a dense
// CSR build does: a rank lookup per posting would cost a popcount in the
// fill loop.
func (idx *Index) appendSeg(c *Collection, from, to int) error {
	lo, hi := c.offs[from], c.offs[to]
	if hi-lo >= 1<<32 {
		return fmt.Errorf("rrset: %d postings exceed a segment's uint32 offsets", hi-lo)
	}
	cur, _ := cursorPool.Get().([]uint32)
	if cap(cur) < idx.n {
		cur = make([]uint32, idx.n)
	}
	cur = cur[:idx.n]
	words := (idx.n + 63) / 64
	seg := indexSeg{from: from, has: make([]uint64, words), rank: make([]uint32, words)}
	for _, v := range c.nodes[lo:hi] {
		if int(v) >= len(cur) {
			// cur is not all zeros now: it does not go back to the pool.
			return fmt.Errorf("rrset: RR-set member %d outside a %d-node graph", v, idx.n)
		}
		cur[v]++
		seg.has[v>>6] |= 1 << (v & 63)
	}
	var held uint32
	for w, word := range seg.has {
		seg.rank[w] = held
		held += uint32(bits.OnesCount64(word))
	}
	// Lay out the held nodes' lists in rank order; each count becomes its
	// node's write cursor.
	seg.offs = make([]uint32, held+1)
	var r, at uint32
	for w, word := range seg.has {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			seg.offs[r] = at
			at, cur[v] = at+cur[v], at
			r++
		}
	}
	seg.offs[held] = at
	seg.ids, seg.region = newUint16s(int(hi - lo))
	for i := from; i < to; i++ {
		o := uint16(i)
		for _, v := range c.Set(i) {
			seg.ids[cur[v]] = o
			cur[v]++
		}
	}
	for w, word := range seg.has {
		for ; word != 0; word &= word - 1 {
			cur[w<<6|bits.TrailingZeros64(word)] = 0
		}
	}
	cursorPool.Put(cur)
	idx.segs = append(idx.segs, seg)
	idx.count = to
	return nil
}

// newUint16s returns a []uint16 of length size: from offheap.MinBytes up
// in a fresh mapping, whose handle comes back beside it, and on the heap
// otherwise.
func newUint16s(size int) ([]uint16, *offheap.Region) {
	if 2*size >= offheap.MinBytes {
		if r, err := offheap.NewRegion(2 * size); err == nil {
			return offheap.Uint16s(r.Bytes())[:size], r
		}
	}
	return make([]uint16, size), nil
}

// span returns where v's postings sit in the segment's ids, an empty
// range when v holds none. It is branch-free: an unheld v's rank indexes
// an offset pair of equal ends.
func (s *indexSeg) span(v uint32) (lo, hi uint32) {
	w, sh := s.has[v>>6], v&63
	r := s.rank[v>>6] + uint32(bits.OnesCount64(w&(1<<sh-1)))
	return s.offs[r], s.offs[r+uint32(w>>sh&1)]
}

// The readers below are the only code that walks posting lists. A
// node's lists are one per segment, ascending and disjoint in id range,
// then a patched index's overlay list, unordered; a posting removed by a
// patch stays in its segment list, marked in the segment's dead bitset.

// AppendCovers appends the ids of the RR sets containing v to dst and
// returns it: ascending, except that a patched index's patch-added ids
// trail in no order. Tombstoned postings are skipped.
func (idx *Index) AppendCovers(dst []uint32, v uint32) []uint32 {
	for i := range idx.segs {
		s := &idx.segs[i]
		base := s.base()
		lo, hi := s.span(v)
		for p := lo; p < hi; p++ {
			if !s.isDead(p) {
				dst = append(dst, base+uint32(s.ids[p]))
			}
		}
	}
	return append(dst, idx.overlay[v]...)
}

// The recount kernels read a posting list against the covered bitset's
// words with no data-dependent branch per posting: the covered bit is
// shifted down rather than tested, and in a segment with tombstones the
// posting's dead bit, shifted down likewise, masks it out of the count
// and out of the store. A segment without tombstones runs a loop that
// reads none. A segment holding nothing for v is skipped before its
// window is sliced: most (node, segment) pairs are empty, and that skip
// is what keeps a scan as fast as with one 32-bit id per posting.

// CountUncovered returns how many RR sets containing v are not yet
// marked in covered: the count behind the recount greedy's Marginal.
// covered must span the index's Count() sets.
func (idx *Index) CountUncovered(covered *bitset.Bits, v uint32) int64 {
	words := covered.Words()
	var m uint64
	for i := range idx.segs {
		s := &idx.segs[i]
		lo, hi := s.span(v)
		if lo == hi {
			continue
		}
		ws := s.window(words)
		if s.dead == nil {
			for _, o := range s.ids[lo:hi] {
				j := uint32(o)
				m += ^ws[j>>6] >> (j & 63) & 1
			}
			continue
		}
		for p := lo; p < hi; p++ {
			j := uint32(s.ids[p])
			live := ^s.dead[p>>6] >> (p & 63) & 1
			m += ^ws[j>>6] >> (j & 63) & live
		}
	}
	for _, j := range idx.overlay[v] {
		m += ^words[j>>6] >> (j & 63) & 1
	}
	return int64(m)
}

// Cover marks every RR set containing v as covered and returns how many
// of them were uncovered before: the cover step of the recount greedy,
// and the serving layer's prefix coverage of a seed list.
func (idx *Index) Cover(covered *bitset.Bits, v uint32) int64 {
	words := covered.Words()
	var m uint64
	for i := range idx.segs {
		s := &idx.segs[i]
		lo, hi := s.span(v)
		if lo == hi {
			continue
		}
		ws := s.window(words)
		if s.dead == nil {
			for _, o := range s.ids[lo:hi] {
				j := uint32(o)
				w := ws[j>>6]
				m += ^w >> (j & 63) & 1
				ws[j>>6] = w | 1<<(j&63)
			}
			continue
		}
		for p := lo; p < hi; p++ {
			j := uint32(s.ids[p])
			live := ^s.dead[p>>6] >> (p & 63) & 1
			w := ws[j>>6]
			m += ^w >> (j & 63) & live
			ws[j>>6] = w | live<<(j&63)
		}
	}
	for _, j := range idx.overlay[v] {
		w := words[j>>6]
		m += ^w >> (j & 63) & 1
		words[j>>6] = w | 1<<(j&63)
	}
	return int64(m)
}

// CoverRange marks covered the RR sets containing v whose ids fall in
// covered's words [loWord, hiWord) and were uncovered, and appends their
// ids to dst: the select kernel's map stage. Calls over disjoint word
// ranges write disjoint words of covered, so they may run concurrently;
// together they mark and return exactly what one call over every word
// does.
func (idx *Index) CoverRange(dst []uint32, covered *bitset.Bits, v uint32, loWord, hiWord int) []uint32 {
	words := covered.Words()
	for i := range idx.segs {
		s := &idx.segs[i]
		// The word range, clipped to the segment's window of 2¹⁰ words,
		// is a range of offsets; a list's offsets ascend, so its part in
		// range is a sub-slice found by binary search.
		first := int(s.base() >> 6)
		loOff := min(max(loWord-first, 0), 1<<(windowBits-6)) << 6
		hiOff := min(max(hiWord-first, 0), 1<<(windowBits-6)) << 6
		if loOff >= hiOff {
			continue
		}
		lo, hi := s.span(v)
		ids := s.ids[lo:hi]
		from := sort.Search(len(ids), func(k int) bool { return int(ids[k]) >= loOff })
		to := from + sort.Search(len(ids)-from, func(k int) bool { return int(ids[from+k]) >= hiOff })
		ws, base := s.window(words), s.base()
		for p := from; p < to; p++ {
			o := ids[p]
			if s.isDead(lo+uint32(p)) || ws[o>>6]>>(o&63)&1 != 0 {
				continue
			}
			ws[o>>6] |= 1 << (o & 63)
			dst = append(dst, base+uint32(o))
		}
	}
	for _, j := range idx.overlay[v] {
		if w := int(j >> 6); w < loWord || w >= hiWord || words[w]>>(j&63)&1 != 0 {
			continue
		}
		words[j>>6] |= 1 << (j & 63)
		dst = append(dst, j)
	}
	return dst
}

// Degree returns how many indexed RR sets contain v (the initial coverage
// Δ_i(v) of Algorithm 1 line 3). Exact on patched indexes: the per-node
// adjustment counts tombstones out and overlay postings in.
func (idx *Index) Degree(v uint32) int {
	var d int
	for i := range idx.segs {
		lo, hi := idx.segs[i].span(v)
		d += int(hi - lo)
	}
	if idx.degAdj != nil {
		d += int(idx.degAdj[v])
	}
	return d
}

// FillDegrees sets deg[v] = Degree(v) for every v < len(deg), in one walk
// over each segment's held nodes rather than a rank lookup per node and
// segment. Nodes past the index's item space get 0.
func (idx *Index) FillDegrees(deg []int64) {
	clear(deg)
	for i := range idx.segs {
		s := &idx.segs[i]
		r := 0
		for w, word := range s.has {
			for ; word != 0; word &= word - 1 {
				if v := w<<6 | bits.TrailingZeros64(word); v < len(deg) {
					deg[v] += int64(s.offs[r+1] - s.offs[r])
				}
				r++
			}
		}
	}
	for v, a := range idx.degAdj[:min(len(deg), len(idx.degAdj))] {
		deg[v] += int64(a)
	}
}

// DegreeOrder lists items by degree, descending, ties by ascending id:
// the initial vector D of Algorithm 1 (lines 3–5) laid out flat. The
// items of degree d are Nodes[Ends[d+1]:Ends[d]], so Ends[d] counts the
// items of degree ≥ d: Ends[0] = len(Nodes), and the last entry, one
// past the largest degree, is 0.
type DegreeOrder struct {
	Nodes []uint32
	Ends  []int
}

// MaxDegree returns the largest degree in the order (0 when empty).
func (o *DegreeOrder) MaxDegree() int { return len(o.Ends) - 2 }

// OrderByDegree counting-sorts the items 0..len(deg)-1 by deg in
// O(len(deg) + max degree). A negative degree is an error naming its
// item.
func OrderByDegree(deg []int64) (*DegreeOrder, error) {
	// Count each degree, growing the counts to the largest seen, turn
	// them into the first slot of each degree's run (the items of higher
	// degree come first), and place the items by ascending id; every
	// slot then ends where its run does.
	ends := make([]int, 1)
	for v, d := range deg {
		if d < 0 {
			return nil, fmt.Errorf("rrset: negative degree %d for item %d", d, v)
		}
		if d >= int64(len(ends)) {
			ends = append(ends, make([]int, d+1-int64(len(ends)))...)
		}
		ends[d]++
	}
	above := 0
	for d := len(ends) - 1; d >= 0; d-- {
		ends[d], above = above, above+ends[d]
	}
	ends = append(ends, 0)
	nodes := make([]uint32, len(deg))
	for v, d := range deg {
		nodes[ends[d]] = uint32(v)
		ends[d]++
	}
	return &DegreeOrder{Nodes: nodes, Ends: ends}, nil
}

// DegreeOrder returns the index's items in the order of OrderByDegree
// over Degree. It is built once per change of the index, by its first
// reader, and is read-only: concurrent readers share it, and it is valid
// until the index next changes.
func (idx *Index) DegreeOrder() *DegreeOrder {
	if o := idx.order.Load(); o != nil {
		return o
	}
	idx.orderMu.Lock()
	defer idx.orderMu.Unlock()
	if o := idx.order.Load(); o != nil {
		return o
	}
	deg := make([]int64, idx.n)
	idx.FillDegrees(deg)
	o, err := OrderByDegree(deg)
	if err != nil {
		panic(err) // a posting count below zero: the index is corrupt
	}
	idx.order.Store(o)
	return o
}

// NumNodes returns the size of the index's item space.
func (idx *Index) NumNodes() int { return idx.n }

// Bytes returns the index's resident size: every segment's postings,
// tables and tombstone bitset, a patched index's overlay postings and
// degree adjustments, and the degree order while it is held.
func (idx *Index) Bytes() int64 {
	b := 4 * (idx.overlayLen + len(idx.degAdj))
	if o := idx.order.Load(); o != nil {
		b += 4*len(o.Nodes) + 8*len(o.Ends)
	}
	for _, s := range idx.segs {
		b += 8*(len(s.has)+len(s.dead)) + 4*(len(s.rank)+len(s.offs)) + 2*len(s.ids)
	}
	return int64(b)
}

// Count returns the number of RR sets the index covers.
func (idx *Index) Count() int { return idx.count }

// FullBuilds returns how many times the index was constructed from
// scratch (1 for BuildIndex; incremental AppendFrom calls do not add to
// it unless the increment cap forces a compaction).
func (idx *Index) FullBuilds() int { return idx.fullBuilds }
