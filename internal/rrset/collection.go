// Package rrset implements reverse-reachable (RR) set machinery: samplers
// for the IC and LT models (including the SUBSIM subset-sampling
// optimization), an arena-backed collection type, and the inverted
// node→RR-set index used by the maximum-coverage seed selection.
//
// A single run of DIIMM materializes millions of RR sets. Storing each as
// its own []uint32 would create millions of GC-tracked objects — the main
// scalability hazard of a Go implementation (see DESIGN.md). A Collection
// therefore packs all member nodes into one flat arena with an offset
// table, so the garbage collector sees O(1) objects regardless of θ.
//
// The Index grows by one segment per increment of the collection (a
// DIIMM doubling round, a serving daemon's growth step). A segment is a
// CSR over only the nodes it holds postings for: a bitmap of held nodes,
// a rank directory of one uint32 per 64 nodes, and a uint32 offset per
// held node. It costs 3n/16 B plus 4 B per held node plus its postings,
// so a small increment stays small on a large graph, and a lookup stays
// O(1): one bit test and one popcount.
//
// The two θ-sized arrays, a Collection's member arena and an Index
// segment's postings, go further: from offheap.MinBytes up they live in
// anonymous mappings (internal/offheap), which the GC neither scans nor
// paces against, so their resident cost is their size rather than that
// size plus heap headroom. That memory is released explicitly, under
// three ownership rules:
//
//   - A Collection that has never handed out a Snapshot owns its arena:
//     growth resizes it in place, ApplyPatches frees the old arena once
//     the new one is built, and Release frees it at once.
//   - A Snapshot pins the arena. The collection never moves or frees a
//     pinned arena again, and allocates any later arena on the Go heap;
//     the snapshots hold the arena's handle, whose finalizer unmaps it
//     after the last view is gone.
//   - An Index owns its segments' postings and frees them when it
//     compacts and on Release.
//
// After a Release the collection or index is empty, never dangling. A
// finalizer frees an owned arena its owner dropped without Release, but
// only when the GC next runs — which off-heap garbage never prompts —
// so every owner that replaces a large sample releases the old one.
package rrset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"dimm/internal/bitset"
	"dimm/internal/offheap"
)

// Collection is an append-only set of RR sets in arena storage.
// Not safe for concurrent mutation; each machine owns one Collection.
type Collection struct {
	nodes []uint32 // concatenated member nodes of all RR sets
	offs  []int64  // offs[i]..offs[i+1] delimits RR set i; len = Count()+1

	// region backs nodes once the arena is off the heap (nil otherwise).
	// pinned is set for good by the first Snapshot: from then on region
	// belongs to the snapshots' handles and the collection only drops it.
	region *offheap.Region
	pinned atomic.Bool

	// edgesExamined accumulates, over all generated RR sets, the number of
	// incoming edges the sampler inspected — the w(R) quantity whose
	// expectation EPT drives the paper's running-time analysis (§III-D).
	edgesExamined int64

	// regrows counts arena reallocations (instrumentation for the
	// reserve-before-sampling guarantee; see Reserve).
	regrows int
}

// NewCollection returns an empty collection with a capacity hint for the
// expected total member count.
func NewCollection(sizeHint int) *Collection {
	c := &Collection{offs: make([]int64, 1, 1024)}
	c.nodes, c.region = newUint32s(sizeHint, true)
	return c
}

// newUint32s returns an empty []uint32 with room for capacity elements.
// With offHeap set, an array of at least offheap.MinBytes lives in a
// fresh mapping, whose handle comes back beside it; anything smaller,
// and any mapping the system refuses, is an ordinary heap slice.
func newUint32s(capacity int, offHeap bool) ([]uint32, *offheap.Region) {
	if offHeap && 4*capacity >= offheap.MinBytes {
		if r, err := offheap.NewRegion(4 * capacity); err == nil {
			return offheap.Uint32s(r.Bytes())[:0:capacity], r
		}
	}
	return make([]uint32, 0, capacity), nil
}

// Count returns the number of RR sets stored.
func (c *Collection) Count() int { return len(c.offs) - 1 }

// TotalSize returns the summed cardinality of all RR sets (the paper's
// "total size" column in Table IV).
func (c *Collection) TotalSize() int64 { return int64(len(c.nodes)) }

// EdgesExamined returns the cumulative edge probes spent generating the
// collection (Σ w(R)).
func (c *Collection) EdgesExamined() int64 { return c.edgesExamined }

// Set returns the members of RR set i. The slice aliases the arena and
// must not be modified.
func (c *Collection) Set(i int) []uint32 {
	return c.nodes[c.offs[i]:c.offs[i+1]]
}

// Append adds one RR set with the given members, recording that the
// sampler examined edgesProbes incoming edges to build it. An arena that
// is out of room at least doubles (see Reserve).
func (c *Collection) Append(members []uint32, edgeProbes int64) {
	c.ensure(1, len(members), 1)
	c.nodes = append(c.nodes, members...)
	c.offs = append(c.offs, int64(len(c.nodes)))
	c.edgesExamined += edgeProbes
}

// Reserve makes room for sets more RR sets holding members more nodes in
// total, so that appending them reallocates nothing. A caller that knows
// what is coming (a generation request sized from the observed mean set
// size, a merge of shard buffers, a wire payload) reserves once up front
// and gets an arena of that size — or 5/4 of the old one if that is
// larger, so a stream of small reservations stays amortized without ever
// overshooting more than append did. Whatever a reservation
// under-estimates, and every un-Reserved Append, doubles instead: with
// no forecast, append's 1.25× means a dozen full copies of a
// multi-million-entry arena per doubling of θ. The two policies are
// deliberately different — a forecast buys a tight arena (unused
// capacity is zeroed, hence resident, when the allocator recycles
// memory), no forecast buys few copies. Reserving never changes the
// collection's contents.
func (c *Collection) Reserve(sets int, members int64) {
	c.ensure(sets, int(members), 4)
}

// ensure makes room for sets and members more entries; an arena that is
// short is reallocated to the needed size or to 1+1/div of its capacity,
// whichever is larger.
func (c *Collection) ensure(sets, members, div int) {
	if need := len(c.nodes) + members; need > cap(c.nodes) {
		c.growNodes(max(need, cap(c.nodes)+cap(c.nodes)/div))
		c.regrows++
	}
	if need := len(c.offs) + sets; need > cap(c.offs) {
		c.offs = regrow(c.offs, max(need, cap(c.offs)+cap(c.offs)/div))
		c.regrows++
	}
}

// growNodes gives the member arena room for capacity members. An owned
// off-heap arena is resized in place (on Linux without copying a byte);
// otherwise the members move to a new arena, off the heap while the
// collection is unpinned and the size warrants it.
func (c *Collection) growNodes(capacity int) {
	if c.region != nil && !c.pinned.Load() {
		if err := c.region.Resize(4 * capacity); err == nil {
			c.nodes = offheap.Uint32s(c.region.Bytes())[:len(c.nodes):capacity]
			return
		}
	}
	grown, region := newUint32s(capacity, !c.pinned.Load())
	c.setNodes(append(grown, c.nodes...), region)
}

// setNodes installs a new member arena, freeing the old one's mapping if
// the collection still owns it and dropping it if snapshots pin it.
func (c *Collection) setNodes(nodes []uint32, region *offheap.Region) {
	if !c.pinned.Load() {
		c.region.Free()
	}
	c.nodes, c.region = nodes, region
}

// Release empties the collection and frees its member arena now, unless
// a Snapshot pins it (the snapshots then keep it until they are gone).
// Sets read before the call must not be used after it; the collection
// itself stays usable and starts over from empty.
func (c *Collection) Release() {
	c.setNodes(nil, nil)
	c.offs = []int64{0}
	c.edgesExamined = 0
}

// regrow reallocates s with the given capacity.
func regrow[T any](s []T, capacity int) []T {
	grown := make([]T, len(s), capacity)
	copy(grown, s)
	return grown
}

// Regrows returns how many times an arena (member nodes or offset table)
// has been reallocated since the collection was created.
func (c *Collection) Regrows() int { return c.regrows }

// Reset truncates the collection to empty while keeping the arena
// capacity, so a reused collection reaches steady-state zero allocation.
func (c *Collection) Reset() {
	c.nodes = c.nodes[:0]
	c.offs = c.offs[:1]
	c.edgesExamined = 0
}

// AppendCollection bulk-appends every RR set of o to c, preserving order.
// It is the merge step of sharded generation: two flat copies instead of
// per-set Append calls.
func (c *Collection) AppendCollection(o *Collection) {
	c.Reserve(o.Count(), o.TotalSize())
	base := int64(len(c.nodes))
	c.nodes = append(c.nodes, o.nodes...)
	for _, off := range o.offs[1:] {
		c.offs = append(c.offs, base+off)
	}
	c.edgesExamined += o.edgesExamined
}

// Patch replaces the members of the RR set at position Pos. It is the
// exchange format of dynamic-graph repair: a worker recomputes exactly
// the sets whose traversal a mutation could have changed and ships the
// new members, keyed by position, so every replica (master mirrors,
// checkpoints) can splice the same bytes into the same slots.
type Patch struct {
	Pos     int
	Members []uint32
}

// ApplyPatches rewrites the collection with each patched position
// replaced by its new members; all other sets keep their bytes and
// positions. The rebuild allocates fresh arenas, so Snapshots taken
// before the call remain valid views of the pre-repair sample (readers
// drain against the old epoch while the repair installs); an arena no
// snapshot pins is freed as soon as its replacement is built. Positions out
// of range or duplicated are an error; edgesExamined is preserved (it is
// a lifetime generation counter, not a property of the resident bytes).
func (c *Collection) ApplyPatches(patches []Patch) error {
	if len(patches) == 0 {
		return nil
	}
	count := c.Count()
	// Merge-walk over position order: the unpatched runs between
	// consecutive patches copy as single bulk appends and their offsets
	// shift by plain arithmetic, so the rewrite costs O(nodes) memcpy +
	// O(patches log patches), not a map probe per resident set.
	order := make([]int, len(patches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return patches[order[a]].Pos < patches[order[b]].Pos })
	total := int64(len(c.nodes))
	for k, oi := range order {
		p := patches[oi]
		if p.Pos < 0 || p.Pos >= count {
			return fmt.Errorf("rrset: patch position %d out of range [0,%d)", p.Pos, count)
		}
		if k > 0 && patches[order[k-1]].Pos == p.Pos {
			return fmt.Errorf("rrset: duplicate patch for position %d", p.Pos)
		}
		total += int64(len(p.Members)) - (c.offs[p.Pos+1] - c.offs[p.Pos])
	}
	nodes, region := newUint32s(int(total), !c.pinned.Load())
	offs := make([]int64, 1, count+1)
	copyRun := func(from, to int) { // unpatched sets [from, to)
		if to <= from {
			return
		}
		base := int64(len(nodes)) - c.offs[from]
		nodes = append(nodes, c.nodes[c.offs[from]:c.offs[to]]...)
		at := len(offs)
		offs = offs[:at+(to-from)]
		for i, o := range c.offs[from+1 : to+1] {
			offs[at+i] = o + base
		}
	}
	prev := 0
	for _, oi := range order {
		p := patches[oi]
		copyRun(prev, p.Pos)
		nodes = append(nodes, p.Members...)
		offs = append(offs, int64(len(nodes)))
		prev = p.Pos + 1
	}
	copyRun(prev, count)
	c.setNodes(nodes, region)
	c.offs = offs
	return nil
}

// WireSize returns the number of bytes AppendWire adds: a u32 set count,
// then per set a u32 length plus its u32 members.
func (c *Collection) WireSize() int {
	return c.WireSizeRange(0)
}

// WireSizeRange returns the number of bytes AppendWireRange(b, from) adds.
func (c *Collection) WireSizeRange(from int) int {
	count := c.Count() - from
	if count <= 0 {
		return 4
	}
	return 4 + 4*count + 4*int(c.offs[c.Count()]-c.offs[from])
}

// AppendWire appends the collection's little-endian wire encoding to b —
// the gather-all payload layout (count u32, then len u32 + members u32*
// per set). The buffer is grown once and filled by index, which is
// measurably faster than appending one u32 at a time.
func (c *Collection) AppendWire(b []byte) []byte {
	return c.AppendWireRange(b, 0)
}

// AppendWireRange appends the wire encoding of the RR sets [from,
// Count()) to b, in the same layout as AppendWire. It is the payload of
// the incremental fetch a resident query service uses to pull only the
// sets a worker generated since the previous sync.
func (c *Collection) AppendWireRange(b []byte, from int) []byte {
	if from < 0 {
		from = 0
	}
	if from > c.Count() {
		from = c.Count()
	}
	off := len(b)
	need := c.WireSizeRange(from)
	if cap(b)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, b)
		b = grown
	}
	b = b[:off+need]
	binary.LittleEndian.PutUint32(b[off:], uint32(c.Count()-from))
	off += 4
	for i := from; i < c.Count(); i++ {
		set := c.nodes[c.offs[i]:c.offs[i+1]]
		binary.LittleEndian.PutUint32(b[off:], uint32(len(set)))
		off += 4
		for _, v := range set {
			binary.LittleEndian.PutUint32(b[off:], v)
			off += 4
		}
	}
	return b
}

// Snapshot is an immutable view of a Collection prefix. Because the
// collection is append-only, the arena bytes a snapshot references are
// never rewritten by later Appends (growth either extends in place past
// the snapshot's length or reallocates, leaving the old backing array
// intact), so a snapshot taken under a lock stays safe to read after the
// lock is released — the accessor a concurrent query service hands to
// readers while a grower extends the live collection. Reset breaks this
// guarantee (it reuses the arena in place): snapshots must not outlive a
// Reset of their collection.
//
// An off-heap arena stays mapped while a Snapshot holding it is
// reachable, not while a slice returned by Set is: keep the Snapshot
// itself alive (runtime.KeepAlive) until such slices are last used.
type Snapshot struct {
	nodes  []uint32
	offs   []int64
	region *offheap.Region // pins an off-heap arena; nil for a heap one
}

// Snapshot captures the current contents as an immutable view and pins
// the arena (see the package comment). The caller must synchronize the
// call itself against concurrent Appends (e.g. take it under the read
// side of the lock that guards growth).
func (c *Collection) Snapshot() Snapshot {
	c.pinned.Store(true)
	return Snapshot{nodes: c.nodes, offs: c.offs, region: c.region}
}

// Count returns the number of RR sets in the snapshot.
func (s Snapshot) Count() int { return len(s.offs) - 1 }

// TotalSize returns the summed cardinality of the snapshot's RR sets.
func (s Snapshot) TotalSize() int64 {
	if s.Count() <= 0 {
		return 0
	}
	return s.offs[s.Count()]
}

// Set returns the members of RR set i; the slice aliases the arena and
// must not be modified.
func (s Snapshot) Set(i int) []uint32 {
	return s.nodes[s.offs[i]:s.offs[i+1]]
}

// AvgSize returns the mean RR-set cardinality (the empirical EPS).
func (c *Collection) AvgSize() float64 {
	if c.Count() == 0 {
		return 0
	}
	return float64(c.TotalSize()) / float64(c.Count())
}

// SizeHistogram returns counts of RR-set cardinalities in power-of-two
// bins: bin 0 holds empty sets, bin i>0 holds sizes in [2^(i-1), 2^i).
// The long tail of this histogram is what drives both memory and the
// greedy's update costs, so experiments report it alongside Table IV.
func (c *Collection) SizeHistogram() []int64 {
	bins := make([]int64, 34)
	for i := 0; i < c.Count(); i++ {
		size := int(c.offs[i+1] - c.offs[i])
		b := 0
		for s := size; s > 0; s >>= 1 {
			b++
		}
		if b >= len(bins) {
			b = len(bins) - 1
		}
		bins[b]++
	}
	return bins
}

// Index is an inverted node→RR-set index over a Collection prefix: for
// each node v, the ids of the RR sets that contain v. In the paper's
// notation the list for node v is I_i(v) on machine s_i.
//
// The index is segmented: each growth increment of the collection becomes
// one CSR segment over flat arrays (same GC rationale as Collection), so
// extending the index after a DIIMM doubling round costs O(new RR size)
// instead of an O(total size) rebuild. Segments cover disjoint ascending
// RR-id ranges, so per-node id lists stay globally sorted when segments
// are visited in order.
type Index struct {
	n     int // item-space size (graph nodes)
	count int // number of RR sets indexed
	segs  []indexSeg

	// Patch state (see ApplyPatches): repaired RR sets change membership
	// in place, which the CSR segments cannot express by resizing. A
	// posting removed by a patch is tombstoned by setting deadPosting on
	// its id (preserving the masked ascending order, so binary search
	// still works); a posting added by a patch lands in the per-node
	// overlay, read as one extra list after the segments'. dead
	// and overlayLen track the accumulated debt that triggers a
	// compacting rebuild; degAdj corrects Degree for both.
	overlay    map[uint32][]uint32
	overlayLen int
	dead       int
	degAdj     []int32

	// fullBuilds counts from-scratch constructions (instrumentation for
	// the incremental-maintenance guarantee; see Worker.ensureIndex).
	fullBuilds int
}

// deadPosting marks a tombstoned id inside an index segment's posting
// list: a repaired RR set no longer containing the node. Every reader
// skips ids with this bit set. Live ids never carry it (BuildIndex
// rejects collections with 2^31 sets).
const deadPosting = 1 << 31

// indexSeg is one segment covering RR sets [from, from+countable): a CSR
// over only the nodes it holds postings for. Node v is held iff bit v of
// has is set; its rank r, the number of held nodes below it, is rank[v/64]
// plus a popcount of the word of has below v, and its ids are
// ids[offs[r]:offs[r+1]].
type indexSeg struct {
	from   int      // first RR-set id this segment covers
	has    []uint64 // bitmap of held nodes, one bit per node
	rank   []uint32 // rank[w]: held nodes in words [0, w) of has
	offs   []uint32 // offs[r]..offs[r+1] delimits held node r's ids
	ids    []uint32
	region *offheap.Region // backs ids when they are off the heap
}

// maxIndexSegments bounds segment-chain length. DIIMM's doubling schedule
// produces O(log θ) segments, far below this; a pathological caller issuing
// thousands of tiny increments triggers a compacting full rebuild instead
// of degrading every posting read.
const maxIndexSegments = 64

// BuildIndex constructs the inverted index of the first c.Count() RR sets
// for a graph of n nodes. RR-set ids must fit in uint32.
func BuildIndex(c *Collection, n int) (*Index, error) {
	idx := &Index{n: n, fullBuilds: 1}
	if err := idx.appendSeg(c, 0); err != nil {
		return nil, err
	}
	return idx, nil
}

// AppendFrom extends the index with the RR sets [from, c.Count()) of c,
// where from must equal the number of sets already indexed. The work is
// O(n/64 + size of the new sets) when a pooled cursor array is at hand,
// plus O(n) to zero a new one when none is. It never touches
// previously indexed segments (unless the segment cap forces a
// compaction).
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
	if len(idx.segs) >= maxIndexSegments {
		idx.reset()
		from = 0
	}
	return idx.appendSeg(c, from)
}

// cursorPool holds the n-entry write cursors of segment builds. A pooled
// array is all zeros: a build counts into it, fills through it, and then
// clears only the entries of the nodes it held.
var cursorPool sync.Pool

// appendSeg builds one segment over sets [from, c.Count()). It counts
// and fills through a dense cursor array, as a dense CSR build does: a
// rank lookup per posting would cost a popcount in the fill loop.
func (idx *Index) appendSeg(c *Collection, from int) error {
	if c.Count() > 1<<31 {
		return fmt.Errorf("rrset: %d RR sets exceed the uint32 id space", c.Count())
	}
	lo, hi := c.offs[from], c.offs[c.Count()]
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
	ids, region := newUint32s(int(hi-lo), true)
	seg.ids, seg.region = ids[:hi-lo], region
	for i := from; i < c.Count(); i++ {
		for _, v := range c.Set(i) {
			seg.ids[cur[v]] = uint32(i)
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
	idx.count = c.Count()
	return nil
}

// covers returns the segment's ids for v, empty when v holds none. It is
// branch-free: an unheld v's rank indexes an offset pair of equal ends.
func (s *indexSeg) covers(v uint32) []uint32 {
	w, sh := s.has[v>>6], v&63
	r := s.rank[v>>6] + uint32(bits.OnesCount64(w&(1<<sh-1)))
	return s.ids[s.offs[r]:s.offs[r+uint32(w>>sh&1)]]
}

// The readers below are the only code that walks posting lists. A
// node's lists are one per segment, ascending and disjoint in id range,
// then a patched index's overlay list, unordered; a posting removed by a
// patch stays in its segment list with deadPosting set.

// numLists returns how many posting lists a node has: one per segment,
// plus the overlay while the index carries patches.
func (idx *Index) numLists() int {
	if idx.overlay != nil {
		return len(idx.segs) + 1
	}
	return len(idx.segs)
}

// list returns v's posting list i (i < numLists()). The slice aliases
// internal storage.
func (idx *Index) list(i int, v uint32) []uint32 {
	if i < len(idx.segs) {
		return idx.segs[i].covers(v)
	}
	return idx.overlay[v]
}

// AppendCovers appends the ids of the RR sets containing v to dst and
// returns it: ascending, except that a patched index's patch-added ids
// trail in no order. Tombstoned postings are skipped.
func (idx *Index) AppendCovers(dst []uint32, v uint32) []uint32 {
	for i := range idx.segs {
		for _, j := range idx.segs[i].covers(v) {
			if j&deadPosting == 0 {
				dst = append(dst, j)
			}
		}
	}
	return append(dst, idx.overlay[v]...)
}

// The recount kernels read a posting list against the covered bitset's
// words with no data-dependent branch: deadPosting is the id's top bit,
// so live = 1 - j>>31 masks a tombstone out of the count and out of the
// store, and the covered bit is shifted down rather than tested.

// CountUncovered returns how many RR sets containing v are not yet
// marked in covered: the count behind the recount greedy's Marginal.
// covered must span the index's Count() sets.
func (idx *Index) CountUncovered(covered *bitset.Bits, v uint32) int64 {
	words := covered.Words()
	var m uint64
	for i := 0; i < idx.numLists(); i++ {
		for _, j := range idx.list(i, v) {
			live := uint64(j>>31) ^ 1
			j &^= deadPosting
			m += ^words[j>>6] >> (j & 63) & live
		}
	}
	return int64(m)
}

// Cover marks every RR set containing v as covered and returns how many
// of them were uncovered before: the cover step of the recount greedy,
// and the serving layer's prefix coverage of a seed list.
func (idx *Index) Cover(covered *bitset.Bits, v uint32) int64 {
	words := covered.Words()
	var m uint64
	for i := 0; i < idx.numLists(); i++ {
		for _, j := range idx.list(i, v) {
			live := uint64(j>>31) ^ 1
			j &^= deadPosting
			w := words[j>>6]
			m += ^w >> (j & 63) & live
			words[j>>6] = w | live<<(j&63)
		}
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
		ids := idx.segs[i].covers(v)
		// Tombstones keep the masked ids ascending, so the range is a
		// sub-slice found by binary search.
		from := sort.Search(len(ids), func(k int) bool { return int(ids[k]&^deadPosting)>>6 >= loWord })
		to := from + sort.Search(len(ids)-from, func(k int) bool { return int(ids[from+k]&^deadPosting)>>6 >= hiWord })
		for _, j := range ids[from:to] {
			if j&deadPosting != 0 || words[j>>6]>>(j&63)&1 != 0 {
				continue
			}
			words[j>>6] |= 1 << (j & 63)
			dst = append(dst, j)
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
		d += len(idx.segs[i].covers(v))
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

// Bytes returns the index's resident size: every segment's postings and
// tables, plus a patched index's overlay postings and degree adjustments.
func (idx *Index) Bytes() int64 {
	b := 4 * (idx.overlayLen + len(idx.degAdj))
	for _, s := range idx.segs {
		b += 8*len(s.has) + 4*(len(s.rank)+len(s.offs)+len(s.ids))
	}
	return int64(b)
}

// Count returns the number of RR sets the index covers.
func (idx *Index) Count() int { return idx.count }

// FullBuilds returns how many times the index was constructed from
// scratch (1 for BuildIndex; incremental AppendFrom calls do not add to
// it unless the segment cap forces a compaction).
func (idx *Index) FullBuilds() int { return idx.fullBuilds }
