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
// DIIMM doubling round, a serving daemon's growth step) and 2¹⁶-id window
// it touches. A segment is a CSR over only the nodes it holds postings
// for: a bitmap of held nodes, a rank directory of one uint32 per 64
// nodes, a uint32 offset per held node, and a uint16 posting per
// (node, set) pair, the set's id less its window's base. It costs 3n/16 B
// plus 4 B per held node plus 2 B per posting, so a small increment
// stays small on a large graph, and a lookup stays O(1): one bit test
// and one popcount.
//
// The two θ-sized arrays, a Collection's member arena and an Index
// segment's postings, go further: from offheap.MinBytes up they live in
// anonymous mappings (internal/offheap), which the GC neither scans nor
// paces against, so their resident cost is their size rather than that
// size plus heap headroom. That memory is released by its owner, under
// two ownership rules:
//
//   - A Collection owns its arena: growth resizes it in place,
//     ApplyPatches frees the old arena once the new one is built, and
//     Release frees it at once. A Set slice or a Snapshot is a view of
//     the arena, valid until the collection's next mutation.
//   - An Index owns its segments' postings and frees them when it
//     compacts and on Release.
//
// After a Release the collection or index is empty, never dangling.
// Every owner that drops a large sample releases it first: one dropped
// without Release is freed by a finalizer and counted in
// offheap.Leaked.
package rrset

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dimm/internal/offheap"
)

// Collection is an append-only set of RR sets in arena storage.
// Not safe for concurrent mutation; each machine owns one Collection.
type Collection struct {
	nodes []uint32 // concatenated member nodes of all RR sets
	offs  []int64  // offs[i]..offs[i+1] delimits RR set i; len = Count()+1

	// region backs nodes once the arena is off the heap (nil otherwise).
	region *offheap.Region

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
	c.nodes, c.region = newUint32s(sizeHint)
	return c
}

// newUint32s returns an empty []uint32 with room for capacity elements.
// An array of at least offheap.MinBytes lives in a fresh mapping, whose
// handle comes back beside it; anything smaller, and any mapping the
// system refuses, is an ordinary heap slice.
func newUint32s(capacity int) ([]uint32, *offheap.Region) {
	if 4*capacity >= offheap.MinBytes {
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

// growNodes gives the member arena room for capacity members. An
// off-heap arena is resized in place (on Linux without copying a byte);
// otherwise the members move to a new arena, off the heap when the size
// warrants it.
func (c *Collection) growNodes(capacity int) {
	if c.region != nil {
		if err := c.region.Resize(4 * capacity); err == nil {
			c.nodes = offheap.Uint32s(c.region.Bytes())[:len(c.nodes):capacity]
			return
		}
	}
	grown, region := newUint32s(capacity)
	c.setNodes(append(grown, c.nodes...), region)
}

// setNodes installs a new member arena and frees the old one's mapping.
func (c *Collection) setNodes(nodes []uint32, region *offheap.Region) {
	c.region.Free()
	c.nodes, c.region = nodes, region
}

// Release empties the collection and frees its member arena now. Sets
// and Snapshots taken before the call must not be used after it; the
// collection itself stays usable and starts over from empty.
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
// positions. The rebuild allocates a fresh arena and frees the old one
// as soon as its replacement is built, so Sets and Snapshots taken
// before the call must not be used after it. Positions out
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
	nodes, region := newUint32s(int(total))
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

// Snapshot is a read-only view of a Collection's sets, valid until the
// collection's next mutation (Append, Reserve, AppendCollection,
// ApplyPatches, Reset or Release), the same contract as a slice from
// Set: growth may move or free the arena it views. A reader that keeps
// a snapshot past a lock must hold off every mutator, for instance by
// holding the lock that serializes them. A snapshot keeps its collection
// reachable, so a reader that keeps it alive to the end of its reads
// (runtime.KeepAlive) may drop the collection after Snapshot().
type Snapshot struct {
	nodes []uint32
	offs  []int64
	owner *Collection // reachability only; never mutated through
}

// Snapshot returns a view of the current contents. The caller must
// synchronize the call itself against concurrent mutation.
func (c *Collection) Snapshot() Snapshot {
	return Snapshot{nodes: c.nodes, offs: c.offs, owner: c}
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
