package rrset

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the in-place repair path of the inverted index. A graph
// update regenerates a small fraction of the resident RR sets at their
// original positions (see internal/mutate); rebuilding the whole index
// for that — the historic behavior — costs O(total RR size) per update
// and dominates the repair wall clock. ApplyPatches instead edits only
// the postings whose membership actually changed: O(changed postings),
// independent of theta.
//
// Representation: removals tombstone the posting in its CSR segment by
// setting its bit in the segment's dead bitset, made on the segment's
// first removal (the posting stays where it is, so it is found again by
// binary search); additions go to a per-node overlay list read after the
// segments' lists. Re-additions resurrect the tombstone in place when
// one exists. The readers in index.go skip dead entries and filter
// overlay ids by range, so no caller sees the difference. Accumulated
// debt (tombstones + overlay) beyond a quarter of the postings triggers
// a compacting full rebuild, keeping scan overhead bounded amortized.

// ApplyPatches edits the index in place to reflect the membership
// patches about to be applied to c. It MUST be called before
// c.ApplyPatches(patches): the pre-patch membership of each patched set
// is read from c to compute the posting diff. Positions are unchanged
// by repair, so only memberships move.
func (idx *Index) ApplyPatches(c *Collection, patches []Patch) error {
	if idx.count != c.Count() {
		return fmt.Errorf("rrset: index covers %d RR sets but the collection holds %d", idx.count, c.Count())
	}
	if len(patches) == 0 {
		return nil
	}
	idx.order.Store(nil)
	// Compact first when the accumulated debt got too big: the index
	// still matches c's pre-patch membership here, so a full rebuild
	// from c is valid, and the patches below then apply to fresh state.
	if idx.dead+idx.overlayLen > idx.postings()/4 {
		idx.reset()
		if err := idx.appendSets(c, 0); err != nil {
			return err
		}
	}
	if idx.degAdj == nil {
		idx.degAdj = make([]int32, idx.n)
	}
	if idx.overlay == nil {
		idx.overlay = make(map[uint32][]uint32)
	}
	var oldBuf, newBuf []uint32
	for _, p := range patches {
		if p.Pos < 0 || p.Pos >= idx.count {
			return fmt.Errorf("rrset: patch position %d outside the %d indexed RR sets", p.Pos, idx.count)
		}
		t := uint32(p.Pos)
		oldBuf = append(oldBuf[:0], c.Set(p.Pos)...)
		newBuf = append(newBuf[:0], p.Members...)
		slices.Sort(oldBuf)
		slices.Sort(newBuf)
		// Two-pointer diff over the sorted memberships: postings present
		// only in old die, postings present only in new are born.
		i, j := 0, 0
		for i < len(oldBuf) || j < len(newBuf) {
			switch {
			case j == len(newBuf) || (i < len(oldBuf) && oldBuf[i] < newBuf[j]):
				if err := idx.killPosting(oldBuf[i], t); err != nil {
					return err
				}
				i++
			case i == len(oldBuf) || newBuf[j] < oldBuf[i]:
				if err := idx.addPosting(newBuf[j], t); err != nil {
					return err
				}
				j++
			default: // membership unchanged
				i++
				j++
			}
		}
	}
	return nil
}

// postings returns the total number of segment postings (live + dead).
func (idx *Index) postings() int {
	var total int
	for i := range idx.segs {
		total += len(idx.segs[i].ids)
	}
	return total
}

// reset drops all index state for a from-scratch rebuild.
func (idx *Index) reset() {
	idx.Release()
	idx.fullBuilds++
}

// Release empties the index and frees its postings now. Lists read
// before the call must not be used after it; the index covers zero RR
// sets afterwards (AppendFrom at 0 rebuilds it).
func (idx *Index) Release() {
	// Clear every slot, not just the length: the backing array would
	// otherwise keep the dropped segments' tables, ids and dead bitsets
	// reachable.
	for i := range idx.segs {
		idx.segs[i].region.Free()
		idx.segs[i] = indexSeg{}
	}
	idx.segs = idx.segs[:0]
	idx.order.Store(nil)
	idx.count = 0
	idx.increments = 0
	idx.overlay = nil
	idx.overlayLen = 0
	idx.dead = 0
	idx.degAdj = nil
}

// killPosting removes the live posting (v, t): spliced out of the
// overlay if it was patch-born, tombstoned in its owning segment
// otherwise. An absent posting means the index diverged from the
// collection — surfaced as an error, never silently absorbed.
func (idx *Index) killPosting(v, t uint32) error {
	if ov, ok := idx.overlay[v]; ok {
		for i, id := range ov {
			if id == t {
				idx.overlay[v] = append(ov[:i], ov[i+1:]...)
				idx.overlayLen--
				idx.degAdj[v]--
				return nil
			}
		}
	}
	s, p, ok := idx.findSegPosting(v, t)
	if !ok || s.isDead(p) {
		return fmt.Errorf("rrset: removing posting (%d, %d) the index does not hold", v, t)
	}
	if s.dead == nil {
		s.dead = make([]uint64, (len(s.ids)+63)/64)
	}
	s.dead[p>>6] |= 1 << (p & 63)
	idx.dead++
	idx.degAdj[v]--
	return nil
}

// addPosting inserts the posting (v, t): resurrecting its tombstone in
// place when the segment holds one, appending to the overlay otherwise.
func (idx *Index) addPosting(v, t uint32) error {
	if s, p, ok := idx.findSegPosting(v, t); ok {
		if !s.isDead(p) {
			return fmt.Errorf("rrset: adding posting (%d, %d) the index already holds", v, t)
		}
		s.dead[p>>6] &^= 1 << (p & 63)
		idx.dead--
		idx.degAdj[v]++
		return nil
	}
	idx.overlay[v] = append(idx.overlay[v], t)
	idx.overlayLen++
	idx.degAdj[v]++
	return nil
}

// findSegPosting locates id t in v's posting list of the segment owning
// t's id range, by binary search over the list's ascending offsets, dead
// or alive. Returns the segment, the posting's position in its ids, and
// whether the posting exists.
func (idx *Index) findSegPosting(v, t uint32) (*indexSeg, uint32, bool) {
	si := sort.Search(len(idx.segs), func(i int) bool { return idx.segs[i].from > int(t) }) - 1
	if si < 0 {
		return nil, 0, false
	}
	s := &idx.segs[si]
	if t-s.base() >= 1<<windowBits {
		return nil, 0, false
	}
	lo, hi := s.span(v)
	list, o := s.ids[lo:hi], uint16(t-s.base())
	pos := sort.Search(len(list), func(i int) bool { return list[i] >= o })
	if pos == len(list) || list[pos] != o {
		return nil, 0, false
	}
	return s, lo + uint32(pos), true
}
