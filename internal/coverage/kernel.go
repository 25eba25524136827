package coverage

import (
	"math/bits"
	"slices"
	"sync"

	"dimm/internal/bitset"
	"dimm/internal/rrset"
)

// DeltaAccum is the map-stage hash map Δ_i of Algorithm 1 line 15 as a
// dense per-node decrement vector plus a touched bitset: Add is two
// branch-free stores, and Drain walks the set bits, so the pairs come out
// in ascending node order — the order the wire's gap coding and dense
// form want — without ever being sorted. Every delta producer in the
// system (the select kernel, the worker's degree sync and repair
// corrections, both reduce stages) accumulates and drains through this
// one type.
type DeltaAccum struct {
	dec  []int32
	mark []uint64 // bit v set ⇔ node v was Added since the last Drain
}

// NewDeltaAccum returns an empty accumulator over an n-node space.
func NewDeltaAccum(n int) *DeltaAccum {
	return &DeltaAccum{dec: make([]int32, n), mark: make([]uint64, (n+63)/64)}
}

// Len returns the node-space size; Add requires v < Len().
func (a *DeltaAccum) Len() int { return len(a.dec) }

// Grow extends the node space to n, keeping accumulated state; shrinking
// is a no-op.
func (a *DeltaAccum) Grow(n int) {
	if n <= len(a.dec) {
		return
	}
	dec := make([]int32, n)
	copy(dec, a.dec)
	mark := make([]uint64, (n+63)/64)
	copy(mark, a.mark)
	a.dec, a.mark = dec, mark
}

// Add accumulates d onto node v.
func (a *DeltaAccum) Add(v uint32, d int32) {
	a.dec[v] += d
	a.mark[v>>6] |= 1 << (v & 63)
}

// Drain appends the accumulated pairs to out in ascending node order and
// clears the accumulator. Nodes whose signed contributions cancelled to
// zero are dropped. It grows out at most once, to hold every marked
// node.
func (a *DeltaAccum) Drain(out []Delta) []Delta {
	marked := 0
	for _, w := range a.mark {
		marked += bits.OnesCount64(w)
	}
	out = slices.Grow(out, marked)
	for wi, w := range a.mark {
		if w == 0 {
			continue
		}
		a.mark[wi] = 0
		for ; w != 0; w &= w - 1 {
			v := uint32(wi<<6 + bits.TrailingZeros64(w))
			if d := a.dec[v]; d != 0 {
				out = append(out, Delta{Node: v, Dec: d})
				a.dec[v] = 0
			}
		}
	}
	return out
}

// absorb folds o into a and clears o. Marks OR and decrements add, so
// the result is independent of the order accumulators are absorbed in.
func (a *DeltaAccum) absorb(o *DeltaAccum) {
	for wi, w := range o.mark {
		if w == 0 {
			continue
		}
		o.mark[wi] = 0
		a.mark[wi] |= w
		for ; w != 0; w &= w - 1 {
			v := wi<<6 + bits.TrailingZeros64(w)
			a.dec[v] += o.dec[v]
			o.dec[v] = 0
		}
	}
}

// minParallelCovers is the covers-list length below which the kernel
// stays sequential: partitioning a short list across goroutines costs
// more in spawn/merge overhead than the scan itself. Early seeds cover
// thousands of RR sets (where parallelism pays); late seeds cover a
// handful (where it cannot).
const minParallelCovers = 256

// SelectKernel is the map stage of Algorithm 1 (lines 14-21) factored
// out of LocalOracle and cluster.Worker so both run the same code: mark
// every still-uncovered RR set containing the new seed as covered and
// accumulate, per node, how much its marginal coverage decreases.
//
// With parallelism P > 1 the RR-id space is split into P contiguous
// ranges of covered-bitset words and each goroutine covers the seed's
// RR sets in its range (Index.CoverRange), patched index or not. This is
// safe and exact:
//
//   - Ranges are whole bitset words, so no two goroutines ever write the
//     same covered word, and an RR set is counted by exactly one of them.
//   - Each goroutine accumulates into its own DeltaAccum and the shards
//     are absorbed into the kernel's afterwards. Absorbing is OR-of-marks
//     plus add-of-decrements — commutative — and Drain emits by node id,
//     so the delta vector is bit-identical to the sequential one at every
//     P with no ordering argument needed: Lemma 2 (exact equivalence with
//     centralized greedy) is preserved by construction.
type SelectKernel struct {
	par    int
	acc    *DeltaAccum
	shards []*DeltaAccum // per-goroutine accumulators, sized lazily
	ids    [][]uint32    // per-goroutine newly covered ids, reused
}

// NewSelectKernel builds a kernel over an n-item space. parallelism <= 1
// means sequential.
func NewSelectKernel(n, parallelism int) *SelectKernel {
	k := &SelectKernel{acc: NewDeltaAccum(n)}
	k.SetParallelism(parallelism)
	return k
}

// SetParallelism sets the number of map-stage goroutines (values below 1
// clamp to 1, i.e. sequential).
func (k *SelectKernel) SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	k.par = p
}

// Parallelism returns the configured goroutine count.
func (k *SelectKernel) Parallelism() int { return k.par }

// NumItems returns the item-space size.
func (k *SelectKernel) NumItems() int { return k.acc.Len() }

// Grow extends the item space to n (ingest can enlarge it); shrinking is
// a no-op. Must not be called while a Select is in flight.
func (k *SelectKernel) Grow(n int) {
	if n <= k.acc.Len() {
		return
	}
	k.acc.Grow(n)
	k.shards = nil // re-sized lazily on the next parallel Select
}

// Select runs the map stage for seed u over collection c and its index,
// marking newly covered RR sets in covered. Results accumulate in the
// kernel until Drain.
func (k *SelectKernel) Select(c *rrset.Collection, idx *rrset.Index, covered *bitset.Bits, u uint32) {
	p := k.par
	if p > 1 {
		p = max(1, min(p, idx.Degree(u)/minParallelCovers))
	}
	for len(k.ids) < p {
		k.ids = append(k.ids, nil)
	}
	words := bitset.WordIndex(covered.Len()-1) + 1
	if p == 1 {
		k.ids[0] = idx.CoverRange(k.ids[0][:0], covered, u, 0, words)
		countMembers(c, k.ids[0], k.acc)
		return
	}
	for len(k.shards) < p {
		k.shards = append(k.shards, NewDeltaAccum(k.acc.Len()))
	}
	scanRange := func(s int, acc *DeltaAccum) {
		k.ids[s] = idx.CoverRange(k.ids[s][:0], covered, u, s*words/p, (s+1)*words/p)
		countMembers(c, k.ids[s], acc)
	}
	var wg sync.WaitGroup
	for s := 1; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			scanRange(s, k.shards[s])
		}(s)
	}
	scanRange(0, k.acc) // shard 0 runs on the calling goroutine
	wg.Wait()
	for s := 1; s < p; s++ {
		k.acc.absorb(k.shards[s])
	}
}

// countMembers is the inner loop shared by the sequential path and each
// parallel shard: count every member of the newly covered RR sets ids
// into acc.
func countMembers(c *rrset.Collection, ids []uint32, acc *DeltaAccum) {
	dec, mark := acc.dec, acc.mark
	for _, j := range ids {
		for _, v := range c.Set(int(j)) {
			dec[v]++
			mark[v>>6] |= 1 << (v & 63)
		}
	}
}

// Drain appends the accumulated decrements to out in ascending node
// order and clears the scratch for the next Select.
func (k *SelectKernel) Drain(out []Delta) []Delta { return k.acc.Drain(out) }
