// Package sketch implements per-node bottom-k combined reachability
// sketches over the same simulated diffusion instances the RR-set
// machinery samples (Cohen et al., "Sketch-based Influence Maximization
// and Computation"). RR set j is one reverse diffusion instance rooted
// at a uniform node: node v appears in set j exactly when v would have
// reached that root in instance j. A node's influence is therefore
// proportional to how many instances contain it — the quantity the
// resident service's greedy selection counts exactly — and a bottom-k
// sketch of each node's instance set answers the same question in O(k)
// instead of O(coverage).
//
// Every instance j gets a uniform 64-bit rank that is a pure function of
// (rank seed, j) (xrand.SketchRank); node v's sketch keeps the k
// smallest ranks among the instances containing v. The classic bottom-k
// estimator then recovers |instances containing v| as (k−1)/τ where τ is
// the k-th smallest rank mapped to (0, 1], exact below k, with relative
// standard error ≈ 1/√(k−2). Sketches of different nodes merge by
// rank, so seed-set (union) influence comes from one O(k)-per-seed
// merge — no second pass over the instances.
//
// A Set is built incrementally: Absorb consumes only the instances
// appended since the previous call, mirroring rrset.Index.AppendFrom.
// Because ranks are order-invariant, an Absorb sharded P ways over the
// node space inserts every (node, rank) pair in the same ascending-j
// order at any P, so the sketch bytes are identical at any parallelism.
package sketch

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// Params pins a sketch to its configuration: the bottom-k size and the
// rank-stream seed. Two sketches are comparable (mergeable, resumable)
// only when both match.
type Params struct {
	// K is the bottom-k size. Estimate quality is ≈ 1/√(K−2) relative
	// standard error; K must be at least 2.
	K int
	// Seed keys the instance→rank stream (xrand.SketchRank).
	Seed uint64
}

// Set holds one bottom-k sketch per node of an n-node graph in a CSR
// arena (n+1 offsets over one flat rank array) for the same
// O(1)-GC-objects reason as rrset.Collection. Node v's slot holds
// exactly min(k, instances containing v) ranks: the arena is sized by
// the sample's members, since a typical node is in far fewer than k
// instances. A Set is not safe for concurrent mutation; concurrent
// readers are safe between Absorb calls.
type Set struct {
	n     int
	k     int
	seed  uint64
	theta int64 // diffusion instances absorbed so far (ids [0, theta))

	start []int    // n+1 offsets into ranks
	ranks []uint64 // node v's ranks at [start[v], start[v+1]), ascending
}

// New returns an empty sketch set for an n-node graph.
func New(n int, p Params) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("sketch: graph size %d", n)
	}
	if p.K < 2 {
		return nil, fmt.Errorf("sketch: bottom-k size %d below the estimator's minimum 2", p.K)
	}
	return &Set{n: n, k: p.K, seed: p.Seed, start: make([]int, n+1)}, nil
}

// N returns the node-space size the sketch covers.
func (s *Set) N() int { return s.n }

// K returns the bottom-k size.
func (s *Set) K() int { return s.k }

// Seed returns the rank-stream seed.
func (s *Set) Seed() uint64 { return s.seed }

// Theta returns how many diffusion instances the sketch has absorbed.
func (s *Set) Theta() int64 { return s.theta }

// RelStdErr returns the estimator's relative standard error, ≈ 1/√(k−2).
func (s *Set) RelStdErr() float64 {
	if s.k <= 2 {
		return 1
	}
	return 1 / math.Sqrt(float64(s.k-2))
}

// Absorb folds the instances [Theta(), snap.Count()) of the R1 snapshot
// into the per-node sketches and returns how many it consumed.
// parallelism shards the node space; the resulting sketch bytes are
// identical at every setting (see the package comment). The snapshot
// must extend the one previous Absorb calls saw — instances are
// identified by their position — and its collection must not mutate
// until Absorb returns.
func (s *Set) Absorb(snap rrset.Snapshot, parallelism int) int {
	from := int(s.theta)
	count := snap.Count()
	if count <= from {
		return 0
	}
	// Count each node's new memberships, re-lay the arena to the grown
	// slot lengths, then run the sorted insert in ascending j. fill is
	// scratch for this call only: first the counts, then the cursors.
	fill := make([]int32, s.n)
	s.shard(parallelism, func(lo, hi uint32) { s.countRange(snap, from, count, lo, hi, fill) })
	s.grow(fill)
	s.shard(parallelism, func(lo, hi uint32) { s.absorbRange(snap, from, count, lo, hi, fill) })
	runtime.KeepAlive(snap) // its collection owns the arena the shards read
	s.theta = int64(count)
	return count - from
}

// shard runs fn over parallelism node ranges covering [0, n) and waits.
// Every shard scans all new instances but touches only members in its
// range, so each slot has exactly one writer and per-node insertion
// order stays ascending in j — deterministic and race-free at any P.
func (s *Set) shard(parallelism int, fn func(lo, hi uint32)) {
	if parallelism <= 1 || s.n < 2*parallelism {
		fn(0, uint32(s.n))
		return
	}
	var wg sync.WaitGroup
	chunk := (s.n + parallelism - 1) / parallelism
	for lo := 0; lo < s.n; lo += chunk {
		hi := min(lo+chunk, s.n)
		wg.Add(1)
		go func(lo, hi uint32) {
			defer wg.Done()
			fn(lo, hi)
		}(uint32(lo), uint32(hi))
	}
	wg.Wait()
}

// countRange counts, for nodes in [lo, hi), their memberships among
// instances [from, count), saturating at k (a slot never holds more).
func (s *Set) countRange(snap rrset.Snapshot, from, count int, lo, hi uint32, cnt []int32) {
	k := int32(min(s.k, math.MaxInt32))
	for j := from; j < count; j++ {
		for _, v := range snap.Set(j) {
			if v >= lo && v < hi && cnt[v] < k {
				cnt[v]++
			}
		}
	}
}

// grow re-lays the arena for the counted new memberships: node v's slot
// becomes min(k, held + cnt[v]) long with its held ranks copied to the
// front, and cnt[v] becomes the slot's fill cursor (ranks held).
func (s *Set) grow(cnt []int32) {
	start := make([]int, s.n+1)
	for v := 0; v < s.n; v++ {
		held := s.start[v+1] - s.start[v]
		start[v+1] = start[v] + min(s.k, held+int(cnt[v]))
		cnt[v] = int32(held)
	}
	ranks := make([]uint64, start[s.n])
	for v := 0; v < s.n; v++ {
		copy(ranks[start[v]:], s.ranks[s.start[v]:s.start[v+1]])
	}
	s.start, s.ranks = start, ranks
}

// absorbRange inserts instances [from, count) for nodes in [lo, hi).
func (s *Set) absorbRange(snap rrset.Snapshot, from, count int, lo, hi uint32, fill []int32) {
	for j := from; j < count; j++ {
		r := xrand.SketchRank(s.seed, uint64(j))
		for _, v := range snap.Set(j) {
			if v >= lo && v < hi {
				s.insert(v, r, fill)
			}
		}
	}
}

// insert adds rank r to node v's bottom-k, keeping the slot sorted;
// fill[v] ranks are held so far. Only a k-long slot can be full before
// its last insert, and a full slot drops its largest rank.
func (s *Set) insert(v uint32, r uint64, fill []int32) {
	slot := s.ranks[s.start[v]:s.start[v+1]]
	sz := int(fill[v])
	if sz == len(slot) && r >= slot[sz-1] {
		return
	}
	i := sort.Search(sz, func(i int) bool { return slot[i] >= r })
	if sz < len(slot) {
		copy(slot[i+1:sz+1], slot[i:sz])
		fill[v]++
	} else {
		copy(slot[i+1:], slot[i:sz-1])
	}
	slot[i] = r
}

// nodeRanks returns node v's sketch, ascending. Aliases the arena.
func (s *Set) nodeRanks(v uint32) []uint64 {
	return s.ranks[s.start[v]:s.start[v+1]]
}

// rankTau maps a 64-bit rank to its uniform (0, 1] position, the τ of
// the bottom-k estimator (same 53-bit mapping as xrand.Float64, shifted
// off zero so τ is never 0).
func rankTau(r uint64) float64 {
	return (float64(r>>11) + 1) * (1.0 / (1 << 53))
}

// estFromMerged is the bottom-k cardinality estimator over a merged
// (ascending, deduplicated, ≤ k long) rank list: exact below k, else
// (k−1)/τ_k.
func (s *Set) estFromMerged(m []uint64) float64 {
	if len(m) < s.k {
		return float64(len(m))
	}
	return float64(s.k-1) / rankTau(m[len(m)-1])
}

// EstimateCovers estimates how many absorbed instances contain v — the
// sketch analogue of the RR index's Degree(v).
func (s *Set) EstimateCovers(v uint32) float64 {
	return s.estFromMerged(s.nodeRanks(v))
}

// EstimateSpread estimates σ({v}) = n·|instances containing v|/θ.
func (s *Set) EstimateSpread(v uint32) float64 {
	if s.theta == 0 {
		return 0
	}
	return float64(s.n) * s.EstimateCovers(v) / float64(s.theta)
}

// mergeInto merges the ascending rank lists a and b into dst (reset to
// length 0), deduplicating by rank and keeping at most k — the combined
// bottom-k sketch of the union. Returns the filled dst.
func mergeInto(dst, a, b []uint64, k int) []uint64 {
	dst = dst[:0]
	i, j := 0, 0
	for len(dst) < k && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default: // equal rank: same instance reached via both nodes
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// UnionEstimate estimates how many absorbed instances contain at least
// one of the seeds — the coverage a seed set would score on the RR
// sample — plus how many estimator evaluations it spent (the /statsz
// estimate counter's unit).
func (s *Set) UnionEstimate(seeds []uint32) (est float64, evals int) {
	cur := make([]uint64, 0, s.k)
	scratch := make([]uint64, 0, s.k)
	for _, v := range seeds {
		scratch = mergeInto(scratch, cur, s.nodeRanks(v), s.k)
		cur, scratch = scratch, cur
	}
	return s.estFromMerged(cur), 1
}

// EstimateSpreadSet estimates σ(seeds) = n·union/θ from the sketches
// alone — the fast tier's answer to GET /v1/spread, never touching the
// RR sample.
func (s *Set) EstimateSpreadSet(seeds []uint32) (est float64, evals int) {
	if s.theta == 0 {
		return 0, 0
	}
	u, evals := s.UnionEstimate(seeds)
	return float64(s.n) * u / float64(s.theta), evals
}
