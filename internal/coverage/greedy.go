// Package coverage implements maximum coverage over RR-set collections:
// the exact lazy-bucket greedy of the paper's Algorithm 1 (NEWGREEDI), a
// local single-machine oracle, a reference multi-machine oracle, the
// set-distributed GREEDI baseline (composable core-sets), and a brute
// force optimum for small instances.
//
// The greedy master logic is written against the Oracle interface so the
// exact same selection code runs centralized (one LocalOracle), in the
// reference distributed form (MultiOracle), and over a real cluster
// (internal/cluster provides an Oracle backed by worker RPCs). Lemma 2 —
// NEWGREEDI returns exactly the centralized greedy solution — then holds
// by construction, and the test suite verifies it end to end.
package coverage

import (
	"fmt"
	"sync"

	"dimm/internal/bitset"
	"dimm/internal/rrset"
)

// Delta is one node's marginal-coverage decrement, the unit of the
// map-stage reply in Algorithm 1 (the tuples ⟨v, Δ_i(v)⟩).
type Delta struct {
	Node uint32
	Dec  int32
}

// Oracle abstracts the per-machine state of Algorithm 1 away from the
// master's selection loop. Implementations must be deterministic given
// the same underlying data.
type Oracle interface {
	// NumItems returns the number of selectable items (nodes), i.e. the
	// size of the degree vector.
	NumItems() int
	// InitialDegrees returns Δ(v) for every item v: how many (currently
	// uncovered) elements item v covers. Called once per greedy run; the
	// oracle must reset any covered flags it keeps (Algorithm 1 line 2).
	InitialDegrees() ([]int64, error)
	// Select marks u as chosen: every element covered by u that was still
	// uncovered becomes covered, and the returned deltas say how much each
	// item's marginal coverage decreases (Algorithm 1 lines 14-22). The
	// slice is the oracle's reusable reply buffer: it is valid (and may be
	// filtered in place) until the next call on the oracle, so a caller
	// that keeps deltas across rounds must copy them.
	Select(u uint32) ([]Delta, error)
}

// Counter is the capability of an Oracle that can count an item's
// current marginal coverage itself. RunGreedy then reads a node's
// marginal only when its bucket scan pops the node (the lazy check of
// Algorithm 1 line 9) and, on a pick, only marks the seed's elements
// covered: it calls no Select and applies no deltas. A count taken at
// pop time equals what the eager decrements would hold at that moment,
// so the result is identical to the delta path's. The cluster's oracle
// does not implement it: counting at the master would cost one round
// trip per pop where deltas cost one per seed.
type Counter interface {
	// Marginal returns how many still-uncovered elements item u covers
	// (never negative).
	Marginal(u uint32) int64
	// Cover marks every element item u covers as covered.
	Cover(u uint32)
}

// Result is the outcome of a greedy run.
type Result struct {
	Seeds    []uint32 // selected items in selection order
	Coverage int64    // number of elements covered by Seeds
	// Marginals[i] is the marginal coverage of Seeds[i] at selection time;
	// Coverage is their sum. Exposed because IMM's stopping rule needs the
	// coverage of each intermediate prefix.
	Marginals []int64
}

// bucketLists builds the vector D of Algorithm 1 over initial degrees
// deg. Bucket lists are intrusive singly-linked: head[d] is the first
// node in bucket d (+1, 0 = empty) and next[v] chains nodes within one
// bucket, at first by ascending node id. A node lives in exactly one
// bucket; its bucket index can only be stale upwards (degrees never
// increase), so a downward scan with re-insertion visits every node at
// its true degree eventually. A negative degree — an oracle bug, or a
// worker's signed repair corrections gone wrong — is an error, not an
// index panic. next must have len(deg) entries; every one is overwritten.
func bucketLists(deg []int64, next []int32) (head []int32, err error) {
	var dMax int64
	for v, d := range deg {
		if d < 0 {
			return nil, fmt.Errorf("coverage: oracle returned negative initial degree %d for item %d", d, v)
		}
		dMax = max(dMax, d)
	}
	head = make([]int32, dMax+1)
	for v := len(deg) - 1; v >= 0; v-- {
		next[v] = head[deg[v]]
		head[deg[v]] = int32(v) + 1
	}
	return head, nil
}

// greedyScratch is RunGreedy's n-sized working state: the degree vector
// (filled in place when the oracle is a LocalOracle), the bucket chains
// and the selected flags. A resident service runs one greedy per seed
// query over the same n, so the scratch is pooled instead of becoming
// ≈ 13 bytes per node of garbage every query.
type greedyScratch struct {
	deg      []int64
	next     []int32
	selected []bool
}

var scratchPool sync.Pool

// getScratch returns cleared scratch for n items, dropping any pooled
// entry sized for another n.
func getScratch(n int) *greedyScratch {
	if s, ok := scratchPool.Get().(*greedyScratch); ok && len(s.next) == n {
		clear(s.selected)
		return s
	}
	return &greedyScratch{deg: make([]int64, n), next: make([]int32, n), selected: make([]bool, n)}
}

// RunGreedy executes the master side of Algorithm 1: the vector D of
// bucket lists over coverage values, scanned in decreasing order with
// lazy re-insertion of stale entries (lines 5-13). Its work is linear in
// the number of items plus the number of lazy moves, which is bounded by
// the total coverage decrement volume. A popped node's true marginal
// comes from the oracle's own count when it is a Counter, from the
// applied Select deltas otherwise; the two agree at every pop.
func RunGreedy(o Oracle, k int) (*Result, error) {
	n := o.NumItems()
	if k <= 0 {
		return nil, fmt.Errorf("coverage: k must be positive, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("coverage: k = %d exceeds the %d selectable items", k, n)
	}
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	var deg []int64
	if lo, ok := o.(*LocalOracle); ok {
		deg = sc.deg
		lo.fillDegrees(deg)
	} else {
		var err error
		if deg, err = o.InitialDegrees(); err != nil {
			return nil, err
		}
		if len(deg) != n {
			return nil, fmt.Errorf("coverage: oracle returned %d degrees for %d items", len(deg), n)
		}
	}
	next, selected := sc.next, sc.selected
	head, err := bucketLists(deg, next)
	if err != nil {
		return nil, err
	}
	cnt, recount := o.(Counter)

	res := &Result{
		Seeds:     make([]uint32, 0, k),
		Marginals: make([]int64, 0, k),
	}
	for d := int64(len(head) - 1); d >= 0; d-- {
		for head[d] != 0 {
			v := head[d] - 1
			head[d] = next[v]
			if selected[v] {
				continue
			}
			if recount {
				deg[v] = cnt.Marginal(uint32(v))
			}
			if cur := deg[v]; cur < d {
				// Outdated coverage (line 9): move to the true bucket.
				next[v] = head[cur]
				head[cur] = v + 1
				continue
			}
			u := uint32(v)
			selected[v] = true
			res.Seeds = append(res.Seeds, u)
			res.Marginals = append(res.Marginals, deg[v])
			res.Coverage += deg[v]
			if len(res.Seeds) == k {
				return res, nil
			}
			if recount {
				cnt.Cover(u)
				continue
			}
			deltas, err := o.Select(u)
			if err != nil {
				return nil, err
			}
			for _, dl := range deltas {
				if int(dl.Node) >= n {
					return nil, fmt.Errorf("coverage: oracle delta for item %d out of range", dl.Node)
				}
				deg[dl.Node] -= int64(dl.Dec)
				if deg[dl.Node] < 0 {
					return nil, fmt.Errorf("coverage: item %d driven to negative degree", dl.Node)
				}
			}
		}
	}
	return nil, fmt.Errorf("coverage: bucket scan exhausted after %d of %d selections", len(res.Seeds), k)
}

// LocalOracle is the single-machine oracle over one RR-set collection.
// It is a Counter, so RunGreedy over it counts a popped node's uncovered
// postings instead of decrementing every member of every covered RR set
// (Index.CountUncovered / Index.Cover). Its Select — the delta path, for
// MultiOracle and the other drivers — runs the same SelectKernel the
// cluster worker does, which splits the covers list across
// SetParallelism goroutines. Covered labels live in a bitset (1 bit per
// RR set, not the byte of a []bool).
type LocalOracle struct {
	c   *rrset.Collection
	idx *rrset.Index
	n   int

	covered *bitset.Bits
	par     int
	kern    *SelectKernel // built by the first Select: a recount never needs its n-entry decrement vector
	deltas  []Delta       // Select's reply buffer, reused every round
}

// NewLocalOracle builds the oracle for n selectable items over c. The
// index must have been built from c (idx.Count() == c.Count()). The map
// stage is sequential until SetParallelism.
func NewLocalOracle(c *rrset.Collection, idx *rrset.Index, n int) (*LocalOracle, error) {
	if idx.Count() != c.Count() {
		return nil, fmt.Errorf("coverage: index covers %d RR sets, collection has %d", idx.Count(), c.Count())
	}
	return &LocalOracle{
		c:       c,
		idx:     idx,
		n:       n,
		covered: bitset.New(c.Count()),
		par:     1,
	}, nil
}

// SetParallelism sets the number of map-stage goroutines for Select.
// Output is bit-identical at every setting (see SelectKernel); the
// recount path (Marginal, Cover) is sequential.
func (o *LocalOracle) SetParallelism(p int) {
	o.par = p
	if o.kern != nil {
		o.kern.SetParallelism(p)
	}
}

// NumItems implements Oracle.
func (o *LocalOracle) NumItems() int { return o.n }

// InitialDegrees implements Oracle: it relabels every RR set uncovered
// and returns the per-node coverage counts.
func (o *LocalOracle) InitialDegrees() ([]int64, error) {
	deg := make([]int64, o.n)
	o.fillDegrees(deg)
	return deg, nil
}

// fillDegrees is InitialDegrees into a caller-owned vector of n entries.
func (o *LocalOracle) fillDegrees(deg []int64) {
	o.covered.Reset(o.c.Count())
	o.idx.FillDegrees(deg)
}

// Select implements Oracle: the map stage of Algorithm 1 for seed u.
func (o *LocalOracle) Select(u uint32) ([]Delta, error) {
	if int(u) >= o.n {
		return nil, fmt.Errorf("coverage: select of out-of-range item %d", u)
	}
	if o.kern == nil {
		o.kern = NewSelectKernel(o.n, o.par)
	}
	o.kern.Select(o.c, o.idx, o.covered, u)
	o.deltas = o.kern.Drain(o.deltas[:0])
	return o.deltas, nil
}

// Marginal implements Counter: u's live postings, over every index
// segment including a patched index's overlay, whose RR set is still
// uncovered.
func (o *LocalOracle) Marginal(u uint32) int64 { return o.idx.CountUncovered(o.covered, u) }

// Cover implements Counter: it marks u's RR sets covered and touches
// nothing else.
func (o *LocalOracle) Cover(u uint32) { o.idx.Cover(o.covered, u) }

// CoveredCount returns how many RR sets are currently covered; after a
// greedy run it equals the run's Coverage (used as a cross-check).
func (o *LocalOracle) CoveredCount() int64 {
	return o.covered.Count()
}

// MultiOracle is the reference (in-process, sequential) element-distributed
// oracle: it fans a Select out to several LocalOracles and merges their
// delta vectors, exactly the reduce stage of Algorithm 1 line 22. The
// cluster package provides the same semantics over a transport; this type
// exists so NEWGREEDI's correctness can be tested without any transport.
type MultiOracle struct {
	machines []*LocalOracle
	n        int

	// merge is the reduce-stage scratch: summing the per-machine deltas
	// through a DeltaAccum instead of a map keeps Select deterministic
	// (Go map iteration order is randomized).
	merge  *DeltaAccum
	deltas []Delta // Select's reply buffer, reused every round
}

// NewMultiOracle combines per-machine oracles; all must agree on NumItems.
func NewMultiOracle(machines []*LocalOracle) (*MultiOracle, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("coverage: need at least one machine")
	}
	n := machines[0].NumItems()
	for i, m := range machines {
		if m.NumItems() != n {
			return nil, fmt.Errorf("coverage: machine %d has %d items, machine 0 has %d", i, m.NumItems(), n)
		}
	}
	return &MultiOracle{machines: machines, n: n, merge: NewDeltaAccum(n)}, nil
}

// NumItems implements Oracle.
func (m *MultiOracle) NumItems() int { return m.n }

// InitialDegrees implements Oracle (the aggregation of line 4).
func (m *MultiOracle) InitialDegrees() ([]int64, error) {
	total := make([]int64, m.n)
	for _, mach := range m.machines {
		deg, err := mach.InitialDegrees()
		if err != nil {
			return nil, err
		}
		for v, d := range deg {
			total[v] += d
		}
	}
	return total, nil
}

// Select implements Oracle (map on every machine, reduce at the caller).
// The merged deltas are emitted in ascending node order, making the
// reply a pure function of the machines' data — the determinism the
// Oracle contract requires (a map-keyed merge would emit in randomized
// iteration order).
func (m *MultiOracle) Select(u uint32) ([]Delta, error) {
	for _, mach := range m.machines {
		deltas, err := mach.Select(u)
		if err != nil {
			return nil, err
		}
		for _, d := range deltas {
			m.merge.Add(d.Node, d.Dec)
		}
	}
	m.deltas = m.merge.Drain(m.deltas[:0])
	return m.deltas, nil
}
