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

// RunGreedy executes the master side of Algorithm 1: the vector D of
// coverage buckets, scanned in decreasing order with lazy re-insertion
// of stale entries (lines 5-13). A popped node's true marginal comes
// from the oracle's own count when it is a Counter, from the applied
// Select deltas otherwise; the two agree at every pop.
func RunGreedy(o Oracle, k int) (*Result, error) {
	n := o.NumItems()
	if k <= 0 {
		return nil, fmt.Errorf("coverage: k must be positive, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("coverage: k = %d exceeds the %d selectable items", k, n)
	}
	return greedy(o, k, -1)
}

// reinserted is an entry of a bucket's stack of re-inserted nodes: the
// node and the 1-based position of the entry below it (0 at the bottom).
type reinserted struct {
	node  uint32
	below int
}

// greedy is the bucket scan both RunGreedy and RunGreedyUntil run. It
// picks until it holds maxSeeds seeds; with a target ≥ 0 it also stops
// once the coverage reaches target, or before a pick whose marginal is 0.
//
// D starts as an order of the items by initial degree (rrset.DegreeOrder):
// a LocalOracle's index caches it, any other oracle's InitialDegrees is
// counting-sorted. A popped node whose degree fell below the bucket's is
// pushed on the stack of its true bucket; degrees never increase, so a
// node's place is stale only upwards and the downward scan meets every
// node at its true degree eventually. At bucket d the scan pops that
// bucket's stack (last in, first out), then the nodes whose initial
// degree is d (by ascending id): the order of the linked bucket lists of
// the paper's D with re-insertion at the head. A picked node is never
// re-inserted. The work is O(max degree + pops) plus what the oracle
// does per pop and per pick; nothing n-sized is allocated when the order
// is the index's.
func greedy(o Oracle, maxSeeds int, target int64) (*Result, error) {
	var (
		ord *rrset.DegreeOrder
		deg []int64
	)
	if lo, ok := o.(*LocalOracle); ok {
		lo.covered.Reset(lo.c.Count())
		ord = lo.idx.DegreeOrder()
	} else {
		var err error
		if deg, err = o.InitialDegrees(); err != nil {
			return nil, err
		}
		if len(deg) != o.NumItems() {
			return nil, fmt.Errorf("coverage: oracle returned %d degrees for %d items", len(deg), o.NumItems())
		}
		// A negative degree — an oracle bug, or a worker's signed repair
		// corrections gone wrong — is an error, not an index panic.
		if ord, err = rrset.OrderByDegree(deg); err != nil {
			return nil, fmt.Errorf("coverage: oracle's initial degrees: %w", err)
		}
	}
	cnt, recount := o.(Counter)

	res := &Result{
		Seeds:     make([]uint32, 0, maxSeeds),
		Marginals: make([]int64, 0, maxSeeds),
	}
	if target == 0 {
		return res, nil
	}
	top := make([]int, ord.MaxDegree()+1) // 1-based stack tops, 0 = empty
	var stack []reinserted
	next := 0 // the next node of ord.Nodes the scan reaches
	for d := ord.MaxDegree(); d >= 0; d-- {
		for {
			var v uint32
			if t := top[d]; t != 0 {
				e := stack[t-1]
				v, top[d] = e.node, e.below
			} else if next < ord.Ends[d] {
				v = ord.Nodes[next]
				next++
			} else {
				break
			}
			var cur int64
			if recount {
				cur = cnt.Marginal(v)
			} else {
				cur = deg[v]
			}
			if cur < int64(d) {
				// Outdated coverage (line 9): move to the true bucket.
				stack = append(stack, reinserted{node: v, below: top[cur]})
				top[cur] = len(stack)
				continue
			}
			if target >= 0 && cur == 0 {
				// No remaining item adds coverage; the target is
				// unreachable on this data.
				return res, nil
			}
			res.Seeds = append(res.Seeds, v)
			res.Marginals = append(res.Marginals, cur)
			res.Coverage += cur
			if len(res.Seeds) == maxSeeds || (target >= 0 && res.Coverage >= target) {
				return res, nil
			}
			if recount {
				cnt.Cover(v)
				continue
			}
			deltas, err := o.Select(v)
			if err != nil {
				return nil, err
			}
			for _, dl := range deltas {
				if int(dl.Node) >= len(deg) {
					return nil, fmt.Errorf("coverage: oracle delta for item %d out of range", dl.Node)
				}
				deg[dl.Node] -= int64(dl.Dec)
				if deg[dl.Node] < 0 {
					return nil, fmt.Errorf("coverage: item %d driven to negative degree", dl.Node)
				}
			}
		}
	}
	return nil, fmt.Errorf("coverage: bucket scan exhausted after %d of %d selections", len(res.Seeds), maxSeeds)
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
// index must have been built from c (idx.Count() == c.Count()) for the
// same n items. The map stage is sequential until SetParallelism.
func NewLocalOracle(c *rrset.Collection, idx *rrset.Index, n int) (*LocalOracle, error) {
	if idx.Count() != c.Count() {
		return nil, fmt.Errorf("coverage: index covers %d RR sets, collection has %d", idx.Count(), c.Count())
	}
	if idx.NumNodes() != n {
		return nil, fmt.Errorf("coverage: index spans %d items, oracle %d", idx.NumNodes(), n)
	}
	return &LocalOracle{
		c:       c,
		idx:     idx,
		n:       n,
		covered: bitset.New(c.Count()),
		par:     1,
	}, nil
}

// Release frees the collection and the index the oracle reads now. Call
// it only on an oracle that owns them, as SetSystem's oracles do; the
// oracle is unusable after it.
func (o *LocalOracle) Release() {
	o.idx.Release()
	o.c.Release()
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
	o.covered.Reset(o.c.Count())
	deg := make([]int64, o.n)
	o.idx.FillDegrees(deg)
	return deg, nil
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
