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
// bucket lists over coverage values, scanned in decreasing order with
// lazy re-insertion of stale entries (lines 5-13). Its work is linear in
// the number of items plus the number of lazy moves, which is bounded by
// the total coverage decrement volume.
func RunGreedy(o Oracle, k int) (*Result, error) {
	n := o.NumItems()
	if k <= 0 {
		return nil, fmt.Errorf("coverage: k must be positive, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("coverage: k = %d exceeds the %d selectable items", k, n)
	}
	deg64, err := o.InitialDegrees()
	if err != nil {
		return nil, err
	}
	if len(deg64) != n {
		return nil, fmt.Errorf("coverage: oracle returned %d degrees for %d items", len(deg64), n)
	}
	deg := deg64

	// Bucket lists are intrusive singly-linked: head[d] is the first node
	// in bucket d (+1, 0 = empty) and next[v] chains nodes within one
	// bucket. A node lives in exactly one bucket; its bucket index can
	// only be stale upwards (degrees never increase), so a downward scan
	// with re-insertion visits every node at its true degree eventually.
	var dMax int64
	for _, d := range deg {
		if d > dMax {
			dMax = d
		}
	}
	head := make([]int32, dMax+1)
	next := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		d := deg[v]
		next[v] = head[d]
		head[d] = int32(v) + 1
	}

	res := &Result{
		Seeds:     make([]uint32, 0, k),
		Marginals: make([]int64, 0, k),
	}
	selected := make([]bool, n)
	for d := dMax; d >= 0; d-- {
		for head[d] != 0 {
			v := head[d] - 1
			head[d] = next[v]
			if selected[v] {
				continue
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
// It also serves as the worker-side state of the distributed oracle: the
// cluster worker runs the same SelectKernel and ships its deltas to the
// master. Covered labels live in a bitset (1 bit per RR set, not the
// byte of a []bool) and the map stage runs on the kernel, which splits
// the covers list across SetParallelism goroutines.
type LocalOracle struct {
	c   *rrset.Collection
	idx *rrset.Index
	n   int

	covered *bitset.Bits
	kern    *SelectKernel
	deltas  []Delta // Select's reply buffer, reused every round
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
		kern:    NewSelectKernel(n, 1),
	}, nil
}

// SetParallelism sets the number of map-stage goroutines for Select.
// Output is bit-identical at every setting (see SelectKernel).
func (o *LocalOracle) SetParallelism(p int) { o.kern.SetParallelism(p) }

// NumItems implements Oracle.
func (o *LocalOracle) NumItems() int { return o.n }

// InitialDegrees implements Oracle: it relabels every RR set uncovered
// and returns the per-node coverage counts.
func (o *LocalOracle) InitialDegrees() ([]int64, error) {
	o.covered.Reset(o.c.Count())
	deg := make([]int64, o.n)
	for v := 0; v < o.n; v++ {
		deg[v] = int64(o.idx.Degree(uint32(v)))
	}
	return deg, nil
}

// Select implements Oracle: the map stage of Algorithm 1 for seed u.
func (o *LocalOracle) Select(u uint32) ([]Delta, error) {
	if int(u) >= o.n {
		return nil, fmt.Errorf("coverage: select of out-of-range item %d", u)
	}
	o.kern.Select(o.c, o.idx, o.covered, u)
	o.deltas = o.kern.Drain(o.deltas[:0])
	return o.deltas, nil
}

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
