package coverage

import (
	"fmt"

	"dimm/internal/rrset"
)

// SetSystem is a generic maximum-coverage instance in the set-element
// paradigm: a family of sets over a universe of elements, stored in CSR
// form. The paper's §IV-C experiments map a graph onto one of these
// (node u's set is its neighborhood N_u; elements are nodes).
type SetSystem struct {
	numSets     int
	numElements int
	start       []int64
	elems       []uint32
}

// NewSetSystem builds a system from explicit per-set element lists.
func NewSetSystem(numElements int, sets [][]uint32) (*SetSystem, error) {
	s := &SetSystem{
		numSets:     len(sets),
		numElements: numElements,
		start:       make([]int64, len(sets)+1),
	}
	total := 0
	for _, set := range sets {
		total += len(set)
	}
	s.elems = make([]uint32, 0, total)
	for i, set := range sets {
		for _, e := range set {
			if int(e) >= numElements {
				return nil, fmt.Errorf("coverage: element %d out of range (universe %d)", e, numElements)
			}
			s.elems = append(s.elems, e)
		}
		s.start[i+1] = int64(len(s.elems))
	}
	return s, nil
}

// NumSets returns the number of sets in the family.
func (s *SetSystem) NumSets() int { return s.numSets }

// NumElements returns the size of the element universe.
func (s *SetSystem) NumElements() int { return s.numElements }

// Set returns the elements of set i (aliases internal storage).
func (s *SetSystem) Set(i int) []uint32 { return s.elems[s.start[i]:s.start[i+1]] }

// TotalSize returns the summed cardinality of all sets.
func (s *SetSystem) TotalSize() int64 { return int64(len(s.elems)) }

// invertToOracle builds a LocalOracle for greedy selection over a subset
// of the family. keepSet maps a global set id to a local item id (or -1 to
// exclude); numItems is the local item count; keepElem filters which
// elements participate (nil = all). The returned oracle's elements are the
// kept elements, each represented as the list of local item ids covering
// it — exactly the element-distributed representation of Algorithm 1.
// The oracle owns the collection and index it reads: its Release frees
// them.
func (s *SetSystem) invertToOracle(keepSet []int32, numItems int, keepElem func(e uint32) bool) (*LocalOracle, error) {
	// Inverted lists: element -> covering (kept) sets.
	lists := make([][]uint32, s.numElements)
	for setID := 0; setID < s.numSets; setID++ {
		local := keepSet[setID]
		if local < 0 {
			continue
		}
		for _, e := range s.Set(setID) {
			if keepElem != nil && !keepElem(e) {
				continue
			}
			lists[e] = append(lists[e], uint32(local))
		}
	}
	c := rrset.NewCollection(int(s.TotalSize()))
	for _, l := range lists {
		if len(l) > 0 {
			c.Append(l, 0)
		}
	}
	idx, err := rrset.BuildIndex(c, numItems)
	if err != nil {
		c.Release()
		return nil, err
	}
	return NewLocalOracle(c, idx, numItems)
}

// greedyOnce runs RunGreedy over an oracle invertToOracle built and
// releases the oracle.
func (s *SetSystem) greedyOnce(keepSet []int32, numItems, k int) (*Result, error) {
	o, err := s.invertToOracle(keepSet, numItems, nil)
	if err != nil {
		return nil, err
	}
	defer o.Release()
	return RunGreedy(o, k)
}

// identityKeep returns a keepSet slice mapping every set to itself.
func (s *SetSystem) identityKeep() []int32 {
	keep := make([]int32, s.numSets)
	for i := range keep {
		keep[i] = int32(i)
	}
	return keep
}

// SequentialGreedy runs the centralized greedy over the whole family —
// the baseline whose speedup Fig. 10(b) reports.
func (s *SetSystem) SequentialGreedy(k int) (*Result, error) {
	return s.greedyOnce(s.identityKeep(), s.numSets, k)
}

// ElementOracles partitions the *elements* across machines (element e goes
// to machine e mod machines) and returns one LocalOracle per machine over
// the full item space — the NEWGREEDI data layout for a SetSystem. Combine
// them with NewMultiOracle (reference) or ship them to cluster workers.
// Each oracle owns what it reads; the caller releases it.
func (s *SetSystem) ElementOracles(machines int) ([]*LocalOracle, error) {
	if machines < 1 {
		return nil, fmt.Errorf("coverage: need >= 1 machine, got %d", machines)
	}
	oracles := make([]*LocalOracle, machines)
	keep := s.identityKeep()
	for i := 0; i < machines; i++ {
		m := uint32(i)
		o, err := s.invertToOracle(keep, s.numSets, func(e uint32) bool { return e%uint32(machines) == m })
		if err != nil {
			for _, o := range oracles[:i] {
				o.Release()
			}
			return nil, err
		}
		oracles[i] = o
	}
	return oracles, nil
}

// NewGreeDiSequential runs the full NEWGREEDI algorithm over an
// element-partitioned SetSystem using the in-process reference oracle.
// It returns exactly the centralized greedy solution (Lemma 2).
func (s *SetSystem) NewGreeDiSequential(k, machines int) (*Result, error) {
	oracles, err := s.ElementOracles(machines)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, o := range oracles {
			o.Release()
		}
	}()
	multi, err := NewMultiOracle(oracles)
	if err != nil {
		return nil, err
	}
	return RunGreedy(multi, k)
}

// GreeDi is the set-distributed composable-core-sets baseline of
// Mirzasoleiman et al. (NeurIPS'13) with κ = k, as configured in the
// paper's §IV-A: sets are partitioned equally across machines, each
// machine greedily picks k of its sets, and the master greedily merges
// the ℓ·k candidates into the final k. Unlike NEWGREEDI its approximation
// degrades with ℓ (Fig. 10(c) plots the resulting coverage ratio).
func GreeDi(s *SetSystem, k, machines int) (*Result, error) {
	if machines < 1 {
		return nil, fmt.Errorf("coverage: need >= 1 machine, got %d", machines)
	}
	if k <= 0 {
		return nil, fmt.Errorf("coverage: k must be positive, got %d", k)
	}
	// Stage 1: per-machine greedy over its own partition of sets.
	candidates := make([]uint32, 0, machines*k)
	for mi := 0; mi < machines; mi++ {
		keep := make([]int32, s.numSets)
		local2global := make([]uint32, 0, (s.numSets+machines-1)/machines)
		for setID := 0; setID < s.numSets; setID++ {
			if setID%machines == mi {
				keep[setID] = int32(len(local2global))
				local2global = append(local2global, uint32(setID))
			} else {
				keep[setID] = -1
			}
		}
		kappa := k
		if kappa > len(local2global) {
			kappa = len(local2global)
		}
		if kappa == 0 {
			continue
		}
		res, err := s.greedyOnce(keep, len(local2global), kappa)
		if err != nil {
			return nil, err
		}
		for _, local := range res.Seeds {
			candidates = append(candidates, local2global[local])
		}
	}
	if len(candidates) < k {
		return nil, fmt.Errorf("coverage: only %d candidates for k = %d", len(candidates), k)
	}
	// Stage 2: master greedy over the merged candidates.
	keep := make([]int32, s.numSets)
	for i := range keep {
		keep[i] = -1
	}
	for local, setID := range candidates {
		keep[setID] = int32(local)
	}
	res, err := s.greedyOnce(keep, len(candidates), k)
	if err != nil {
		return nil, err
	}
	final := &Result{
		Coverage:  res.Coverage,
		Marginals: res.Marginals,
		Seeds:     make([]uint32, len(res.Seeds)),
	}
	for i, local := range res.Seeds {
		final.Seeds[i] = candidates[local]
	}
	return final, nil
}
