package mutate

import (
	"fmt"
	"sort"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// AffectedSlots returns, in ascending order, the positions of the RR
// sets that a just-applied update batch can have changed — the exact
// repair set under IC, a sound over-approximation under LT.
//
// deltas are the slot-level effects graph.ApplyUpdates reported for the
// batch; idx is the inverted node→RR index over the resident sample
// (built BEFORE the repair; membership reflects the pre-update sets,
// which is exactly what the coupling argument needs); lanes[t] is the
// lane seed RR set t was generated from.
//
// Soundness: a reverse traversal only ever flips coins at nodes it
// visits, and it visits exactly the nodes it outputs — so a set whose
// members avoid every mutated head is bit-identical when regenerated on
// the new graph, and can be skipped. Under IC we refine further: the
// coin for in-slot pos of head v is draw number pos of the stream
// xrand.ScanSeed(lane, v), independent of the graph — so the mutated
// slot's liveness flips iff that draw lands in [min(pOld,pNew),
// max(pOld,pNew)), and a set where no mutated slot flips liveness
// replays every traversal decision identically. Under LT the walk's
// transition distribution at a visited head changes with any weight
// change, so every covering set is kept.
func AffectedSlots(model diffusion.Model, deltas []graph.EdgeDelta, idx *rrset.Index, lanes []uint64) ([]int, error) {
	if idx == nil {
		return nil, fmt.Errorf("mutate: nil RR index")
	}
	if idx.Count() > len(lanes) {
		return nil, fmt.Errorf("mutate: %d RR sets indexed but only %d lane seeds", idx.Count(), len(lanes))
	}
	// marked[t] dedupes across deltas without a map: the planner visits a
	// posting per (delta, covering set), and at high churn a map probe per
	// visit dominated the plan.
	marked := make([]bool, idx.Count())
	var affected []int
	var ids []uint32
	var redraw xrand.Rand
	for _, d := range deltas {
		lo, hi := d.POld, d.PNew
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			continue // no-op delta: liveness cannot change for any draw
		}
		ids = idx.AppendCovers(ids[:0], d.Head)
		for _, id := range ids {
			t := int(id)
			if marked[t] {
				continue
			}
			if model == diffusion.IC {
				redraw.Seed(xrand.ScanSeed(lanes[t], d.Head))
				redraw.Skip(d.Pos)
				u := redraw.Float64()
				if !(u >= float64(lo) && u < float64(hi)) {
					continue // coin outcome unchanged: set replays identically
				}
			}
			marked[t] = true
			affected = append(affected, t)
		}
	}
	sort.Ints(affected)
	return affected, nil
}

// AffectedSlotsConservative is the fallback plan when slot-level deltas
// are unavailable (e.g. an idempotent replay whose memoized deltas have
// been discarded): every RR set covering any head an op touches. Always
// sound — recomputing an unchanged set is value-idempotent — just
// larger than the refined plan.
func AffectedSlotsConservative(ops []graph.EdgeUpdate, idx *rrset.Index) ([]int, error) {
	if idx == nil {
		return nil, fmt.Errorf("mutate: nil RR index")
	}
	marked := make([]bool, idx.Count())
	var affected []int
	var ids []uint32
	for _, op := range ops {
		ids = idx.AppendCovers(ids[:0], op.To)
		for _, id := range ids {
			if t := int(id); !marked[t] {
				marked[t] = true
				affected = append(affected, t)
			}
		}
	}
	sort.Ints(affected)
	return affected, nil
}
