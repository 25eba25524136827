package core

import (
	"fmt"
	"math"

	"dimm/internal/coverage"
	"dimm/internal/imm"
	"dimm/internal/rrset"
	"dimm/internal/sketch"
)

// This file is the query-time API of the resident serving path
// (internal/serve): selection over an *existing* RR-set collection and
// the OPIM-C per-query certificate, decoupled from the one-shot
// sample-then-select drivers above. The paper's framework makes the
// decoupling sound — an RR collection valid for (k_max, ε, δ) supports
// greedy selection at any k ≤ k_max, and the OPIM-C bound certifies the
// achieved ratio of that selection against the sample it was drawn from.

// SampleBudget sizes a resident RR sample for a serving deployment
// handling any query with k ≤ kMax and ε ≥ epsFloor.
type SampleBudget struct {
	Theta0   int64   // initial resident collection size
	ThetaMax int64   // growth cap: IMM's worst case for (kMax, epsFloor)
	TailMass float64 // per-certificate Chernoff mass a
}

// PlanResidentSample derives the budget from the OPIM-C plans of every
// admissible query size at epsFloor, taking the worst case over
// k = 1..kMax. The binding constraint is the small-k end: a small seed
// set covers few RR sets, so its certificate carries relatively more
// Chernoff slack and needs a larger sample than kMax does (OPIM-C's
// θ_max grows as 1/k). The tail mass additionally takes a union bound
// over the kMax possible query sizes, so that every certificate issued
// over the sample's lifetime — any k, any growth epoch — simultaneously
// holds with probability at least 1 − δ.
func PlanResidentSample(n, kMax int, epsFloor, delta float64) (SampleBudget, error) {
	var b SampleBudget
	for k := 1; k <= kMax; k++ {
		plan, err := imm.PlanOPIMC(n, k, epsFloor, delta)
		if err != nil {
			return SampleBudget{}, err
		}
		if k == 1 || plan.Theta0 < b.Theta0 {
			b.Theta0 = plan.Theta0
		}
		if plan.ThetaMax > b.ThetaMax {
			b.ThetaMax = plan.ThetaMax
		}
		if plan.A > b.TailMass {
			b.TailMass = plan.A
		}
	}
	b.TailMass += math.Log(float64(kMax))
	return b, nil
}

// SelectFromSample runs the exact lazy-bucket greedy over an existing
// collection and its inverted index, without generating a single RR set.
// The selection state (covered labels, re-insertion stacks) belongs to
// the call, and the initial degree order is the index's cached one,
// built by the first query after a change and shared read-only, so
// concurrent selections over the same immutable collection are safe —
// the read side of the serve layer's epoch scheme — and a query
// allocates nothing n-sized.
// The greedy counts a popped node's marginal on the local oracle
// (coverage.Counter), a sequential scan with no map stage to spread
// across goroutines.
func SelectFromSample(c *rrset.Collection, idx *rrset.Index, n, k int) (*coverage.Result, error) {
	if c == nil || idx == nil {
		return nil, fmt.Errorf("core: select from nil sample")
	}
	o, err := coverage.NewLocalOracle(c, idx, n)
	if err != nil {
		return nil, err
	}
	return coverage.RunGreedy(o, k)
}

// DefaultSketchK is the bottom-k size the serving fast tier defaults
// to: a ≈ 1/√62 ≈ 13% relative standard error per estimate. A node
// costs an 8-byte offset plus 8 bytes per instance containing it, up to
// 64, so the tier is sized by the sample's members, not by n·K; sketch
// maintenance disappears next to RR generation.
const DefaultSketchK = 64

// BuildSketch folds the RR sets the snapshot gained since the sketch's
// last build into the resident bottom-k sketch tier (internal/sketch),
// sharded parallelism ways over the node space. The sketch is a pure
// function of the snapshot prefix and the sketch params at any
// parallelism, the same determinism contract as RR generation itself.
// Returns how many instances were absorbed.
func BuildSketch(sk *sketch.Set, snap rrset.Snapshot, parallelism int) int {
	if sk == nil {
		return 0
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return sk.Absorb(snap, parallelism)
}
