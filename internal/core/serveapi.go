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
// All selection state (covered labels, degree vector, scratch) is local
// to the call, so concurrent selections over the same immutable
// collection are safe — the read side of the serve layer's epoch scheme.
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

// SelectFromSampleCandidates runs the same exact lazy-bucket greedy but
// restricted to a candidate pool: non-candidates keep a zero marginal
// throughout, so the selection is exactly what full greedy would return
// whenever every pick it makes lies inside the pool. The serving fast
// tier uses this with a sketch-ranked pool — O(|candidates|) live heap
// entries instead of O(n) — and the usual certificate machinery then
// measures what the restriction cost.
func SelectFromSampleCandidates(c *rrset.Collection, idx *rrset.Index, n, k int, candidates []uint32) (*coverage.Result, error) {
	if c == nil || idx == nil {
		return nil, fmt.Errorf("core: select from nil sample")
	}
	o, err := coverage.NewLocalOracle(c, idx, n)
	if err != nil {
		return nil, err
	}
	allow := make([]bool, n)
	for _, v := range candidates {
		if int(v) >= n {
			return nil, fmt.Errorf("core: candidate %d outside the %d-node graph", v, n)
		}
		allow[v] = true
	}
	return coverage.RunGreedy(&candidateOracle{inner: o, allow: allow}, k)
}

// candidateOracle masks the local oracle down to a candidate pool:
// outside degrees start at zero, outside marginals count zero and
// outside deltas are dropped, so the bucket scan never sees (or drives
// negative) a non-candidate. It forwards the inner oracle's
// coverage.Counter, so RunGreedy takes the recount path through it.
type candidateOracle struct {
	inner *coverage.LocalOracle
	allow []bool
}

func (o *candidateOracle) Marginal(u uint32) int64 {
	if !o.allow[u] {
		return 0
	}
	return o.inner.Marginal(u)
}

func (o *candidateOracle) Cover(u uint32) { o.inner.Cover(u) }

func (o *candidateOracle) NumItems() int { return o.inner.NumItems() }

func (o *candidateOracle) InitialDegrees() ([]int64, error) {
	deg, err := o.inner.InitialDegrees()
	if err != nil {
		return nil, err
	}
	for v := range deg {
		if !o.allow[v] {
			deg[v] = 0
		}
	}
	return deg, nil
}

func (o *candidateOracle) Select(u uint32) ([]coverage.Delta, error) {
	deltas, err := o.inner.Select(u)
	if err != nil {
		return nil, err
	}
	kept := deltas[:0]
	for _, d := range deltas {
		if o.allow[d.Node] {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// DefaultSketchK is the bottom-k size the serving fast tier defaults
// to: a ≈ 1/√62 ≈ 13% relative standard error per estimate at 8·64
// bytes per covered node, small enough that sketch maintenance
// disappears next to RR generation.
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

// CertifySelection computes the per-query OPIM-C certificate for a seed
// set whose greedy coverage on the resident R1 is cov1 and whose
// coverage on the independent resident R2 is cov2, both of size theta.
// The answer is a (1 − 1/e − ε)-approximation whenever the returned
// ratio reaches 1 − 1/e − ε.
func CertifySelection(n int, theta, cov1, cov2 int64, tailMass float64) imm.Certificate {
	return imm.CertifyOPIM(n, theta, cov1, cov2, tailMass)
}
