package imm

import (
	"fmt"
	"math"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
)

// This file implements the OPIM-C framework of Tang, Tang, Xiao and Yuan
// (SIGMOD'18), the online-processing alternative to IMM that the
// reproduced paper lists among the state-of-the-art frameworks its
// distributed techniques plug into (§III-C). OPIM-C keeps two independent
// RR-set collections: R1 drives the greedy selection, R2 provides an
// unbiased lower bound on the selected set's spread; an upper bound on
// OPT follows from the greedy's (1−1/e) guarantee on R1. Sampling stops
// as soon as the certified ratio reaches 1 − 1/e − ε, which on easy
// instances happens orders of magnitude before IMM's worst-case θ.

// DualEngine abstracts the two-collection state of OPIM-C. The local
// implementation keeps both collections in one process; internal/core
// backs each collection with its own worker cluster, which is exactly
// the paper's "distributed OPIM-C" claim.
type DualEngine interface {
	// Generate grows collection R1 and R2 each to the target size.
	Generate(target int64) error
	// Count returns the current size of R1 (R2 is kept equal).
	Count() int64
	// SelectK runs the (1−1/e) greedy over R1.
	SelectK(k int) (*coverage.Result, error)
	// CoverageOn2 counts RR sets of R2 covered by the seed set.
	CoverageOn2(seeds []uint32) (int64, error)
}

// OPIMResult reports an OPIM-C run.
type OPIMResult struct {
	Seeds       []uint32
	Theta       int64   // final size of each collection
	EstSpread   float64 // lower-bound estimate from R2 (conservative)
	SpreadLower float64 // certified lower bound of σ(S)
	OptUpper    float64 // certified upper bound of OPT
	Ratio       float64 // SpreadLower / OptUpper at stop time
	Rounds      int
	Elapsed     time.Duration
}

// OPIMPlan is the sampling schedule of an OPIM-C run: the initial and
// maximum collection sizes, the doubling-round budget, and the per-round
// Chernoff tail mass the certificate charges against δ. A long-lived
// query service sizes its resident sample from the same plan (see
// internal/serve), which is why the planning math lives apart from the
// stopping-rule driver.
type OPIMPlan struct {
	Theta0   int64   // initial collection size
	ThetaMax int64   // IMM's worst-case size with OPT lower-bounded by k
	IMax     int     // doubling-round budget
	A        float64 // per-certificate tail mass ln(3·i_max/δ)
}

// PlanOPIMC derives the OPIM-C sampling schedule for a
// (1 − 1/e − ε)-approximation with probability at least 1 − δ.
func PlanOPIMC(n, k int, eps, delta float64) (OPIMPlan, error) {
	if n < 2 || k < 1 || k > n {
		return OPIMPlan{}, fmt.Errorf("imm: invalid OPIM-C instance n=%d k=%d", n, k)
	}
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return OPIMPlan{}, fmt.Errorf("imm: eps=%v delta=%v outside (0,1)", eps, delta)
	}
	// θ_max is IMM's worst-case sample size with OPT lower-bounded by k;
	// OPIM-C's budget split gives each collection half the failure
	// probability mass across i_max doubling rounds.
	alpha := math.Sqrt(math.Log(6 / delta))
	beta := math.Sqrt((1 - 1/math.E) * (LogBinom(n, k) + math.Log(6/delta)))
	thetaMax := int64(math.Ceil(2 * float64(n) * math.Pow((1-1/math.E)*alpha+beta, 2) /
		(eps * eps * float64(k))))
	theta0 := int64(math.Ceil(float64(thetaMax) * eps * eps * float64(k) / float64(n)))
	if theta0 < 16 {
		theta0 = 16
	}
	iMax := int(math.Ceil(math.Log2(float64(thetaMax)/float64(theta0)))) + 1
	if iMax < 1 {
		iMax = 1
	}
	return OPIMPlan{
		Theta0:   theta0,
		ThetaMax: thetaMax,
		IMax:     iMax,
		A:        math.Log(3 * float64(iMax) / delta),
	}, nil
}

// Certificate is the OPIM-C online bound for one seed set evaluated
// against a pair of independent RR-set collections of size theta.
type Certificate struct {
	SpreadLower float64 // certified lower bound of σ(S)
	OptUpper    float64 // certified upper bound of OPT
	Ratio       float64 // SpreadLower / OptUpper
}

// CertifyOPIM computes the online approximation certificate for a seed
// set whose greedy coverage on R1 is cov1 and whose coverage on the
// independent collection R2 is cov2, both of size theta over an n-node
// graph, with per-certificate tail mass a.
func CertifyOPIM(n int, theta, cov1, cov2 int64, a float64) Certificate {
	if theta <= 0 {
		return Certificate{}
	}
	cnt := float64(theta)
	// Lower bound on σ(S) from its coverage on the independent R2
	// (Chernoff lower-tail inversion, OPIM Lemma 4.2 shape).
	l := float64(cov2)
	sigmaLower := (math.Pow(math.Sqrt(l+2*a/9)-math.Sqrt(a/2), 2) - a/18) * float64(n) / cnt
	if sigmaLower < 0 {
		sigmaLower = 0
	}
	// Upper bound on OPT from the greedy's coverage on R1: the greedy
	// covers at least (1−1/e)·Λ1(S°), so Λ1(S°) ≤ Λ1(S)/(1−1/e); add
	// the upper-tail slack (OPIM Lemma 4.3 shape).
	u := float64(cov1) / (1 - 1/math.E)
	optUpper := math.Pow(math.Sqrt(u+a/2)+math.Sqrt(a/2), 2) * float64(n) / cnt
	c := Certificate{SpreadLower: sigmaLower, OptUpper: optUpper}
	if optUpper > 0 {
		c.Ratio = sigmaLower / optUpper
	}
	return c
}

// PairSeeds splits one base seed into the stream seeds of OPIM-C's two
// samples: R1, which the greedy selects on, and R2, which certifies the
// selection. The lower bound on σ(S) is unbiased only if R2 is
// independent of R1, so every holder of the pair — the local and
// distributed drivers, the resident service and its dialed workers'
// rebalance salts — takes its two seeds from here.
func PairSeeds(seed uint64) [2]uint64 {
	return [2]uint64{seed ^ 0x0111, seed ^ 0x0222}
}

// RunOPIMC executes the OPIM-C stopping rule over the engine for a
// (1 − 1/e − ε)-approximation with probability at least 1 − δ.
func RunOPIMC(e DualEngine, n, k int, eps, delta float64) (*OPIMResult, error) {
	plan, err := PlanOPIMC(n, k, eps, delta)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	target := 1 - 1/math.E - eps

	res := &OPIMResult{}
	theta := plan.Theta0
	for round := 1; ; round++ {
		res.Rounds = round
		if err := e.Generate(theta); err != nil {
			return nil, fmt.Errorf("imm: opim-c sampling round %d: %w", round, err)
		}
		sel, err := e.SelectK(k)
		if err != nil {
			return nil, fmt.Errorf("imm: opim-c selection round %d: %w", round, err)
		}
		cov2, err := e.CoverageOn2(sel.Seeds)
		if err != nil {
			return nil, fmt.Errorf("imm: opim-c evaluation round %d: %w", round, err)
		}
		cert := CertifyOPIM(n, e.Count(), sel.Coverage, cov2, plan.A)
		if cert.Ratio >= target || theta >= plan.ThetaMax {
			res.Seeds = sel.Seeds
			res.Theta = e.Count()
			res.SpreadLower = cert.SpreadLower
			res.OptUpper = cert.OptUpper
			res.Ratio = cert.Ratio
			res.EstSpread = float64(n) * float64(cov2) / float64(e.Count())
			res.Elapsed = time.Since(start)
			return res, nil
		}
		theta *= 2
		if theta > plan.ThetaMax {
			theta = plan.ThetaMax
		}
	}
}

// LocalDualEngine keeps both OPIM-C collections in one process.
type LocalDualEngine struct {
	r1 *LocalEngine
	r2 *LocalEngine
}

// NewLocalDualEngine builds the sequential OPIM-C engine; the two
// collections sample the independent streams PairSeeds(seed).
func NewLocalDualEngine(g *graph.Graph, model diffusion.Model, subset bool, seed uint64) (*LocalDualEngine, error) {
	var pair [2]*LocalEngine
	for j, s := range PairSeeds(seed) {
		var err error
		if pair[j], err = NewLocalEngine(g, model, subset, s); err != nil {
			return nil, err
		}
	}
	return &LocalDualEngine{r1: pair[0], r2: pair[1]}, nil
}

// Generate implements DualEngine.
func (e *LocalDualEngine) Generate(target int64) error {
	if err := e.r1.Generate(target); err != nil {
		return err
	}
	return e.r2.Generate(target)
}

// Count implements DualEngine.
func (e *LocalDualEngine) Count() int64 { return e.r1.Count() }

// SelectK implements DualEngine.
func (e *LocalDualEngine) SelectK(k int) (*coverage.Result, error) { return e.r1.SelectK(k) }

// Release frees both engines' RR sets now.
func (e *LocalDualEngine) Release() {
	e.r1.Release()
	e.r2.Release()
}

// CoverageOn2 implements DualEngine.
func (e *LocalDualEngine) CoverageOn2(seeds []uint32) (int64, error) {
	return coverage.CoverageOf(e.r2.Collection(), seeds), nil
}
