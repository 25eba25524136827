package imm

import (
	"fmt"
	"time"

	"dimm/internal/coverage"
)

// Engine abstracts where the RR sets live and how the greedy runs over
// them. The sequential baseline (LocalEngine) keeps everything in one
// process; internal/core provides a cluster-backed engine, turning this
// same driver into DIIMM (the only difference the paper claims between
// IMM and DIIMM is exactly this substitution).
type Engine interface {
	// Generate adds RR sets so the engine holds at least target in total.
	// Engines keep everything previously generated (IMM reuses samples
	// across rounds).
	Generate(target int64) error
	// Count returns the number of RR sets currently held.
	Count() int64
	// SelectK runs the (1-1/e) greedy over all current RR sets.
	SelectK(k int) (*coverage.Result, error)
}

// Result is the outcome of a sampling/selection run.
type Result struct {
	Seeds        []uint32
	Coverage     int64   // RR sets covered by Seeds
	Theta        int64   // total RR sets generated
	FracCovered  float64 // F_R(S*) of the final selection
	EstSpread    float64 // n · F_R(S*)
	LowerBound   float64 // the LB of OPT found in phase 1
	Rounds       int     // phase-1 iterations executed
	SelectTime   time.Duration
	TotalElapsed time.Duration
}

// Run executes Algorithm 2 over the engine: phase 1 doubles the sample
// size until a statistically safe lower bound of OPT emerges, phase 2
// tops the samples up to θ = λ*/LB and selects the final seed set.
func Run(e Engine, p Params) (*Result, error) {
	start := time.Now()
	res := &Result{LowerBound: 1}
	n := float64(p.N)
	// last is phase 1's final selection and lastCount the sample size it
	// saw: when phase 2 adds nothing, the final selection would be the
	// same greedy over the same sample.
	var last *coverage.Result
	var lastCount int64

	for t := 1; t <= p.MaxRounds(); t++ {
		res.Rounds = t
		x := n / pow2(t)
		if err := e.Generate(p.ThetaAt(t)); err != nil {
			return nil, fmt.Errorf("imm: sampling round %d: %w", t, err)
		}
		selStart := time.Now()
		sel, err := e.SelectK(p.K)
		if err != nil {
			return nil, fmt.Errorf("imm: selection round %d: %w", t, err)
		}
		res.SelectTime += time.Since(selStart)
		last, lastCount = sel, e.Count()
		frac := float64(sel.Coverage) / float64(lastCount)
		if n*frac >= (1+p.EpsPrime)*x {
			res.LowerBound = n * frac / (1 + p.EpsPrime)
			break
		}
	}

	if err := e.Generate(p.FinalTheta(res.LowerBound)); err != nil {
		return nil, fmt.Errorf("imm: final sampling: %w", err)
	}
	sel := last
	if sel == nil || e.Count() != lastCount {
		selStart := time.Now()
		var err error
		if sel, err = e.SelectK(p.K); err != nil {
			return nil, fmt.Errorf("imm: final selection: %w", err)
		}
		res.SelectTime += time.Since(selStart)
	}
	res.Seeds = sel.Seeds
	res.Coverage = sel.Coverage
	res.Theta = e.Count()
	res.FracCovered = float64(sel.Coverage) / float64(res.Theta)
	res.EstSpread = n * res.FracCovered
	res.TotalElapsed = time.Since(start)
	return res, nil
}

func pow2(t int) float64 {
	return float64(int64(1) << uint(t))
}
