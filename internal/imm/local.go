package imm

import (
	"fmt"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
)

// LocalEngine is the single-machine engine: the vanilla IMM baseline the
// paper compares DIIMM against (ℓ = 1 in Figs. 5–9), and — with Subset
// enabled — the sequential SUBSIM baseline of Fig. 7.
type LocalEngine struct {
	g       *graph.Graph
	sampler *rrset.Sampler
	coll    *rrset.Collection

	// GenTime accumulates pure RR-generation wall time, mirroring the
	// breakdown that the cluster metrics report.
	GenTime time.Duration
}

// NewLocalEngine builds a sequential engine over g.
func NewLocalEngine(g *graph.Graph, model diffusion.Model, subset bool, seed uint64) (*LocalEngine, error) {
	s, err := rrset.NewSampler(g, model, seed, subset)
	if err != nil {
		return nil, err
	}
	return &LocalEngine{
		g:       g,
		sampler: s,
		coll:    rrset.NewCollection(1 << 16),
	}, nil
}

// Generate implements Engine.
func (e *LocalEngine) Generate(target int64) error {
	add := target - int64(e.coll.Count())
	if add <= 0 {
		return nil
	}
	start := time.Now()
	e.sampler.SampleManyInto(e.coll, add)
	e.GenTime += time.Since(start)
	return nil
}

// Count implements Engine.
func (e *LocalEngine) Count() int64 { return int64(e.coll.Count()) }

// SelectK implements Engine: exact greedy over all current RR sets.
func (e *LocalEngine) SelectK(k int) (*coverage.Result, error) {
	idx, err := rrset.BuildIndex(e.coll, e.g.NumNodes())
	if err != nil {
		return nil, err
	}
	defer idx.Release()
	o, err := coverage.NewLocalOracle(e.coll, idx, e.g.NumNodes())
	if err != nil {
		return nil, err
	}
	return coverage.RunGreedy(o, k)
}

// Collection exposes the RR sets for statistics (Table IV). It is valid
// until Release.
func (e *LocalEngine) Collection() *rrset.Collection { return e.coll }

// Release frees the engine's RR sets now; the engine holds none after it.
func (e *LocalEngine) Release() { e.coll.Release() }

// RunIMM is the sequential convenience entry point: vanilla IMM when
// subset is false, sequential SUBSIM-style sampling when true. The
// caller releases the returned engine.
func RunIMM(g *graph.Graph, model diffusion.Model, k int, eps, delta float64, subset bool, seed uint64) (*Result, *LocalEngine, error) {
	p, err := ComputeParams(g.NumNodes(), k, eps, delta)
	if err != nil {
		return nil, nil, err
	}
	e, err := NewLocalEngine(g, model, subset, seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(e, p)
	if err != nil {
		e.Release()
		return nil, nil, fmt.Errorf("imm: %w", err)
	}
	return res, e, nil
}
