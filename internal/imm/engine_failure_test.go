package imm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dimm/internal/coverage"
)

// failingEngine injects errors at configurable points so Run's error
// propagation is testable without a broken cluster.
type failingEngine struct {
	failGenerateAt int // fail the Nth Generate call (1-based); 0 = never
	failSelectAt   int
	genCalls       int
	selCalls       int
	count          int64
}

var errInjected = errors.New("injected fault")

func (e *failingEngine) Generate(target int64) error {
	e.genCalls++
	if e.failGenerateAt > 0 && e.genCalls >= e.failGenerateAt {
		return errInjected
	}
	if target > e.count {
		e.count = target
	}
	return nil
}

func (e *failingEngine) Count() int64 { return e.count }

func (e *failingEngine) SelectK(k int) (*coverage.Result, error) {
	e.selCalls++
	if e.failSelectAt > 0 && e.selCalls >= e.failSelectAt {
		return nil, errInjected
	}
	// A coverage large enough to trip the phase-1 stopping rule at once.
	seeds := make([]uint32, k)
	for i := range seeds {
		seeds[i] = uint32(i)
	}
	return &coverage.Result{Seeds: seeds, Coverage: e.count}, nil
}

func mustParams(t *testing.T) Params {
	t.Helper()
	p, err := ComputeParams(1024, 3, 0.3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPropagatesGenerateError(t *testing.T) {
	e := &failingEngine{failGenerateAt: 1}
	_, err := Run(e, mustParams(t))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("generate fault not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "sampling") {
		t.Fatalf("error lacks phase context: %v", err)
	}
}

func TestRunPropagatesSelectError(t *testing.T) {
	e := &failingEngine{failSelectAt: 1}
	_, err := Run(e, mustParams(t))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("select fault not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "selection") {
		t.Fatalf("error lacks phase context: %v", err)
	}
}

func TestRunPropagatesFinalPhaseErrors(t *testing.T) {
	// Fail at the second Generate (the phase-2 top-up).
	e := &failingEngine{failGenerateAt: 2}
	_, err := Run(e, mustParams(t))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("final-phase generate fault not propagated: %v", err)
	}
	// Fail at the second SelectK (the final selection).
	e2 := &failingEngine{failSelectAt: 2}
	_, err = Run(e2, mustParams(t))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("final selection fault not propagated: %v", err)
	}
}

func TestRunStopsEarlyWithFullCoverage(t *testing.T) {
	// The stub covers every RR set, so the phase-1 bound trips in the
	// first iteration and the run finishes with one round.
	e := &failingEngine{}
	res, err := Run(e, mustParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("full-coverage stub took %d rounds, want 1", res.Rounds)
	}
	if res.FracCovered != 1 {
		t.Fatalf("covered fraction %v, want 1", res.FracCovered)
	}
}

// fracEngine covers a fixed fraction of whatever it holds and counts its
// SelectK calls.
type fracEngine struct {
	frac     float64
	count    int64
	selCalls int
}

func (e *fracEngine) Generate(target int64) error {
	e.count = max(e.count, target)
	return nil
}

func (e *fracEngine) Count() int64 { return e.count }

func (e *fracEngine) SelectK(k int) (*coverage.Result, error) {
	e.selCalls++
	return &coverage.Result{Seeds: []uint32{uint32(e.selCalls)}, Coverage: int64(math.Ceil(e.frac * float64(e.count)))}, nil
}

// TestRunSkipsFinalSelectionOnUnchangedSample: when phase 2 adds no RR
// sets, the final selection is phase 1's last one (the same greedy over
// the same sample), so SelectK runs once per phase-1 round and no more.
// The DIIMM LT setting (k = 200, ε = 0.1, covered fraction ≈ 0.54) is
// such a case; when phase 2 does grow the sample, the final SelectK runs.
func TestRunSkipsFinalSelectionOnUnchangedSample(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, k       int
		eps, frac  float64
		skipsFinal bool
	}{
		{"phase 2 adds nothing", 1 << 18, 200, 0.1, 0.54, true},
		{"phase 2 grows the sample", 1024, 3, 0.3, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ComputeParams(tc.n, tc.k, tc.eps, 1/float64(tc.n))
			if err != nil {
				t.Fatal(err)
			}
			e := &fracEngine{frac: tc.frac}
			res, err := Run(e, p)
			if err != nil {
				t.Fatal(err)
			}
			grew := res.Theta > p.ThetaAt(res.Rounds)
			if grew == tc.skipsFinal {
				t.Fatalf("final θ %d against phase-1 θ %d: the case does not test what it claims", res.Theta, p.ThetaAt(res.Rounds))
			}
			want := res.Rounds + 1
			if tc.skipsFinal {
				want = res.Rounds
			}
			if e.selCalls != want {
				t.Fatalf("%d SelectK calls over %d rounds, want %d", e.selCalls, res.Rounds, want)
			}
			if res.Seeds[0] != uint32(e.selCalls) {
				t.Fatalf("result carries selection %d, want the last one (%d)", res.Seeds[0], e.selCalls)
			}
		})
	}
}
