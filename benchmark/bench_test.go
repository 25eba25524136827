package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"dimm/internal/imm"
	"dimm/internal/serve"
)

func tinyConfig(t *testing.T, dir, workload string, seed uint64, traced bool) runConfig {
	t.Helper()
	return runConfig{
		workload: workload, seed: seed, seconds: 1, trace: traced, scale: "tiny",
		outDir: filepath.Join(dir, "out"), cacheDir: filepath.Join(dir, "prep"),
	}
}

// TestWorkloadsEmitTheDeclaredMetrics runs every workload at tiny scale,
// untraced and traced, and checks that what it prints is exactly what
// BENCHMARK.json declares (through spec.go), that every output check
// passes, and that the DIIMM traces attribute the root span to named
// children.
func TestWorkloadsEmitTheDeclaredMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		if raceDetector && w.Name == "serve_update" {
			// internal/serve has a data race of its own on this path:
			// noteAgreement reads Service.sk without sketchMu while
			// Update's rebuildSketch replaces it (found by this benchmark,
			// outside what a benchmark-only change may fix). The detector
			// fails the whole binary on it, so the workload sits out -race.
			t.Log("serve_update skipped under -race: known data race in internal/serve (noteAgreement vs rebuildSketch)")
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, dir, w.Name, 1, traced)
			res, err := runWorkload(cfg, scales["tiny"])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.Name, traced, s.Name)
					continue
				}
				if m.Unit != s.Unit {
					t.Errorf("%s: unit %q emitted, %q declared", s.Name, m.Unit, s.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, s.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, m.Value)
				}
			}
			if traced && (w.Name == "diimm_ic" || w.Name == "diimm_lt_tcp") {
				if c := res.Metrics["core.child_coverage"].Value; c < 0.95 {
					t.Errorf("%s: named child spans cover %.3f of the DIIMM root span, want >= 0.95", w.Name, c)
				}
			}
		}
	}
}

// TestChecksFireOnCorruptedAnswers corrupts correct answers one way at
// a time and expects the output checks to object to each.
func TestChecksFireOnCorruptedAnswers(t *testing.T) {
	const n = 1000
	params, err := imm.ComputeParams(n, 3, 0.3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	good := imm.Result{Seeds: []uint32{1, 2, 3}, Theta: params.FinalTheta(50), LowerBound: 50, EstSpread: 100}
	if bad := checkDIIMM(&good, params, n, 100, 1); len(bad) != 0 {
		t.Fatalf("clean DIIMM answer rejected: %v", bad)
	}
	corruptions := map[string]func(r *imm.Result){
		"duplicate seed":    func(r *imm.Result) { r.Seeds = []uint32{1, 2, 2} },
		"seed out of range": func(r *imm.Result) { r.Seeds = []uint32{1, 2, n} },
		"too few seeds":     func(r *imm.Result) { r.Seeds = []uint32{1, 2} },
		"theta below bound": func(r *imm.Result) { r.Theta = params.FinalTheta(50) - 1 },
		"spread far off":    func(r *imm.Result) { r.EstSpread = 150 },
	}
	for name, corrupt := range corruptions {
		r := good
		corrupt(&r)
		if bad := checkDIIMM(&r, params, n, 100, 1); len(bad) == 0 {
			t.Errorf("DIIMM check did not fire on: %s", name)
		}
	}

	ans := serve.Answer{K: 3, Eps: 0.2, Seeds: []uint32{4, 5, 6}, Theta: 1000, Ratio: 0.5}
	if bad := checkAnswer(&ans, 3, 0.2, n, 5000); bad != "" {
		t.Fatalf("clean served answer rejected: %s", bad)
	}
	served := map[string]func(a *serve.Answer){
		"duplicate seed":    func(a *serve.Answer) { a.Seeds = []uint32{4, 4, 6} },
		"seed out of range": func(a *serve.Answer) { a.Seeds = []uint32{4, 5, n + 7} },
		"wrong k":           func(a *serve.Answer) { a.Seeds = []uint32{4, 5} },
		"uncertified":       func(a *serve.Answer) { a.Ratio = 0.3 },
		"grew after set-up": func(a *serve.Answer) { a.GrowRounds = 1 },
	}
	for name, corrupt := range served {
		a := ans
		corrupt(&a)
		if bad := checkAnswer(&a, 3, 0.2, n, 5000); bad == "" {
			t.Errorf("serving check did not fire on: %s", name)
		}
	}
	// At the planned cap an uncertified ratio is the best the sample can do.
	capped := ans
	capped.Ratio, capped.Theta = 0.3, 5000
	if bad := checkAnswer(&capped, 3, 0.2, n, 5000); bad != "" {
		t.Errorf("answer at the theta cap rejected: %s", bad)
	}
}

// TestGateMustGate slows every RPC of diimm_lt_tcp by 1 ms from the
// benchmark side and expects the comparison to call p50_ms worse: the
// workload that exists to expose the wire does expose it.
func TestGateMustGate(t *testing.T) {
	dir := t.TempDir()
	side := func(shape time.Duration) []float64 {
		var vals []float64
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := tinyConfig(t, dir, "diimm_lt_tcp", seed, false)
			cfg.shapeRPC = shape
			res, err := runWorkload(cfg, scales["tiny"])
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, res.Metrics["p50_ms"].Value)
		}
		return vals
	}
	spec := endToEnd[1]
	if spec.Name != "p50_ms" {
		t.Fatalf("endToEnd[1] is %s, want p50_ms", spec.Name)
	}
	row := judge(spec, side(0), side(time.Millisecond))
	if row.Verdict != verdictWorse {
		t.Errorf("1 ms per RPC on diimm_lt_tcp judged %q (delta %+.1f%%, spread %.1f%%), want worse", row.Verdict, 100*row.Delta, 100*row.Spread)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{101, 100, 99, 100, 101}, verdictUnchanged},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{"more throughput", higher, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{"noisy and close", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 104}, verdictUnresolved},
		{"noisy but far", lower, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, verdictWorse},
		{"one run a side", lower, []float64{100}, []float64{100}, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1, 2] = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

func TestTraceSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRun, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: spanGenerate, StartNS: 0, EndNS: 60},
		{ID: 3, Parent: 1, Name: spanGreedy, StartNS: 60, EndNS: 98},
		{ID: 4, Name: spanSelect, StartNS: 70, EndNS: 90},   // parent by containment: the greedy
		{ID: 5, Name: spanRPC, StartNS: 71, EndNS: 89},      // worker 0
		{ID: 6, Name: spanRPC, StartNS: 72, EndNS: 80},      // worker 1, inside worker 0's call
		{ID: 7, Name: spanClient, StartNS: 200, EndNS: 300}, // nothing contains it: a root
	}
	resolveParents(spans)
	if spans[3].Parent != 3 {
		t.Errorf("oracle select adopted by span %d, want the greedy (3)", spans[3].Parent)
	}
	if spans[4].Parent != 4 || spans[5].Parent != 4 {
		t.Errorf("RPC spans adopted by %d and %d, want the oracle select (4): RPC spans never adopt each other", spans[4].Parent, spans[5].Parent)
	}
	if spans[6].Parent != 0 {
		t.Errorf("uncontained span adopted by %d", spans[6].Parent)
	}
	sum := summarize(spans)
	if got := sum.self[spanGreedy]; got != 38-20 {
		t.Errorf("greedy self time %d, want 18", got)
	}
	if got := sum.self[spanSelect]; got != 20-18 {
		t.Errorf("select self time %d, want 2: concurrent RPC children count once", got)
	}
	if got := sum.childCover[1]; got != 0.98 {
		t.Errorf("root child coverage %v, want 0.98", got)
	}
}
