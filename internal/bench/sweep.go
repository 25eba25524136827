package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dimm/internal/graph"
)

// SweepOptions configures the sweep runner: one declarative parameter
// grid regenerates BENCH_RRGEN.json and BENCH_OOC.json in the envelope
// schema and (optionally) diffs the fresh envelopes against blessed
// baselines.
type SweepOptions struct {
	// Profile selects the parameter grid: "default" (the checked-in
	// BENCH_*.json regeneration) or "tiny" (a seconds-scale CI smoke).
	Profile string
	// Only restricts the sweep to the named benches (rrgen, ooc). Empty
	// runs both.
	Only []string
	// Repeats re-runs every bench this many times; the envelope records
	// min/mean/max of every metric over the repeats. 0 takes Config.Repeats.
	Repeats int
	// OutDir is where the BENCH_*.json envelopes land (default ".").
	OutDir string
	// Check diffs each fresh envelope against BaselineDir's copy and
	// makes the sweep fail when any regression survives the tolerance.
	Check bool
	// BaselineDir holds the blessed envelopes for Check (default OutDir).
	BaselineDir string
	// Tolerance is the timing-noise allowance for ClassTime/ClassRate
	// metrics (0.25 = 25%). Negative selects exact-only mode: timing is
	// skipped and only deterministic ClassExact metrics are compared —
	// the cross-machine CI setting. See DiffEnvelopes.
	Tolerance float64
	// Handicap > 0 deliberately inflates recorded timings by (1+h) — a
	// harness-validation hook proving the regression diff fails a slowed
	// run. Never set it when blessing baselines.
	Handicap float64
	// OOCGraph reuses an existing segmented (.dsg) file for the ooc
	// bench; empty builds a profile-sized temporary one.
	OOCGraph string
}

// sweepProfile is one named parameter grid over both benches.
type sweepProfile struct {
	name      string
	rrgen     RRGenOptions
	ooc       OOCOptions // GraphPath resolved at run time
	oocNodes  int        // temporary-graph size when OOCGraph is unset
	oocDegree float64
}

// sweepProfiles is the declarative grid. Zero option fields resolve to
// the bench defaults (each Run* applies withDefaults); only deliberate
// deviations are pinned here. The default profile is sized for a
// single-box regeneration in minutes, not the paper's testbed.
var sweepProfiles = map[string]sweepProfile{
	"default": {
		name:  "default",
		rrgen: RRGenOptions{GraphKind: "rmat", Nodes: 200_000, AvgDegree: 16, Subset: true, Count: 100_000},
		// ColdSets < 0 skips the page-cache-eviction phase: its disk-bound
		// timings are honest on a quiet box but far too noisy to gate on.
		ooc:       OOCOptions{Count: 20_000, Bs: []int{1, 64, 256}, ColdSets: -1, RSSBudget: -1},
		oocNodes:  1 << 20,
		oocDegree: 8,
	},
	"tiny": {
		name:      "tiny",
		rrgen:     RRGenOptions{GraphKind: "rmat", Nodes: 20_000, AvgDegree: 8, Subset: true, Count: 5_000, Ps: []int{1}, Bs: []int{1, 64}},
		ooc:       OOCOptions{Count: 2_000, Bs: []int{1, 64}, ColdSets: -1, RSSBudget: -1},
		oocNodes:  1 << 15,
		oocDegree: 6,
	},
}

// sweepBench is one bench of the grid: its canonical output file and a
// runner that executes one repeat and records its metrics.
type sweepBench struct {
	name string
	file string
	run  func(c Config, p sweepProfile, eb *envelopeBuilder) (any, error)
}

// sweepBenches lists every bench the sweep covers, in run order.
var sweepBenches = []sweepBench{
	{"rrgen", "BENCH_RRGEN.json", runSweepRRGen},
	{"ooc", "BENCH_OOC.json", runSweepOOC},
}

// Sweep regenerates BENCH_RRGEN.json and BENCH_OOC.json through the
// profile's grid, repeating each bench Repeats times and recording
// min/mean/max per metric. With Check set it then diffs each envelope
// against the blessed baseline and returns an error naming every
// regression — the caller (cmd/experiments, CI) turns that into a
// nonzero exit.
func (c Config) Sweep(o SweepOptions) error {
	if o.Profile == "" {
		o.Profile = "default"
	}
	profile, ok := sweepProfiles[o.Profile]
	if !ok {
		return fmt.Errorf("bench: unknown sweep profile %q (want default|tiny)", o.Profile)
	}
	if o.OutDir == "" {
		o.OutDir = "."
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return fmt.Errorf("bench: sweep: %w", err)
	}
	if o.BaselineDir == "" {
		o.BaselineDir = o.OutDir
	}
	repeats := o.Repeats
	if repeats == 0 {
		repeats = c.Repeats
	}
	if repeats < 1 {
		repeats = 1
	}

	want := map[string]bool{}
	for _, name := range o.Only {
		known := false
		for _, b := range sweepBenches {
			known = known || b.name == name
		}
		if !known {
			return fmt.Errorf("bench: unknown sweep bench %q", name)
		}
		want[name] = true
	}
	selected := make([]sweepBench, 0, len(sweepBenches))
	for _, b := range sweepBenches {
		if len(want) == 0 || want[b.name] {
			selected = append(selected, b)
		}
	}

	// The ooc bench needs a segmented graph file on disk. Build one
	// per-profile temporary unless the caller supplied a path; building
	// it once outside the repeat loop keeps setup out of the envelope.
	needOOC := false
	for _, b := range selected {
		needOOC = needOOC || b.name == "ooc"
	}
	profile.ooc.GraphPath = o.OOCGraph
	if needOOC && o.OOCGraph == "" {
		path, cleanup, err := buildSweepOOCGraph(profile, c.Seed)
		if err != nil {
			return err
		}
		defer cleanup()
		profile.ooc.GraphPath = path
	}

	c.printf("== sweep: profile=%s repeats=%d out=%s", profile.name, repeats, o.OutDir)
	if o.Check {
		c.printf(" check-against=%s tolerance=%g", o.BaselineDir, o.Tolerance)
	}
	if o.Handicap > 0 {
		c.printf(" HANDICAP=%g (validation run — do not bless)", o.Handicap)
	}
	c.printf(" ==\n")

	var regressions []Regression
	for _, b := range selected {
		eb := newEnvelopeBuilder(b.name, profile.name, sweepParams(b.name, profile, o), o.Handicap)
		var report any
		start := time.Now()
		for rep := 0; rep < repeats; rep++ {
			var err error
			if report, err = b.run(c, profile, eb); err != nil {
				return fmt.Errorf("bench: sweep %s repeat %d: %w", b.name, rep+1, err)
			}
		}
		env, err := eb.finish(repeats, report)
		if err != nil {
			return fmt.Errorf("bench: sweep %s: %w", b.name, err)
		}
		outPath := filepath.Join(o.OutDir, b.file)
		if err := env.WriteJSON(outPath); err != nil {
			return fmt.Errorf("bench: sweep %s: %w", b.name, err)
		}
		c.printf("%-8s %d metric(s), %d repeat(s) in %s -> %s\n",
			b.name, len(env.Metrics), repeats, fmtDur(time.Since(start)), outPath)

		if o.Check {
			base, err := ReadEnvelope(filepath.Join(o.BaselineDir, b.file))
			if err != nil {
				return fmt.Errorf("bench: sweep %s: reading baseline: %w", b.name, err)
			}
			regs := DiffEnvelopes(base, env, o.Tolerance)
			for _, r := range regs {
				c.printf("REGRESSION %s\n", r)
			}
			regressions = append(regressions, regs...)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench: sweep found %d regression(s) against %s", len(regressions), o.BaselineDir)
	}
	if o.Check {
		c.printf("sweep: no regressions against %s\n", o.BaselineDir)
	}
	return nil
}

// sweepParams records the profile's pinned parameters for the envelope.
// The embedded raw report carries the fully resolved options; this map
// is the at-a-glance view.
func sweepParams(bench string, p sweepProfile, o SweepOptions) map[string]any {
	switch bench {
	case "rrgen":
		return map[string]any{"graph": p.rrgen.GraphKind, "nodes": p.rrgen.Nodes,
			"avg_degree": p.rrgen.AvgDegree, "subset": p.rrgen.Subset, "count": p.rrgen.Count}
	case "ooc":
		params := map[string]any{"count": p.ooc.Count, "cold_sets": p.ooc.ColdSets}
		if o.OOCGraph != "" {
			params["graph"] = o.OOCGraph
		} else {
			// A temporary path would differ every run: record the
			// generator parameters that reproduce the graph instead.
			params["graph"] = "rmat"
			params["nodes"] = p.oocNodes
			params["avg_degree"] = p.oocDegree
		}
		return params
	}
	return nil
}

// buildSweepOOCGraph materializes a profile-sized RMAT graph as a
// temporary segmented file for the ooc bench.
func buildSweepOOCGraph(p sweepProfile, seed uint64) (string, func(), error) {
	g, err := graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{
		Nodes: p.oocNodes, AvgDegree: p.oocDegree, Seed: seed,
	}})
	if err != nil {
		return "", nil, err
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "dimm-sweep-ooc-*")
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "sweep.dsg")
	if err := graph.WriteSegmentedFile(path, g, "wc"); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return path, func() { os.RemoveAll(dir) }, nil
}

// ---- per-bench runners -------------------------------------------------
//
// Each runner executes one repeat with the profile's options and records
// the metrics the regression differ gates on. Exact-class metrics must
// be deterministic functions of the seed (they are compared bitwise,
// cross-machine); timing classes are same-host only.

func runSweepRRGen(c Config, p sweepProfile, eb *envelopeBuilder) (any, error) {
	opt := p.rrgen
	opt.Seed = c.Seed
	rep, err := RunRRGen(opt)
	if err != nil {
		return nil, err
	}
	for _, r := range rep.Results {
		if r.Skipped {
			continue
		}
		pre := fmt.Sprintf("p%d.b%d.", r.Parallelism, r.Batch)
		eb.observe(pre+"sets_per_sec", ClassRate, "sets/s", r.SetsPerSec)
		eb.observe(pre+"alloc_bytes_per_set", ClassInfo, "B/set", r.AllocBytesPerSet)
		eb.observe(pre+"sets", ClassExact, "sets", float64(r.Sets))
		eb.observe(pre+"total_size", ClassExact, "nodes", float64(r.TotalSize))
		eb.observe(pre+"probes", ClassExact, "edges", float64(r.Probes))
	}
	return rep, nil
}

func runSweepOOC(c Config, p sweepProfile, eb *envelopeBuilder) (any, error) {
	opt := p.ooc
	opt.Seed = c.Seed
	rep, err := RunOOC(opt)
	if err != nil {
		return nil, err
	}
	eb.observeBool("digests_match", ClassExact, rep.DigestsMatch)
	for _, b := range rep.Backends {
		pre := b.Backend + "."
		eb.observe(pre+"open_s", ClassTime, "s", b.OpenSeconds)
		eb.observe(pre+"peak_rss_bytes", ClassInfo, "B", float64(b.PeakRSS))
		for _, lv := range b.Levels {
			lp := fmt.Sprintf("%sb%d.", pre, lv.Batch)
			eb.observe(lp+"sets_per_sec", ClassRate, "sets/s", lv.SetsPerSec)
			eb.observe(lp+"sets", ClassExact, "sets", float64(lv.Sets))
			eb.observe(lp+"total_size", ClassExact, "nodes", float64(lv.TotalSize))
		}
	}
	return rep, nil
}
