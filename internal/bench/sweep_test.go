package bench

import (
	"io"
	"path/filepath"
	"testing"
)

// TestSweepRRGenEndToEnd drives the sweep runner through its full
// cycle on the cheaper bench at the tiny profile: generate envelopes,
// re-check against them (self-diff must pass), then prove a
// deliberately handicapped run fails the check.
func TestSweepRRGenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	c := Config{Out: io.Discard}.WithDefaults()

	gen := SweepOptions{
		Profile: "tiny",
		Only:    []string{"rrgen"},
		Repeats: 2,
		OutDir:  dir,
	}
	if err := c.Sweep(gen); err != nil {
		t.Fatalf("generate: %v", err)
	}
	env, err := ReadEnvelope(filepath.Join(dir, "BENCH_RRGEN.json"))
	if err != nil {
		t.Fatal(err)
	}
	if env.Bench != "rrgen" || env.Profile != "tiny" || env.Repeats != 2 {
		t.Fatalf("bad envelope header: %+v", env)
	}
	if len(env.Report) == 0 {
		t.Fatal("envelope missing the raw legacy report")
	}
	for _, name := range []string{"p1.b1.sets", "p1.b1.probes"} {
		m, ok := env.Metrics[name]
		if !ok || m.Class != ClassExact {
			t.Fatalf("%s missing or misclassified: %+v", name, env.Metrics)
		}
		if m.Min != m.Max || m.Min <= 0 {
			t.Fatalf("exact metric %s varied across same-seed repeats: %+v", name, m)
		}
	}
	if m, ok := env.Metrics["p1.b1.sets_per_sec"]; !ok || m.Class != ClassRate {
		t.Fatalf("p1.b1.sets_per_sec missing or misclassified: %+v", env.Metrics)
	}
	// Allocation volume is not a duration: the handicap must not touch it.
	if m := env.Metrics["p1.b1.alloc_bytes_per_set"]; m.Class != ClassInfo {
		t.Fatalf("p1.b1.alloc_bytes_per_set class %q, want info", m.Class)
	}

	// Re-run in check mode against the fresh baselines. Timing on a
	// loaded test box is noisy, so use exact-only mode — the seeded
	// bench must reproduce its exact metrics bit for bit.
	check := gen
	check.OutDir = t.TempDir()
	check.Check = true
	check.BaselineDir = dir
	check.Tolerance = -1
	if err := c.Sweep(check); err != nil {
		t.Fatalf("self-check: %v", err)
	}

	// A handicapped run must fail a timing-aware check even at a huge
	// tolerance: every time metric is 10x slower, min and mean alike.
	slow := check
	slow.OutDir = t.TempDir()
	slow.Tolerance = 0.5
	slow.Handicap = 9
	if err := c.Sweep(slow); err == nil {
		t.Fatal("handicapped sweep passed the regression check")
	}
}

func TestSweepRejectsUnknowns(t *testing.T) {
	c := Config{Out: io.Discard}.WithDefaults()
	if err := c.Sweep(SweepOptions{Profile: "nope", OutDir: t.TempDir()}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	// select was a sweep bench once; benchmark/ measures it now.
	for _, name := range []string{"bogus", "select"} {
		if err := c.Sweep(SweepOptions{Profile: "tiny", Only: []string{name}, OutDir: t.TempDir()}); err == nil {
			t.Fatalf("unknown bench %q accepted", name)
		}
	}
}

// TestSweepOOCParamsGraph: a sweep-built OOC graph is recorded by its
// generator parameters, never by its temporary path; a caller-supplied
// graph is recorded by path.
func TestSweepOOCParamsGraph(t *testing.T) {
	p := sweepProfiles["tiny"]
	built := sweepParams("ooc", p, SweepOptions{})
	if built["graph"] != "rmat" || built["nodes"] != p.oocNodes || built["avg_degree"] != p.oocDegree {
		t.Fatalf("built-graph params: %v", built)
	}
	given := sweepParams("ooc", p, SweepOptions{OOCGraph: "g.dsg"})
	if given["graph"] != "g.dsg" || given["nodes"] != nil {
		t.Fatalf("given-graph params: %v", given)
	}
}
