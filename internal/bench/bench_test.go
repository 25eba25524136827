package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dimm/internal/workload"
)

// quickConfig returns a configuration small enough for unit tests: one
// dataset at the tiny scale, loose epsilon, short sweeps.
func quickConfig(buf *bytes.Buffer) Config {
	return Config{
		Out:          buf,
		Scale:        workload.ScaleTiny,
		K:            5,
		Eps:          0.5,
		Seed:         1,
		ClusterSizes: []int{1, 2},
		CoreCounts:   []int{1, 2},
		Datasets:     []string{"facebook-sim"},
	}.WithDefaults()
}

func TestTableIII(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	if err := cfg.TableIII(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "facebook-sim") || !strings.Contains(out, "Undirected") {
		t.Fatalf("Table III output missing expected rows:\n%s", out)
	}
}

func TestTableIV(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	rows, err := cfg.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Theta <= 0 || rows[0].TotalSize < rows[0].Theta {
		t.Fatalf("implausible Table IV rows: %+v", rows)
	}
}

func TestFig6Shape(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	rows, err := cfg.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows (ℓ=1,2), got %d", len(rows))
	}
	// ℓ=2 must share the generation work. Corollary 1 is a claim about
	// balanced work, so assert it on the machines' RR-set volume, which
	// no scheduler can move: timing "speedup" on a box with fewer idle
	// cores than machines is ≤ 1 by construction.
	if rows[0].MaxShare != 1 {
		t.Fatalf("ℓ=1 holds %.3f of its own sample", rows[0].MaxShare)
	}
	if rows[1].MaxShare > 0.5+0.05 {
		t.Fatalf("ℓ=2 left %.3f of the RR volume on one machine, want about 1/2", rows[1].MaxShare)
	}
}

func TestFig5TCP(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	rows, err := cfg.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Bytes == 0 || r.Theta == 0 {
			t.Fatalf("TCP row not populated: %+v", r)
		}
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	rows, err := cfg.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Lemma 2: NEWGREEDI equals the sequential greedy at every ℓ.
		if r.NGCoverage != r.SeqCoverage {
			t.Fatalf("NEWGREEDI coverage %d != sequential %d at ℓ=%d", r.NGCoverage, r.SeqCoverage, r.Cores)
		}
		if r.CoverageRatio() > 1.0000001 {
			t.Fatalf("GREEDI ratio %v above 1", r.CoverageRatio())
		}
	}
	if strings.Contains(buf.String(), "!!") {
		t.Fatalf("harness flagged a Lemma 2 violation:\n%s", buf.String())
	}
}

func TestFig5WithShapedLinks(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	cfg.LinkRTT = 500 * time.Microsecond
	cfg.LinkBandwidth = 1e9 / 8
	rows, err := cfg.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Shaping adds to each round's measured communication time the RTT
	// plus the round's bytes over the link: every row's comm is at least
	// that modeled floor, whatever the measured share. (Each round's
	// transfer time truncates to whole nanoseconds, hence the slack of
	// one per round.)
	for _, r := range rows {
		if r.Rounds == 0 || r.Bytes == 0 {
			t.Fatalf("shaped run reported no rounds or traffic: %+v", r)
		}
		floor := time.Duration(r.Rounds)*(cfg.LinkRTT-1) +
			time.Duration(float64(r.Bytes)/cfg.LinkBandwidth*float64(time.Second))
		if r.Comm < floor {
			t.Fatalf("ℓ=%d: shaped comm %v below the modeled floor %v (%d rounds, %d B)",
				r.Machines, r.Comm, floor, r.Rounds, r.Bytes)
		}
	}
	// And it must not change the algorithmic outcome vs unshaped.
	var buf2 bytes.Buffer
	plain := quickConfig(&buf2)
	rows2, err := plain.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].Theta != rows2[i].Theta {
			t.Fatalf("link shaping changed theta: %d vs %d", rows[i].Theta, rows2[i].Theta)
		}
	}
}

func TestFig7Subset(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(&buf)
	rows, err := cfg.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Theta == 0 {
		t.Fatalf("Fig 7 rows wrong: %+v", rows)
	}
}

func TestReportSmoke(t *testing.T) {
	var md bytes.Buffer
	cfg := quickConfig(&bytes.Buffer{})
	if err := cfg.Report(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"# EXPERIMENTS", "Table III", "Table IV",
		"Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
		"Shape verdicts", "NEWGREEDI exactness",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}
	// The exactness verdict must PASS on every run — it is Lemma 2.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "NEWGREEDI exactness") && !strings.Contains(line, "[PASS]") {
			t.Fatalf("Lemma 2 verdict not PASS: %s", line)
		}
		if strings.Contains(line, "Table II GREEDI bound") && !strings.Contains(line, "[PASS]") {
			t.Fatalf("Table II bound verdict not PASS: %s", line)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := []struct {
		v    int64
		want string
	}{{5, "5"}, {1500, "1.5K"}, {2_500_000, "2.5M"}, {3_000_000_000, "3.0G"}}
	for _, c := range cases {
		if got := fmtCount(c.v); got != c.want {
			t.Fatalf("fmtCount(%d) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestConfigDefaultsAndFilters(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Out: &buf}.WithDefaults()
	if cfg.K != 50 || cfg.Eps != 0.3 || len(cfg.CoreCounts) == 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if got := len(cfg.specs()); got != 4 {
		t.Fatalf("default datasets = %d, want 4", got)
	}
	cfg.Datasets = []string{"twitter-sim"}
	if got := cfg.specs(); len(got) != 1 || got[0].Name != "twitter-sim" {
		t.Fatalf("filtering failed: %+v", got)
	}
}
