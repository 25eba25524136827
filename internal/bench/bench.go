// Package bench regenerates every table and figure of the paper's
// evaluation (§IV) as plain-text tables: Table III (datasets), Table IV
// (RR-set statistics), Figs. 5/8 (DIIMM over a TCP cluster, IC/LT),
// Figs. 6/9 (DIIMM on a multi-core server, IC/LT), Fig. 7 (distributed
// SUBSIM), and Fig. 10 (maximum coverage: NEWGREEDI vs GREEDI).
//
// Absolute numbers will differ from the paper's testbed; the shapes under
// test are: generation dominates and scales ~1/ℓ, communication stays an
// order of magnitude below computation, NEWGREEDI matches centralized
// greedy coverage exactly while GREEDI degrades with ℓ, LT runs faster
// than IC, and SUBSIM sampling beats plain IMM sampling.
package bench

import (
	"fmt"
	"io"
	"time"

	"dimm/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	Out          io.Writer
	Scale        workload.Scale
	K            int
	Eps          float64
	Delta        float64 // 0 ⇒ 1/n per dataset
	Seed         uint64
	ClusterSizes []int // ℓ sweep for the TCP-cluster figures (5, 8)
	CoreCounts   []int // ℓ sweep for the multi-core figures (6, 7, 9, 10)
	Datasets     []string
	MaxCoverK    int // k for Fig. 10 (defaults to K)
	// Repeats re-runs every cell. The figure tables report the fastest
	// run — the minimum is the stabler point estimate against scheduler
	// and GC noise on a shared box — which is NOT the paper's
	// average-of-10 protocol. Defaults to 1.
	Repeats int
	// Parallelism is the intra-worker RR-generation shard count passed to
	// every run (core.Options.Parallelism). The default 0 resolves to 1 —
	// sequential workers — which keeps the per-worker handler timings
	// meaningful on an oversubscribed box (see DESIGN.md); set it
	// explicitly (or to core.AutoParallelism) on hardware with idle cores.
	Parallelism int
	// Batch is the frontier-batch width of every run's sampling shards
	// (core.Options.Batch). 0 resolves to rrset.DefaultBatch; 1 forces the
	// scalar kernel. Never changes sampled sets, so measured shapes are
	// comparable across batch settings.
	Batch int
	// LinkRTT and LinkBandwidth shape the TCP-cluster figures' links
	// (Figs. 5/8) to model the paper's 1 Gbps switch instead of raw
	// loopback. Zero values leave loopback unshaped.
	LinkRTT       time.Duration
	LinkBandwidth float64 // bytes per second per direction
	Quiet         bool
}

// WithDefaults fills unset fields with the harness defaults (the paper's
// k = 50 and sweeps, at a scale tractable for one box).
func (c Config) WithDefaults() Config {
	if c.Out == nil {
		panic("bench: Config.Out must be set")
	}
	if c.Scale == 0 {
		c.Scale = workload.ScaleTiny
	}
	if c.K == 0 {
		c.K = 50
	}
	if c.Eps == 0 {
		c.Eps = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 20220501
	}
	if len(c.ClusterSizes) == 0 {
		c.ClusterSizes = []int{1, 2, 4, 8, 16}
	}
	if len(c.CoreCounts) == 0 {
		c.CoreCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.MaxCoverK == 0 {
		c.MaxCoverK = c.K
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	return c
}

// specs returns the configured datasets.
func (c Config) specs() []workload.Spec {
	all := workload.Specs(c.Scale)
	if len(c.Datasets) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, d := range c.Datasets {
		want[d] = true
	}
	var out []workload.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// fmtDur renders a duration in seconds with sensible precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtCount renders large counts with K/M/G suffixes like the paper.
func fmtCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
