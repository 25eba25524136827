package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
)

// RRGenOptions configures the RR-set generation throughput sweep.
type RRGenOptions struct {
	GraphKind string  // "pref" (default), "rmat" (heavier skew, larger cache footprint), or a graph file path (graph.LoadAny, stored weights)
	Nodes     int     // synthetic graph size (default 50_000)
	AvgDegree float64 // synthetic graph average degree (default 10)
	Model     diffusion.Model
	Subset    bool // SUBSIM subset sampling
	Seed      uint64
	Count     int64 // RR sets generated per sweep level (default 200_000)
	Ps        []int // parallelism sweep (default 1,2,4,8)
	Bs        []int // frontier-batch width sweep (default 1,8,64,256)
}

func (o RRGenOptions) withDefaults() RRGenOptions {
	if o.GraphKind == "" {
		o.GraphKind = "pref"
	}
	if o.Nodes == 0 {
		o.Nodes = 50_000
	}
	if o.AvgDegree == 0 {
		o.AvgDegree = 10
	}
	if o.Seed == 0 {
		o.Seed = 20220501
	}
	if o.Count == 0 {
		o.Count = 200_000
	}
	if len(o.Ps) == 0 {
		o.Ps = []int{1, 2, 4, 8}
	}
	if len(o.Bs) == 0 {
		o.Bs = []int{1, 8, 64, 256}
	}
	return o
}

// RRGenResult is one (parallelism, batch-width) level of the sweep.
type RRGenResult struct {
	Parallelism      int     `json:"parallelism"`
	Batch            int     `json:"batch"`
	Sets             int64   `json:"sets"`
	TotalSize        int64   `json:"total_size"`
	Probes           int64   `json:"probes"`
	Seconds          float64 `json:"seconds"`
	SetsPerSec       float64 `json:"sets_per_sec"`
	ProbesPerSec     float64 `json:"probes_per_sec"`
	AllocBytesPerSet float64 `json:"alloc_bytes_per_set"`
	SpeedupVsP1      float64 `json:"speedup_vs_p1"`
	// SpeedupVsB1 compares against the scalar kernel at the same
	// parallelism: the frontier-batching win in isolation.
	SpeedupVsB1 float64 `json:"speedup_vs_b1"`
	// Skipped marks levels the box cannot honestly measure: running P
	// goroutines on fewer than P CPUs time-slices the shards and reports
	// a meaningless (often sub-1×) "speedup".
	Skipped bool   `json:"skipped,omitempty"`
	Warning string `json:"warning,omitempty"`
}

// RRGenReport is the machine-readable record written to BENCH_RRGEN.json
// so future changes can track the RR-generation perf trajectory. The
// GOMAXPROCS/NumCPU fields matter for interpretation: parallel speedup
// requires idle cores, and a 1-core box shows ≈1× at every P. Batched
// speedup (SpeedupVsB1) needs no idle cores — it is a locality win — so
// it is meaningful even on a 1-core box.
type RRGenReport struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GraphKind  string        `json:"graph_kind"`
	Nodes      int           `json:"nodes"`
	Edges      int64         `json:"edges"`
	Model      string        `json:"model"`
	Subset     bool          `json:"subset"`
	Seed       uint64        `json:"seed"`
	Count      int64         `json:"count"`
	Results    []RRGenResult `json:"results"`
}

// rrgenGraph builds the sweep's graph: a synthetic kind under
// weighted-cascade weights, or — any other GraphKind — a graph file with
// the probabilities stored in it (e.g. the repository benchmark's own
// .dsg, so a profile is of its graph).
func rrgenGraph(opt RRGenOptions) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	switch opt.GraphKind {
	case "pref":
		g, err = graph.GenPreferential(graph.GenConfig{
			Nodes: opt.Nodes, AvgDegree: opt.AvgDegree, Seed: opt.Seed, UniformAttach: 0.15,
		})
	case "rmat":
		g, err = graph.GenRMAT(graph.RMATConfig{GenConfig: graph.GenConfig{
			Nodes: opt.Nodes, AvgDegree: opt.AvgDegree, Seed: opt.Seed,
		}})
	default:
		g, err = graph.LoadAny(opt.GraphKind, graph.LoadOptions{Weights: "file"})
		if err != nil {
			return nil, fmt.Errorf("bench: rrgen graph %q is neither a kind (pref|rmat) nor a loadable graph file: %w", opt.GraphKind, err)
		}
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	return graph.AssignWeights(g, graph.WeightedCascade, 0, 0)
}

// RunRRGen measures sharded RR-set generation throughput across the
// parallelism × batch-width sweep on one graph (see rrgenGraph). Every
// level uses the same worker seed (the sampled sets are identical at
// every level by the batch-invariance guarantee); collections are fresh
// per level. Each level runs a full untimed Count-set warmup pass first,
// so the timed window — and the alloc-per-set figure — measures the
// steady state of the arenas, not their growth.
func RunRRGen(opt RRGenOptions) (*RRGenReport, error) {
	opt = opt.withDefaults()
	g, err := rrgenGraph(opt)
	if err != nil {
		return nil, err
	}
	rep := &RRGenReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GraphKind:  opt.GraphKind,
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Model:      opt.Model.String(),
		Subset:     opt.Subset,
		Seed:       opt.Seed,
		Count:      opt.Count,
	}
	find := func(p, b int) *RRGenResult {
		for i := range rep.Results {
			r := &rep.Results[i]
			if r.Parallelism == p && r.Batch == b && !r.Skipped {
				return r
			}
		}
		return nil
	}
	for _, p := range opt.Ps {
		for _, bw := range opt.Bs {
			if p > rep.NumCPU {
				rep.Results = append(rep.Results, RRGenResult{
					Parallelism: p,
					Batch:       bw,
					Skipped:     true,
					Warning: fmt.Sprintf("parallelism %d exceeds the box's %d CPU(s); a timed run would report time-slicing, not speedup",
						p, rep.NumCPU),
				})
				continue
			}
			s, err := rrset.NewShardedSamplerBatch(g, opt.Model, opt.Seed, opt.Subset, p, bw)
			if err != nil {
				return nil, err
			}
			coll := rrset.NewCollection(1 << 16)
			// Full warmup: generate Count sets, then reset. This grows the
			// collection arena, the lane scratch and the visited tables to
			// their steady-state capacity outside the timed window.
			s.SampleManyInto(coll, opt.Count)
			coll.Reset()
			var msBefore, msAfter runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			s.SampleManyInto(coll, opt.Count)
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&msAfter)
			res := RRGenResult{
				Parallelism:      p,
				Batch:            bw,
				Sets:             int64(coll.Count()),
				TotalSize:        coll.TotalSize(),
				Probes:           coll.EdgesExamined(),
				Seconds:          secs,
				SetsPerSec:       float64(coll.Count()) / secs,
				ProbesPerSec:     float64(coll.EdgesExamined()) / secs,
				AllocBytesPerSet: float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(coll.Count()),
			}
			if rep.GOMAXPROCS < p {
				res.Warning = fmt.Sprintf("GOMAXPROCS=%d caps the %d shards; speedup is bounded by the smaller", rep.GOMAXPROCS, p)
			}
			if base := find(1, bw); base != nil {
				res.SpeedupVsP1 = res.SetsPerSec / base.SetsPerSec
			} else if p == 1 {
				res.SpeedupVsP1 = 1
			}
			if base := find(p, 1); base != nil {
				res.SpeedupVsB1 = res.SetsPerSec / base.SetsPerSec
			} else if bw == 1 {
				res.SpeedupVsB1 = 1
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// WriteJSON writes the report, indented, to path.
func (r *RRGenReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// RRGen runs the throughput sweep, prints a table, and — when jsonPath
// is non-empty — records the report machine-readably (BENCH_RRGEN.json).
// Zero option fields take the sweep defaults; Model defaults to IC and
// Seed to the harness seed.
func (c Config) RRGen(opt RRGenOptions, jsonPath string) (*RRGenReport, error) {
	if opt.Seed == 0 {
		opt.Seed = c.Seed
	}
	return c.rrgen(opt, jsonPath)
}

func (c Config) rrgen(opt RRGenOptions, jsonPath string) (*RRGenReport, error) {
	rep, err := RunRRGen(opt)
	if err != nil {
		return nil, err
	}
	c.printf("\n== RR-set generation throughput (sharded sampler, %s graph %d/%d, GOMAXPROCS=%d, %d CPUs) ==\n",
		rep.GraphKind, rep.Nodes, rep.Edges, rep.GOMAXPROCS, rep.NumCPU)
	c.printf("%4s %5s %12s %12s %14s %12s %8s %8s\n", "P", "B", "sets", "sets/s", "probes/s", "alloc/set", "vs P=1", "vs B=1")
	for _, r := range rep.Results {
		if r.Skipped {
			c.printf("%4d %5d %12s (%s)\n", r.Parallelism, r.Batch, "skipped", r.Warning)
			continue
		}
		c.printf("%4d %5d %12s %12.0f %14.0f %10.1fB %7.2fx %7.2fx\n",
			r.Parallelism, r.Batch, fmtCount(r.Sets), r.SetsPerSec, r.ProbesPerSec,
			r.AllocBytesPerSet, r.SpeedupVsP1, r.SpeedupVsB1)
		if r.Warning != "" {
			c.printf("     warning: %s\n", r.Warning)
		}
	}
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return nil, fmt.Errorf("bench: writing %s: %w", jsonPath, err)
		}
		c.printf("wrote %s\n", jsonPath)
	}
	return rep, nil
}
