package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/serve"
	"dimm/internal/xrand"
)

// UpdateOptions configures the dynamic-graph benchmark: incremental
// RR-sample repair versus discarding the sample and resampling cold, at
// several churn levels, plus query latency while an update storm runs.
type UpdateOptions struct {
	Nodes     int     // synthetic graph size (default 20_000)
	AvgDegree float64 // synthetic graph average degree (default 10)
	Model     diffusion.Model
	Seed      uint64

	Machines int     // in-process machines per RR collection (default 2)
	K        int     // query seed-set size (default 10)
	Eps      float64 // query epsilon (default 0.3)

	// ChurnLevels are the batch sizes measured, as fractions of the edge
	// count (default 0.1%, 1%, 5%). Levels apply cumulatively to one
	// service — exactly the stream a live deployment sees.
	ChurnLevels []float64

	// StormBatches update batches of StormOps edges each are applied
	// back to back while a concurrent client issues certified queries;
	// the report records the client's p50/p99 (defaults 16 and 64).
	StormBatches int
	StormOps     int
}

func (o UpdateOptions) withDefaults() UpdateOptions {
	if o.Nodes == 0 {
		o.Nodes = 20_000
	}
	if o.AvgDegree == 0 {
		o.AvgDegree = 10
	}
	if o.Seed == 0 {
		o.Seed = 20220501
	}
	if o.Machines == 0 {
		o.Machines = 2
	}
	if o.K == 0 {
		o.K = 10
	}
	if o.Eps == 0 {
		o.Eps = 0.3
	}
	if len(o.ChurnLevels) == 0 {
		o.ChurnLevels = []float64{0.001, 0.01, 0.05}
	}
	if o.StormBatches == 0 {
		o.StormBatches = 16
	}
	if o.StormOps == 0 {
		o.StormOps = 64
	}
	return o
}

// UpdateChurn records one churn level: the incremental repair on the
// live service versus resampling the same graph state cold.
type UpdateChurn struct {
	Churn        float64 `json:"churn"`
	Ops          int     `json:"ops"`
	RepairSecs   float64 `json:"repair_seconds"`
	RepairedSets int     `json:"repaired_rr_sets"`
	Remirrored   bool    `json:"remirrored"`
	Theta        int64   `json:"theta"`
	QueryRatio   float64 `json:"post_update_ratio"` // certificate ratio of the first query after the repair
	ResampleSecs float64 `json:"resample_seconds"`  // cold service on the same mutated graph, same query
	Speedup      float64 `json:"speedup"`           // ResampleSecs / RepairSecs
}

// UpdateReport is the machine-readable record written to
// BENCH_UPDATE.json. The headline figures are the per-churn Speedup
// (incremental repair over full resample) and QueryP99Ms under storm.
type UpdateReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Nodes      int     `json:"nodes"`
	Edges      int64   `json:"edges"`
	Model      string  `json:"model"`
	Seed       uint64  `json:"seed"`
	Machines   int     `json:"machines"`
	K          int     `json:"k"`
	Eps        float64 `json:"eps"`

	WarmSeconds float64 `json:"warm_seconds"`
	WarmTheta   int64   `json:"warm_theta"`

	Levels []UpdateChurn `json:"churn_levels"`

	// The storm: StormBatches×StormOps updates applied back to back
	// with a concurrent certified-query client.
	StormBatches      int     `json:"storm_batches"`
	StormOps          int     `json:"storm_ops_per_batch"`
	StormSeconds      float64 `json:"storm_seconds"`
	StormRepairedSets int     `json:"storm_repaired_rr_sets"`
	StormQueries      int     `json:"storm_queries"`
	IdleP50Ms         float64 `json:"idle_query_p50_ms"` // same client, no storm running
	IdleP99Ms         float64 `json:"idle_query_p99_ms"`
	StormP50Ms        float64 `json:"storm_query_p50_ms"`
	StormP99Ms        float64 `json:"storm_query_p99_ms"`
}

// churnOps derives one valid update batch from the graph's current
// state: ~45% removals of live edges, ~45% additions of absent edges,
// ~10% reweights, never touching the same edge twice in a batch.
func churnOps(r *xrand.Rand, g *graph.Graph, count int) []graph.EdgeUpdate {
	n := uint32(g.NumNodes())
	ops := make([]graph.EdgeUpdate, 0, count)
	claimed := make(map[[2]uint32]bool, count)

	// pickLive finds a live, unclaimed in-edge starting from a random
	// node, probing linearly so sparse nodes never stall the scan.
	pickLive := func() (u, v uint32, p float32, ok bool) {
		start := r.Uint32n(n)
		for step := uint32(0); step < n; step++ {
			v := (start + step) % n
			adj, probs := g.InNeighbors(v)
			for i, u := range adj {
				if probs[i] > 0 && !claimed[[2]uint32{u, v}] {
					return u, v, probs[i], true
				}
			}
			for _, e := range g.InOverlay(v) {
				if e.Prob > 0 && !claimed[[2]uint32{e.Node, v}] {
					return e.Node, v, e.Prob, true
				}
			}
		}
		return 0, 0, 0, false
	}
	isLive := func(u, v uint32) bool {
		adj, probs := g.InNeighbors(v)
		for i, w := range adj {
			if w == u && probs[i] > 0 {
				return true
			}
		}
		for _, e := range g.InOverlay(v) {
			if e.Node == u && e.Prob > 0 {
				return true
			}
		}
		return false
	}

	for len(ops) < count {
		switch roll := r.Uint32n(20); {
		case roll < 9: // remove
			u, v, _, ok := pickLive()
			if !ok {
				break
			}
			claimed[[2]uint32{u, v}] = true
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v})
		case roll < 18: // add
			u, v := r.Uint32n(n), r.Uint32n(n)
			if u == v || claimed[[2]uint32{u, v}] || isLive(u, v) {
				continue
			}
			claimed[[2]uint32{u, v}] = true
			p := float32(0.01 + 0.1*r.Float64())
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: p})
		default: // reweight
			u, v, p, ok := pickLive()
			if !ok {
				break
			}
			claimed[[2]uint32{u, v}] = true
			ops = append(ops, graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: p / 2})
		}
	}
	return ops
}

// RunUpdateBench measures the dynamic-graph path end to end: warm a
// dynamic service, stream cumulative churn batches through POST
// /v1/update's backing call, and compare each incremental repair
// against resampling the identical mutated graph cold. A final phase
// applies an update storm while a concurrent client measures certified
// query latency.
func RunUpdateBench(opt UpdateOptions) (*UpdateReport, error) {
	opt = opt.withDefaults()
	mkGraph := func() (*graph.Graph, error) {
		g, err := graph.GenPreferential(graph.GenConfig{
			Nodes: opt.Nodes, AvgDegree: opt.AvgDegree, Seed: opt.Seed, UniformAttach: 0.15,
		})
		if err != nil {
			return nil, err
		}
		if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
			return nil, err
		}
		if err := g.EnableMutation(); err != nil {
			return nil, err
		}
		return g, nil
	}
	mkCfg := func(g *graph.Graph) serve.Config {
		return serve.Config{
			Graph:     g,
			Model:     opt.Model,
			Seed:      opt.Seed,
			Machines:  opt.Machines,
			KMax:      opt.K,
			EpsFloor:  opt.Eps,
			WeightTag: graph.WeightedCascade.String(),
			Dynamic:   true,
			SketchK:   -1, // measure the sample path, not sketch rebuilds
			CacheSize: -1, // every query does real selection work
		}
	}
	g, err := mkGraph()
	if err != nil {
		return nil, err
	}
	s, err := serve.New(mkCfg(g))
	if err != nil {
		return nil, err
	}
	defer s.Close()

	warmStart := time.Now()
	warmAns, err := s.Query(opt.K, opt.Eps)
	if err != nil {
		return nil, err
	}
	warmSecs := time.Since(warmStart).Seconds()

	rep := &UpdateReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Model:        opt.Model.String(),
		Seed:         opt.Seed,
		Machines:     opt.Machines,
		K:            opt.K,
		Eps:          opt.Eps,
		WarmSeconds:  warmSecs,
		WarmTheta:    warmAns.Theta,
		StormBatches: opt.StormBatches,
		StormOps:     opt.StormOps,
	}

	// Churn phase. Batches are kept so the cold baseline can replay the
	// identical history onto a twin graph.
	r := xrand.New(opt.Seed ^ 0xC4A1)
	var history [][]graph.EdgeUpdate
	for _, churn := range opt.ChurnLevels {
		count := int(churn * float64(rep.Edges))
		if count < 1 {
			count = 1
		}
		ops := churnOps(r, g, count)
		history = append(history, ops)

		repairStart := time.Now()
		res, err := s.Update(0, ops)
		if err != nil {
			return nil, fmt.Errorf("bench: churn %g update: %w", churn, err)
		}
		ans, err := s.Query(opt.K, opt.Eps)
		if err != nil {
			return nil, fmt.Errorf("bench: churn %g query: %w", churn, err)
		}
		repairSecs := time.Since(repairStart).Seconds()

		// Cold baseline: a fresh service over a twin graph carrying the
		// same update history, answering the same query from scratch —
		// what a deployment without incremental repair would have to do.
		twin, err := mkGraph()
		if err != nil {
			return nil, err
		}
		for i, batch := range history {
			if _, _, err := twin.ApplyUpdates(uint64(i+1), batch); err != nil {
				return nil, fmt.Errorf("bench: replaying batch %d onto the twin: %w", i+1, err)
			}
		}
		coldStart := time.Now()
		cold, err := serve.New(mkCfg(twin))
		if err != nil {
			return nil, err
		}
		if _, err := cold.Query(opt.K, opt.Eps); err != nil {
			cold.Close()
			return nil, fmt.Errorf("bench: churn %g cold query: %w", churn, err)
		}
		coldSecs := time.Since(coldStart).Seconds()
		cold.Close()

		lvl := UpdateChurn{
			Churn:        churn,
			Ops:          len(ops),
			RepairSecs:   repairSecs,
			RepairedSets: res.Repaired,
			Remirrored:   res.Remirrored,
			Theta:        ans.Theta,
			QueryRatio:   ans.Ratio,
			ResampleSecs: coldSecs,
		}
		if repairSecs > 0 {
			lvl.Speedup = coldSecs / repairSecs
		}
		rep.Levels = append(rep.Levels, lvl)
	}

	// Storm phase: idle latencies first, then the same client while
	// updates stream in back to back.
	idle := queryLatencies(s, opt.K, opt.Eps, 40)
	rep.IdleP50Ms, rep.IdleP99Ms = percentileMs(idle, 0.50), percentileMs(idle, 0.99)

	var (
		lats  []time.Duration
		latMu sync.Mutex
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := time.Now()
			if _, err := s.Query(opt.K, opt.Eps); err != nil {
				continue // a DegradedError window; the storm keeps going
			}
			latMu.Lock()
			lats = append(lats, time.Since(q))
			latMu.Unlock()
		}
	}()
	stormStart := time.Now()
	for i := 0; i < opt.StormBatches; i++ {
		ops := churnOps(r, g, opt.StormOps)
		res, err := s.Update(0, ops)
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("bench: storm batch %d: %w", i, err)
		}
		rep.StormRepairedSets += res.Repaired
	}
	rep.StormSeconds = time.Since(stormStart).Seconds()
	close(stop)
	wg.Wait()

	rep.StormQueries = len(lats)
	rep.StormP50Ms, rep.StormP99Ms = percentileMs(lats, 0.50), percentileMs(lats, 0.99)
	return rep, nil
}

func queryLatencies(s *serve.Service, k int, eps float64, count int) []time.Duration {
	lats := make([]time.Duration, 0, count)
	for i := 0; i < count; i++ {
		start := time.Now()
		if _, err := s.Query(k, eps); err == nil {
			lats = append(lats, time.Since(start))
		}
	}
	return lats
}

func percentileMs(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// WriteJSON writes the report, indented, to path.
func (r *UpdateReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Update runs the dynamic-graph benchmark at the harness's seed, prints
// a summary, and — when jsonPath is non-empty — records the report
// machine-readably (BENCH_UPDATE.json).
func (c Config) Update(jsonPath string, opt UpdateOptions) (*UpdateReport, error) {
	opt.Model = diffusion.IC
	opt.Seed = c.Seed
	rep, err := RunUpdateBench(opt)
	if err != nil {
		return nil, err
	}
	c.printf("\n== dynamic graph updates (%d nodes / %d edges, k=%d, eps=%.2f, %d machines, GOMAXPROCS=%d) ==\n",
		rep.Nodes, rep.Edges, rep.K, rep.Eps, rep.Machines, rep.GOMAXPROCS)
	c.printf("warm: theta=%d in %.2fs\n", rep.WarmTheta, rep.WarmSeconds)
	for _, l := range rep.Levels {
		c.printf("churn %5.2f%%: %6d ops, repaired %6d RR sets in %.3fs vs %.3fs cold resample -> %.1fx (ratio %.3f, remirrored %v)\n",
			l.Churn*100, l.Ops, l.RepairedSets, l.RepairSecs, l.ResampleSecs, l.Speedup, l.QueryRatio, l.Remirrored)
	}
	c.printf("storm: %d batches x %d ops in %.2fs (%d RR sets repaired); query p50/p99 %.1f/%.1f ms idle -> %.1f/%.1f ms under storm (%d queries)\n",
		rep.StormBatches, rep.StormOps, rep.StormSeconds, rep.StormRepairedSets,
		rep.IdleP50Ms, rep.IdleP99Ms, rep.StormP50Ms, rep.StormP99Ms, rep.StormQueries)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return nil, fmt.Errorf("bench: writing %s: %w", jsonPath, err)
		}
		c.printf("wrote %s\n", jsonPath)
	}
	return rep, nil
}
