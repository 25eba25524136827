package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/serve"
)

// ServeOptions configures the resident-query-service load benchmark.
type ServeOptions struct {
	Nodes     int     // synthetic graph size (default 20_000)
	AvgDegree float64 // synthetic graph average degree (default 10)
	Model     diffusion.Model
	Seed      uint64

	Machines int     // in-process machines per RR collection (default 2)
	KMax     int     // service admission cap (default 20)
	EpsFloor float64 // service epsilon floor (default 0.3)

	Concurrency []int // client fan-out sweep (default 1,4,16)
	Requests    int   // POST /v1/seeds requests per level (default 200)
}

func (o ServeOptions) withDefaults() ServeOptions {
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
	if o.KMax == 0 {
		o.KMax = 20
	}
	if o.EpsFloor == 0 {
		o.EpsFloor = 0.3
	}
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, 4, 16}
	}
	if o.Requests == 0 {
		o.Requests = 200
	}
	return o
}

// ServeLevelResult is one concurrency level of the sweep. Latencies are
// measured client-side over loopback HTTP, so they include the full
// JSON/transport path a real deployment pays.
type ServeLevelResult struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Errors      int64   `json:"errors"`
	Seconds     float64 `json:"seconds"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	// ReuseRate is the fraction of this level's queries answered with
	// zero new RR generation (LRU hits + resident-sample hits), from the
	// service's own counters.
	ReuseRate float64 `json:"reuse_rate"`
}

// ServeReport is the machine-readable record written to BENCH_SERVE.json.
type ServeReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Nodes      int     `json:"nodes"`
	Edges      int64   `json:"edges"`
	Model      string  `json:"model"`
	Seed       uint64  `json:"seed"`
	Machines   int     `json:"machines"`
	KMax       int     `json:"k_max"`
	EpsFloor   float64 `json:"eps_floor"`

	WarmSeconds float64 `json:"warm_seconds"` // one-time resident-sample build
	WarmTheta   int64   `json:"warm_theta"`   // resident collection size after warm
	WarmRatio   float64 `json:"warm_ratio"`   // certificate of the hardest query

	Results []ServeLevelResult `json:"results"`
}

// RunServeBench load-drives a warmed resident query service over real
// loopback HTTP across the concurrency sweep, mixing k across requests.
// The warm phase is reported separately: it is the one-time cost the
// resident sample amortizes away, which is the subsystem's whole point.
func RunServeBench(opt ServeOptions) (*ServeReport, error) {
	opt = opt.withDefaults()
	g, err := graph.GenPreferential(graph.GenConfig{
		Nodes: opt.Nodes, AvgDegree: opt.AvgDegree, Seed: opt.Seed, UniformAttach: 0.15,
	})
	if err != nil {
		return nil, err
	}
	if g, err = graph.AssignWeights(g, graph.WeightedCascade, 0, 0); err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{
		Graph:    g,
		Model:    opt.Model,
		Seed:     opt.Seed,
		Machines: opt.Machines,
		KMax:     opt.KMax,
		EpsFloor: opt.EpsFloor,
		// Admit the whole sweep: rejections would skew latency downward.
		MaxInFlight: maxInt(opt.Concurrency) + 1,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	warmStart := time.Now()
	warmAns, err := svc.Warm()
	if err != nil {
		return nil, err
	}
	rep := &ServeReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Model:       opt.Model.String(),
		Seed:        opt.Seed,
		Machines:    opt.Machines,
		KMax:        opt.KMax,
		EpsFloor:    opt.EpsFloor,
		WarmSeconds: time.Since(warmStart).Seconds(),
		WarmTheta:   warmAns.Theta,
		WarmRatio:   warmAns.Ratio,
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go func() { _ = httpSrv.Serve(lis) }()
	defer httpSrv.Close()
	base := "http://" + lis.Addr().String()

	for _, conc := range opt.Concurrency {
		res, err := driveLevel(base, svc, conc, opt.Requests, opt.KMax, opt.EpsFloor)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, *res)
	}
	return rep, nil
}

// driveLevel fires total POST /v1/seeds requests from conc goroutines,
// with k varied per request so the LRU alone cannot absorb the load.
func driveLevel(base string, svc *serve.Service, conc, total, kMax int, eps float64) (*ServeLevelResult, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc}}
	before := svc.Stats()

	lats := make([][]time.Duration, conc)
	var errCount int64
	var errMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		share := total / conc
		if w < total%conc {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			for q := 0; q < share; q++ {
				k := 1 + (w*31+q*7)%kMax
				body, _ := json.Marshal(map[string]any{"k": k, "eps": eps})
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/seeds", "application/json", bytes.NewReader(body))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errMu.Lock()
					errCount++
					errMu.Unlock()
					continue
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w, share)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	after := svc.Stats()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &ServeLevelResult{
		Concurrency: conc,
		Requests:    total,
		Errors:      errCount,
		Seconds:     secs,
		QPS:         float64(len(all)) / secs,
	}
	if len(all) > 0 {
		res.P50Ms = float64(all[quantIdx(len(all), 0.50)]) / 1e6
		res.P99Ms = float64(all[quantIdx(len(all), 0.99)]) / 1e6
	}
	if dq := after.Queries - before.Queries; dq > 0 {
		res.ReuseRate = float64((after.CacheHits-before.CacheHits)+(after.ReuseHits-before.ReuseHits)) / float64(dq)
	}
	return res, nil
}

func quantIdx(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func maxInt(vs []int) int {
	m := 0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// WriteJSON writes the report, indented, to path.
func (r *ServeReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Serve runs the query-service load benchmark at the harness's seed,
// prints a table, and — when jsonPath is non-empty — records the report
// machine-readably (BENCH_SERVE.json).
func (c Config) Serve(jsonPath string) (*ServeReport, error) {
	rep, err := RunServeBench(ServeOptions{Model: diffusion.IC, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	c.printf("\n== resident query service (POST /v1/seeds, %d nodes, kmax=%d, eps=%.2f, GOMAXPROCS=%d) ==\n",
		rep.Nodes, rep.KMax, rep.EpsFloor, rep.GOMAXPROCS)
	c.printf("warm: theta=%d ratio=%.3f in %.1fs (one-time)\n", rep.WarmTheta, rep.WarmRatio, rep.WarmSeconds)
	c.printf("%6s %8s %8s %10s %10s %8s %7s\n", "conc", "reqs", "QPS", "p50", "p99", "reuse", "errors")
	for _, r := range rep.Results {
		c.printf("%6d %8d %8.0f %8.2fms %8.2fms %7.1f%% %7d\n",
			r.Concurrency, r.Requests, r.QPS, r.P50Ms, r.P99Ms, 100*r.ReuseRate, r.Errors)
	}
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return nil, fmt.Errorf("bench: writing %s: %w", jsonPath, err)
		}
		c.printf("wrote %s\n", jsonPath)
	}
	return rep, nil
}
