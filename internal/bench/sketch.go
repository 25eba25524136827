package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/serve"
)

// SketchOptions configures the two-tier influence-oracle benchmark:
// the fast (bottom-k sketch) tier against the certified tier on the
// same warmed service, at equal client concurrency.
type SketchOptions struct {
	Nodes     int     // synthetic graph size (default 20_000)
	AvgDegree float64 // synthetic graph average degree (default 10)
	Model     diffusion.Model
	Seed      uint64

	Machines int     // in-process machines per RR collection (default 2)
	KMax     int     // service admission cap (default 20)
	EpsFloor float64 // service epsilon floor (default 0.3)
	SketchK  int     // bottom-k size (default core.DefaultSketchK)

	Concurrency  int   // client fan-out, both tiers (default 8)
	FastRequests int   // GET /v1/spread?mode=fast requests (default 2000)
	CertRequests int   // GET /v1/spread (Monte-Carlo) requests (default 200)
	Rounds       int64 // Monte-Carlo rounds per certified request (default 1000)
}

func (o SketchOptions) withDefaults() SketchOptions {
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
	if o.Concurrency == 0 {
		o.Concurrency = 8
	}
	if o.FastRequests == 0 {
		o.FastRequests = 2000
	}
	if o.CertRequests == 0 {
		o.CertRequests = 200
	}
	if o.Rounds == 0 {
		o.Rounds = 1000
	}
	return o
}

// SketchTierResult is one tier's /v1/spread load measurement.
type SketchTierResult struct {
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Errors      int64   `json:"errors"`
	Seconds     float64 `json:"seconds"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// SketchReport is the machine-readable record written to
// BENCH_SKETCH.json.
type SketchReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Nodes      int     `json:"nodes"`
	Edges      int64   `json:"edges"`
	Model      string  `json:"model"`
	Seed       uint64  `json:"seed"`
	Machines   int     `json:"machines"`
	KMax       int     `json:"k_max"`
	EpsFloor   float64 `json:"eps_floor"`

	WarmSeconds float64 `json:"warm_seconds"`
	WarmTheta   int64   `json:"warm_theta"`

	// Sketch build cost: the incremental absorbs that kept the fast tier
	// current across every growth epoch of the warm phase, versus the
	// resident sample those epochs cost.
	SketchK            int     `json:"sketch_k"`
	SketchTheta        int64   `json:"sketch_theta"`
	SketchBuilds       int64   `json:"sketch_builds"`
	SketchBuildSeconds float64 `json:"sketch_build_seconds"`

	// Seed-set agreement between the tiers over k = 1..KMax at the
	// service's ε floor: AgreementOverlap is Σ|fast ∩ certified| / Σk
	// (the acceptance metric), AgreementExact the fraction of k whose
	// sets matched exactly.
	AgreementK       int     `json:"agreement_k"`
	AgreementOverlap float64 `json:"agreement_overlap"`
	AgreementExact   float64 `json:"agreement_exact"`

	Fast      SketchTierResult `json:"fast"`
	Certified SketchTierResult `json:"certified"`
	// Speedup is Fast.QPS / Certified.QPS at equal concurrency.
	Speedup float64 `json:"speedup"`
}

// RunSketchBench warms a resident service, measures fast/certified
// seed-set agreement, then load-drives GET /v1/spread on both tiers over
// real loopback HTTP at equal concurrency.
func RunSketchBench(opt SketchOptions) (*SketchReport, error) {
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
		Graph:       g,
		Model:       opt.Model,
		Seed:        opt.Seed,
		Machines:    opt.Machines,
		KMax:        opt.KMax,
		EpsFloor:    opt.EpsFloor,
		SketchK:     opt.SketchK,
		MaxInFlight: opt.Concurrency + 1,
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
	rep := &SketchReport{
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
	}

	// Agreement sweep before the load phase so both tiers answer on the
	// warmed epoch.
	var overlap, total, exact int
	for k := 1; k <= opt.KMax; k++ {
		ansC, err := svc.Query(k, opt.EpsFloor)
		if err != nil {
			return nil, err
		}
		ansF, err := svc.QueryMode(k, opt.EpsFloor, serve.ModeFast)
		if err != nil {
			return nil, err
		}
		in := make(map[uint32]bool, k)
		for _, v := range ansC.Seeds {
			in[v] = true
		}
		common := 0
		for _, v := range ansF.Seeds {
			if in[v] {
				common++
			}
		}
		overlap += common
		total += k
		if common == k {
			exact++
		}
	}
	rep.AgreementK = opt.KMax
	rep.AgreementOverlap = float64(overlap) / float64(total)
	rep.AgreementExact = float64(exact) / float64(opt.KMax)

	st := svc.Stats()
	rep.SketchK = st.SketchK
	rep.SketchTheta = st.SketchTheta
	rep.SketchBuilds = st.SketchBuilds
	rep.SketchBuildSeconds = st.SketchBuildSeconds

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go func() { _ = httpSrv.Serve(lis) }()
	defer httpSrv.Close()
	base := "http://" + lis.Addr().String()

	// Both tiers estimate spread for prefixes of the hardest certified
	// answer — realistic inputs (high-influence nodes), identical across
	// tiers so the comparison is apples to apples.
	pool, err := svc.Query(opt.KMax, opt.EpsFloor)
	if err != nil {
		return nil, err
	}
	fast, err := driveSpreadLevel(base, "fast", 0, pool.Seeds, opt.Concurrency, opt.FastRequests)
	if err != nil {
		return nil, err
	}
	rep.Fast = *fast
	cert, err := driveSpreadLevel(base, "certified", opt.Rounds, pool.Seeds, opt.Concurrency, opt.CertRequests)
	if err != nil {
		return nil, err
	}
	rep.Certified = *cert
	if rep.Certified.QPS > 0 {
		rep.Speedup = rep.Fast.QPS / rep.Certified.QPS
	}
	return rep, nil
}

// driveSpreadLevel fires total GET /v1/spread requests in mode from conc
// goroutines, varying the seed-set prefix per request.
func driveSpreadLevel(base, mode string, rounds int64, pool []uint32, conc, total int) (*SketchTierResult, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc}}
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
				k := 1 + (w*31+q*7)%len(pool)
				var sb strings.Builder
				for i, u := range pool[:k] {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%d", u)
				}
				url := fmt.Sprintf("%s/v1/spread?seeds=%s&mode=%s", base, sb.String(), mode)
				if rounds > 0 {
					url += fmt.Sprintf("&rounds=%d", rounds)
				}
				t0 := time.Now()
				resp, err := client.Get(url)
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

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &SketchTierResult{
		Mode:        mode,
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
	return res, nil
}

// WriteJSON writes the report, indented, to path.
func (r *SketchReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Sketch runs the two-tier oracle benchmark, prints a table, and — when
// jsonPath is non-empty — records the report machine-readably
// (BENCH_SKETCH.json). opt fields left zero take the bench defaults; the
// harness seed overrides opt.Seed.
func (c Config) Sketch(jsonPath string, opt SketchOptions) (*SketchReport, error) {
	opt.Model = diffusion.IC
	opt.Seed = c.Seed
	rep, err := RunSketchBench(opt)
	if err != nil {
		return nil, err
	}
	c.printf("\n== two-tier influence oracle (GET /v1/spread, %d nodes, K=%d, conc=%d, GOMAXPROCS=%d) ==\n",
		rep.Nodes, rep.SketchK, rep.Fast.Concurrency, rep.GOMAXPROCS)
	c.printf("warm: theta=%d in %.1fs; sketch: %d absorbs, %.3fs build (%.1f%% of warm)\n",
		rep.WarmTheta, rep.WarmSeconds, rep.SketchBuilds, rep.SketchBuildSeconds,
		100*rep.SketchBuildSeconds/rep.WarmSeconds)
	c.printf("seed agreement over k=1..%d: %.1f%% overlap, %.1f%% exact sets\n",
		rep.AgreementK, 100*rep.AgreementOverlap, 100*rep.AgreementExact)
	c.printf("%10s %8s %8s %10s %10s %7s\n", "tier", "reqs", "QPS", "p50", "p99", "errors")
	for _, r := range []SketchTierResult{rep.Fast, rep.Certified} {
		c.printf("%10s %8d %8.0f %8.2fms %8.2fms %7d\n",
			r.Mode, r.Requests, r.QPS, r.P50Ms, r.P99Ms, r.Errors)
	}
	c.printf("fast/certified speedup: %.1fx\n", rep.Speedup)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return nil, fmt.Errorf("bench: writing %s: %w", jsonPath, err)
		}
		c.printf("wrote %s\n", jsonPath)
	}
	return rep, nil
}
