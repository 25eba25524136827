package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/mutate"
	"dimm/internal/rss"
	"dimm/internal/serve"
	"dimm/internal/store"
)

// daemon is one running query service behind loopback HTTP.
type daemon struct {
	g      *graph.Graph
	svc    *serve.Service
	c1, c2 *testCluster // only when the benchmark built the clusters (serve_update)
	srv    *http.Server
	base   string // http://127.0.0.1:port
	warm   time.Duration
	budget core.SampleBudget
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	_ = d.svc.Close()
}

// clusterCounters sums the two resident clusters' public counters by
// name ("cluster.rounds", "cluster.bytes_sent", ...).
type clusterCounters map[string]int64

func (d *daemon) clusterCounters() clusterCounters {
	out := clusterCounters{}
	for name, sample := range d.svc.MetricsSnapshot() {
		if rest, ok := strings.CutPrefix(name, "r1."); ok {
			out[rest] += sample.Sum
		} else if rest, ok := strings.CutPrefix(name, "r2."); ok {
			out[rest] += sample.Sum
		}
	}
	return out
}

// minus returns c − o, counter by counter.
func (c clusterCounters) minus(o clusterCounters) clusterCounters {
	out := clusterCounters{}
	for name, v := range c {
		out[name] = v - o[name]
	}
	return out
}

func (c clusterCounters) wireBytes() int64 { return c["cluster.bytes_sent"] + c["cluster.bytes_recv"] }

// traceHandler is the timing middleware around Service.Handler(): while
// the tracer is on it records one span per request, parented to the
// client span named in the X-Bench-Span header.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		name := spanHandler
		if r.URL.Path == "/v1/update" {
			name = spanHandlerUpdate
		}
		sp := tr.begin(name, parent)
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// startDaemon goes from "inputs on disk" to "ready for the first timed
// operation": open the graph, build the service (restoring the
// checkpoint when restoreDir is set, else cold-warming a dynamic one on
// clusters the benchmark built and wrapped), listen, and answer the
// first request with 200.
func startDaemon(e *env, graphPath, restoreDir string) (*daemon, error) {
	sc := e.sc
	sp := e.tr.begin(spanGraphOpen, 0)
	g, err := openGraph(graphPath)
	sp.end()
	if err != nil {
		return nil, err
	}
	d := &daemon{g: g}
	var cfg serve.Config
	if restoreDir != "" {
		cfg = certifiedConfig(g, sc, restoreDir)
		cfg.Restore = true
	} else {
		if err := g.EnableMutation(); err != nil {
			return nil, err
		}
		// The stream split serve.New itself uses for R1 and R2.
		if d.c1, err = buildCluster(g, diffusion.IC, false, serviceSeed^0x0111, e.tr, e.cfg.shapeRPC); err != nil {
			return nil, err
		}
		if d.c2, err = buildCluster(g, diffusion.IC, false, serviceSeed^0x0222, e.tr, e.cfg.shapeRPC); err != nil {
			d.c1.close()
			return nil, err
		}
		cfg = serve.Config{
			Graph: g, Model: diffusion.IC, Seed: serviceSeed, Machines: machines, Parallelism: 1,
			KMax: sc.KMax, EpsFloor: sc.UpdEpsFloor, Dynamic: true,
			C1: d.c1.Cluster, C2: d.c2.Cluster,
		}
	}
	if d.budget, err = core.PlanResidentSample(g.NumNodes(), cfg.KMax, cfg.EpsFloor, 1/float64(g.NumNodes())); err != nil {
		return nil, err
	}
	if d.svc, err = serve.New(cfg); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	if restoreDir == "" {
		sp := e.tr.begin(spanWarm, 0)
		start := time.Now()
		_, err := d.svc.Warm()
		d.warm = time.Since(start)
		sp.end()
		if err != nil {
			_ = d.svc.Close()
			return nil, fmt.Errorf("warming daemon: %w", err)
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.svc.Close()
		return nil, err
	}
	d.base = "http://" + lis.Addr().String()
	d.srv = &http.Server{Handler: traceHandler(e.tr, d.svc.Handler())}
	go func() { _ = d.srv.Serve(lis) }()

	c := newClient(e.tr)
	first := seedsRequest(cfg.KMax, cfg.EpsFloor)
	if rep := c.do(d, first); rep.class != classOK {
		d.close()
		return nil, fmt.Errorf("first request after set-up: %s", rep.detail)
	}
	return d, nil
}

// --- requests ---------------------------------------------------------------

type reqKind int

const (
	kindSeeds reqKind = iota
	kindSpreadMC
	kindSpreadFast
	kindUpdate
)

// request is one pre-generated HTTP request with what its answer must
// satisfy.
type request struct {
	kind   reqKind
	method string
	path   string
	body   string
	k      int     // seeds: queried size
	eps    float64 // seeds: queried ε
	seq    uint64  // update: explicit sequence number
}

func seedsRequest(k int, eps float64) request {
	return request{kind: kindSeeds, method: http.MethodPost, path: "/v1/seeds",
		body: fmt.Sprintf(`{"k":%d,"eps":%s}`, k, strconv.FormatFloat(eps, 'g', -1, 64)), k: k, eps: eps}
}

func spreadRequest(seeds []uint32, fast bool, rounds int) request {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatUint(uint64(s), 10)
	}
	r := request{kind: kindSpreadMC, method: http.MethodGet, path: "/v1/spread?seeds=" + strings.Join(parts, ",")}
	if fast {
		r.kind = kindSpreadFast
		r.path += "&mode=fast"
	} else {
		r.path += "&rounds=" + strconv.Itoa(rounds)
	}
	return r
}

func randomNodes(r *rand.Rand, n, count int) []uint32 {
	out := make([]uint32, 0, count)
	seen := map[uint32]bool{}
	for len(out) < count {
		v := uint32(r.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// certifiedMix returns the i-th request of serve_certified's mix: every
// tenth a Monte-Carlo /v1/spread, the rest /v1/seeds with k uniform in
// [1, KMax] and an ε that never repeats, so every query misses the LRU.
func certifiedMix(r *rand.Rand, i, n int, sc scaleParams) request {
	if i%10 == 9 {
		return spreadRequest(randomNodes(r, n, spreadSeeds), false, spreadRounds)
	}
	return seedsRequest(1+r.IntN(sc.KMax), sc.CertEpsFloor+0.5*r.Float64())
}

// updateMix holds serve_update's read mix: 70 % /v1/seeds drawn Zipf
// over 32 fixed (k, ε) keys, which hit the LRU between updates and
// recompute after each invalidation, and 30 % sketch-tier /v1/spread on
// ten random seeds. The keys and their popularity order are the same
// for every seed; only the draws differ.
type updateMix struct {
	keys []request
	zipf *rand.Zipf
}

func newUpdateMix(r *rand.Rand, sc scaleParams) *updateMix {
	m := &updateMix{zipf: rand.NewZipf(r, 1.1, 1, 31)}
	keys := rand.New(rand.NewPCG(keySeed, 0))
	for i := 0; i < 32; i++ {
		eps := sc.UpdEpsFloor + float64(keys.IntN(400))/1000
		m.keys = append(m.keys, seedsRequest(1+keys.IntN(sc.KMax), eps))
	}
	return m
}

func (m *updateMix) next(r *rand.Rand, i, n int) request {
	if i%10 >= 7 {
		return spreadRequest(randomNodes(r, n, 10), true, 0)
	}
	return m.keys[m.zipf.Uint64()]
}

// genUpdates derives count valid update batches from the pristine graph:
// add / remove / reweight 9:9:2. The graph is only read; an edge pair is
// touched at most once over all batches and pairs with parallel copies
// are skipped, so the pristine graph plus the claimed set is an exact
// shadow of the daemon's edge list and every op validates.
func genUpdates(r *rand.Rand, g *graph.Graph, count, opsPer int) []mutate.Batch {
	n := g.NumNodes()
	claimed := map[[2]uint32]bool{}
	has := func(u, v uint32) int {
		adj, _ := g.InNeighbors(v)
		c := 0
		for _, w := range adj {
			if w == u {
				c++
			}
		}
		return c
	}
	pickLive := func() (u, v uint32, p float32) {
		for {
			v = uint32(r.IntN(n))
			adj, probs := g.InNeighbors(v)
			if len(adj) == 0 {
				continue
			}
			i := r.IntN(len(adj))
			u, p = adj[i], probs[i]
			if p > 0 && u != v && !claimed[[2]uint32{u, v}] && has(u, v) == 1 {
				return u, v, p
			}
		}
	}
	batches := make([]mutate.Batch, count)
	for b := range batches {
		ops := make([]graph.EdgeUpdate, 0, opsPer)
		for len(ops) < opsPer {
			var op graph.EdgeUpdate
			switch roll := r.IntN(20); {
			case roll < 9:
				u, v := uint32(r.IntN(n)), uint32(r.IntN(n))
				if u == v || claimed[[2]uint32{u, v}] || has(u, v) > 0 {
					continue
				}
				op = graph.EdgeUpdate{Op: graph.OpAdd, From: u, To: v, Prob: float32(0.01 + 0.1*r.Float64())}
			case roll < 18:
				u, v, _ := pickLive()
				op = graph.EdgeUpdate{Op: graph.OpRemove, From: u, To: v}
			default:
				u, v, p := pickLive()
				op = graph.EdgeUpdate{Op: graph.OpReweight, From: u, To: v, Prob: p / 2}
			}
			claimed[[2]uint32{op.From, op.To}] = true
			ops = append(ops, op)
		}
		batches[b] = mutate.Batch{Seq: uint64(b + 1), Ops: ops}
	}
	return batches
}

func updateRequest(b mutate.Batch) request {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"seq":%d,"ops":[`, b.Seq)
	for i, op := range b.Ops {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":%q,"from":%d,"to":%d`, op.Op.String(), op.From, op.To)
		if op.Op != graph.OpRemove {
			fmt.Fprintf(&sb, `,"prob":%s`, strconv.FormatFloat(float64(op.Prob), 'g', -1, 32))
		}
		sb.WriteByte('}')
	}
	sb.WriteString("]}")
	return request{kind: kindUpdate, method: http.MethodPost, path: "/v1/update", body: sb.String(), seq: b.Seq}
}

// --- client -----------------------------------------------------------------

type respClass int

const (
	classOK respClass = iota
	classRefused
	classFailed
)

type reply struct {
	class  respClass
	detail string
	answer *serve.Answer // seeds requests
}

// client is one load-generator connection.
type client struct {
	http *http.Client
	tr   *tracer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and checks its answer.
func (c *client) do(d *daemon, rq request) reply {
	req, err := http.NewRequest(rq.method, d.base+rq.path, strings.NewReader(rq.body))
	if err != nil {
		return reply{class: classFailed, detail: err.Error()}
	}
	sp := c.tr.begin(spanClient, 0)
	defer sp.end()
	if sp.id != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{class: classFailed, detail: err.Error()}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return reply{class: classRefused, detail: resp.Status}
	default:
		return reply{class: classFailed, detail: rq.path + ": " + resp.Status}
	}
	dec := json.NewDecoder(resp.Body)
	switch rq.kind {
	case kindSeeds:
		var ans serve.Answer
		if err := dec.Decode(&ans); err != nil {
			return reply{class: classFailed, detail: "undecodable answer: " + err.Error()}
		}
		if bad := checkAnswer(&ans, rq.k, rq.eps, d.g.NumNodes(), d.budget.ThetaMax); bad != "" {
			return reply{class: classFailed, detail: bad, answer: &ans}
		}
		return reply{answer: &ans}
	case kindUpdate:
		var res serve.UpdateResult
		if err := dec.Decode(&res); err != nil {
			return reply{class: classFailed, detail: "undecodable update result: " + err.Error()}
		}
		if !res.Applied || res.GraphVersion != rq.seq {
			return reply{class: classFailed, detail: fmt.Sprintf("update seq %d: applied=%v graph_version=%d", rq.seq, res.Applied, res.GraphVersion)}
		}
	default:
		var sr struct {
			Mean float64 `json:"mean"`
		}
		// A simulated cascade counts its own seeds; the sketch tier may
		// honestly estimate 0 for seeds no sampled RR set contains.
		least := 0.0
		if rq.kind == kindSpreadMC {
			least = 1
		}
		if err := dec.Decode(&sr); err != nil || !(sr.Mean >= least) {
			return reply{class: classFailed, detail: fmt.Sprintf("spread answer mean=%v err=%v", sr.Mean, err)}
		}
	}
	return reply{}
}

// checkAnswer validates a served seed set: k distinct in-range seeds,
// certified to 1 − 1/e − ε unless the sample sits at its planned cap,
// and answered from the resident sample without growth. It returns ""
// or the first failed check.
func checkAnswer(a *serve.Answer, k int, eps float64, n int, thetaMax int64) string {
	if len(a.Seeds) != k {
		return fmt.Sprintf("%d seeds returned, want k=%d", len(a.Seeds), k)
	}
	seen := make(map[uint32]bool, k)
	for _, u := range a.Seeds {
		if int(u) >= n {
			return fmt.Sprintf("seed %d outside the %d-node graph", u, n)
		}
		if seen[u] {
			return fmt.Sprintf("seed %d returned twice", u)
		}
		seen[u] = true
	}
	if a.Ratio < 1-1/math.E-eps && a.Theta < thetaMax {
		return fmt.Sprintf("uncertified: ratio %.4f < %.4f at theta %d below the cap %d", a.Ratio, 1-1/math.E-eps, a.Theta, thetaMax)
	}
	// A cached answer repeats the rounds of the query that computed it.
	if a.GrowRounds != 0 && !a.Cached {
		return fmt.Sprintf("query grew the sample %d rounds after set-up", a.GrowRounds)
	}
	return ""
}

// tally is the sent / ok / failed / refused accounting of one stream.
type tally struct {
	sent, ok, failed, refused int
	firstFailure              string
}

func (t *tally) add(r reply) {
	t.sent++
	switch r.class {
	case classOK:
		t.ok++
	case classRefused:
		t.refused++
	default:
		t.failed++
	}
	if r.class != classOK && t.firstFailure == "" {
		t.firstFailure = r.detail
	}
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	t.refused += o.refused
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// closedLoop runs clients callers that each send their next request as
// soon as the previous one is answered, for dur; it returns OK
// responses per second.
func closedLoop(e *env, d *daemon, clients int, dur time.Duration, mix func(r *rand.Rand) func(i int) request) (float64, tally) {
	var wg sync.WaitGroup
	tallies := make([]tally, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(e.tr)
			defer c.close()
			next := mix(rand.New(rand.NewPCG(e.cfg.seed, 100+uint64(ci))))
			for i := 0; time.Now().Before(deadline); i++ {
				tallies[ci].add(c.do(d, next(i)))
			}
		}(ci)
	}
	wg.Wait()
	el := time.Since(start)
	var total tally
	for _, t := range tallies {
		total.merge(t)
	}
	return float64(total.ok) / el.Seconds(), total
}

// closedLoopTraced is the closed loop of a traced run: one client, so
// spans nest by time, with the tracer switched on for every second
// request. The two interleaved halves see the same drift, so the ratio
// of their median latencies is the tracing overhead.
func closedLoopTraced(e *env, d *daemon, dur time.Duration, mix func(r *rand.Rand) func(i int) request) (float64, tally) {
	c := newClient(e.tr)
	defer c.close()
	next := mix(rand.New(rand.NewPCG(e.cfg.seed, 100)))
	var total tally
	var on, off []float64
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		e.tr.on.Store(i%2 == 0)
		t := time.Now()
		total.add(c.do(d, next(i)))
		if ms := millis(time.Since(t)); i%2 == 0 {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	e.tr.on.Store(false)
	if m := median(off); m > 0 {
		e.out.set("bench.trace_overhead", median(on)/m-1, total.sent)
	}
	return float64(total.ok) / time.Since(start).Seconds(), total
}

// waitUntil returns at due, not up to a millisecond after it: the
// runtime rounds an idle sleep up to the poller's millisecond tick,
// which would otherwise be charged to every request as latency. It
// sleeps to within two ticks and yields in a loop for the rest, so the
// daemon's goroutines run whenever they are runnable.
func waitUntil(due time.Time) {
	if d := time.Until(due) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openStream is the record of one open-loop stream.
type openStream struct {
	tally
	kinds   []reqKind
	due     []time.Time
	done    []time.Time
	latency []float64 // ms from the instant the request was due
	late    []float64 // ms the send ran behind its due time
	overran bool      // the generator finished more than 10 % behind schedule
}

// openLoop sends reqs on one connection at a fixed rate regardless of
// how fast answers come back. Each request is timed from the instant it
// was due, so a stall is charged to every request queued behind it.
func openLoop(e *env, d *daemon, reqs []request, rate float64, start time.Time) *openStream {
	c := newClient(e.tr)
	defer c.close()
	s := &openStream{}
	interval := time.Duration(float64(time.Second) / rate)
	for i, rq := range reqs {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		sent := time.Now()
		rep := c.do(d, rq)
		done := time.Now()
		s.add(rep)
		s.kinds = append(s.kinds, rq.kind)
		s.due = append(s.due, due)
		s.done = append(s.done, done)
		s.latency = append(s.latency, millis(done.Sub(due)))
		s.late = append(s.late, millis(sent.Sub(due)))
	}
	planned := time.Duration(len(reqs)) * interval
	s.overran = time.Since(start) > planned+planned/10
	return s
}

// --- the workload -----------------------------------------------------------

// runServe measures a client of the resident daemon. dynamic selects
// serve_update (cold-started dynamic daemon, reads beside graph updates)
// over serve_certified (restored static daemon, every query uncached).
func runServe(e *env, dynamic bool) error {
	sc := e.sc
	nodes := sc.NodesBig
	if dynamic {
		nodes = sc.NodesSmall
	}
	path, err := prepGraph(e.cfg.cacheDir, nodes)
	if err != nil {
		return err
	}
	restoreDir := ""
	if !dynamic {
		if restoreDir, err = prepCheckpoint(e.cfg.cacheDir, path, sc); err != nil {
			return err
		}
	}
	traced := e.tr.enabled()
	closedDur := time.Duration(0.3 * e.cfg.seconds * float64(time.Second))
	openDur := time.Duration(0.7 * e.cfg.seconds * float64(time.Second))

	// The read mix as a stream of requests drawn from one generator; each
	// load-generator goroutine draws from its own.
	mix := func(r *rand.Rand) func(i int) request {
		if dynamic {
			m := newUpdateMix(r, sc)
			return func(i int) request { return m.next(r, i, nodes) }
		}
		return func(i int) request { return certifiedMix(r, i, nodes, sc) }
	}

	// Inputs from the seed, untimed.
	inputs := rand.New(rand.NewPCG(e.cfg.seed, 1))
	var reads, writes []request
	var batches []mutate.Batch
	rate := float64(certRate)
	if dynamic {
		rate = updReadRate
		pristine, err := openGraph(path)
		if err != nil {
			return err
		}
		batches = genUpdates(inputs, pristine, int(sc.UpdWriteRate*openDur.Seconds()), sc.UpdOps)
		for _, b := range batches {
			writes = append(writes, updateRequest(b))
		}
	}
	next := mix(inputs)
	for i := 0; i < int(rate*openDur.Seconds()); i++ {
		reads = append(reads, next(i))
	}

	// Set-up, several times; the last daemon serves the measurements.
	var d *daemon
	var setups, warms []float64
	e.tr.on.Store(false)
	for i := 0; i < sc.SetupReps; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		e.tr.on.Store(traced && i == sc.SetupReps-1)
		start := time.Now()
		if d, err = startDaemon(e, path, restoreDir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		warms = append(warms, d.warm.Seconds())
	}
	defer d.close()
	e.tr.on.Store(false)
	before := d.svc.Stats()

	// Closed loop: capacity. A traced run uses one client, so spans nest
	// by time, and traces every second request for the tracing overhead.
	var qps float64
	var closed tally
	closedTraffic := d.clusterCounters()
	if traced {
		qps, closed = closedLoopTraced(e, d, closedDur, mix)
	} else {
		qps, closed = closedLoop(e, d, closedClients, closedDur, mix)
	}
	closedTraffic = d.clusterCounters().minus(closedTraffic)
	e.out.phase("closed loop", closed.sent, closed.ok, closed.failed, closed.refused)

	// Open loop: latency at the workload's fixed rate, reads and (for
	// serve_update) writes each on their own connection.
	e.tr.on.Store(traced)
	mid := d.svc.Stats()
	start := time.Now().Add(20 * time.Millisecond)
	var rd, wr *openStream
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = openLoop(e, d, reads, rate, start)
	}()
	if dynamic {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = openLoop(e, d, writes, sc.UpdWriteRate, start)
		}()
	}
	wg.Wait()
	e.tr.on.Store(false)
	// The daemon's whole master↔worker traffic, set-up included, less
	// the closed loop's: that phase is cut by the clock, so its request
	// count, unlike everything else here, is not fixed by the seed.
	traffic := d.clusterCounters().minus(closedTraffic)
	peak := rss.Peak()
	streams := []*openStream{rd}
	if wr != nil {
		streams = append(streams, wr)
	}
	var late []float64
	for i, s := range streams {
		name := []string{"open loop reads", "open loop updates"}[i]
		if s.overran {
			// The generator itself could not hold the schedule: nothing
			// measured in this phase describes the stated rate.
			e.out.problem("%s: load generator finished more than 10%% behind schedule; phase invalid", name)
			s.failed, s.ok = s.failed+s.ok, 0
		}
		e.out.phase(name, s.sent, s.ok, s.failed, s.refused)
		late = append(late, s.late...)
	}
	for _, t := range []tally{closed, rd.tally} {
		if t.firstFailure != "" {
			e.out.problem("first failed read: %s", t.firstFailure)
		}
	}
	if wr != nil && wr.firstFailure != "" {
		e.out.problem("first failed update: %s", wr.firstFailure)
	}
	logf("open loop: reads p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f ms; generator lateness p99 %.3f ms",
		median(rd.latency), percentile(rd.latency, 90), percentile(rd.latency, 95), percentile(rd.latency, 99), percentile(rd.latency, 100), percentile(late, 99))
	if wr != nil {
		logf("open loop: updates p50 %.3f p90 %.3f max %.3f ms", median(wr.latency), percentile(wr.latency, 90), percentile(wr.latency, 100))
	}

	// After the last update: a certified query must describe the final
	// graph version, pass its certificate and bracket its own estimate.
	floor := sc.CertEpsFloor
	if dynamic {
		floor = sc.UpdEpsFloor
	}
	c := newClient(nil)
	final := c.do(d, seedsRequest(sc.KMax, floor))
	c.close()
	finalOK := final.class == classOK
	if !finalOK {
		e.out.problem("final certified query: %s", final.detail)
	} else if a := final.answer; a.GraphVersion != uint64(len(batches)) {
		finalOK = false
		e.out.problem("final query answered at graph version %d, last update was %d", a.GraphVersion, len(batches))
	} else if a.EstSpread < a.SpreadLower || a.EstSpread > a.OptUpper {
		finalOK = false
		e.out.problem("final query: est_spread %.1f outside [%.1f, %.1f]", a.EstSpread, a.SpreadLower, a.OptUpper)
	}
	after := d.svc.Stats()
	if grew := after.GrowRounds - before.GrowRounds; grew != 0 {
		finalOK = false
		e.out.problem("the resident sample grew %d rounds after set-up", grew)
	}
	e.out.phase("final checks", 1, b2i(finalOK), 1-b2i(finalOK), 0)
	if final.answer == nil {
		return fmt.Errorf("final certified query returned no answer: %s", final.detail)
	}

	if traced {
		// In-process cost of the same read mix: no HTTP, no JSON.
		probe := mix(rand.New(rand.NewPCG(e.cfg.seed, 300)))
		var ms []float64
		for i := 0; len(ms) < 300; i++ {
			rq := probe(i)
			if rq.kind != kindSeeds {
				continue
			}
			start := time.Now()
			if _, err := d.svc.QueryMode(rq.k, rq.eps, serve.ModeCertified); err != nil {
				return fmt.Errorf("query probe: %w", err)
			}
			ms = append(ms, millis(time.Since(start)))
		}
		e.out.set("serve.query_ms_p50", median(ms), len(ms))
	}

	// Quality guard, untimed: forward-simulated spread of the final
	// answer. The daemon is stopped first, so the graph is quiescent.
	d.close()
	mcMean, _ := diffusion.NewSimulator(d.g, mcSeed).Estimate(final.answer.Seeds, diffusion.IC, sc.MCRounds)

	e.out.set("setup_s", median(setups), len(setups))
	e.out.set("p50_ms", median(rd.latency), len(rd.latency))
	e.out.set("qps", qps, closed.ok)
	e.out.set("wire_bytes", float64(traffic.wireBytes()), 1)
	e.out.set("spread_nodes", mcMean, sc.MCRounds)
	e.out.set("peak_rss_mb", float64(peak)/(1<<20), 1)

	if traced {
		return serveLayers(e, d, &serveRun{
			dynamic: dynamic, graphPath: path, restoreDir: restoreDir,
			before: before, mid: mid, after: after, traffic: traffic,
			rd: rd, wr: wr, late: late, warms: warms, batches: batches,
		})
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveRun is what the measured phases of a serving workload leave for
// the per-layer metrics.
type serveRun struct {
	dynamic               bool
	graphPath, restoreDir string
	before, mid, after    serve.Stats // before the closed loop, before the open loop, at the end
	traffic               clusterCounters
	rd, wr                *openStream
	late, warms           []float64
	batches               []mutate.Batch
}

// serveLayers derives the per-layer metrics of a serving workload from
// the traced phases, the daemon's public snapshots and the probes.
func serveLayers(e *env, d *daemon, r *serveRun) error {
	before, mid, after, traffic := r.before, r.mid, r.after, r.traffic
	rd, wr, late := r.rd, r.wr, r.late
	sc := e.sc
	e.out.set("bench.loadgen_late_ms_p99", percentile(late, 99), len(late))
	e.out.set("graph.csr_bytes", float64(d.g.CSRBytes()), 1)
	spans := e.tr.finish()
	sum := summarize(spans)
	if c := sum.count[spanGraphOpen]; c > 0 {
		e.out.set("graph.open_s", float64(sum.total[spanGraphOpen])/1e9/float64(c), int(c))
	}
	// Handler-side view of the traced reads, and what the client waited
	// beyond it: the part of each bench.request span that its handler
	// span does not cover is HTTP, JSON and the loopback socket.
	var handler []float64
	for _, s := range spans {
		if s.Name == spanHandler {
			handler = append(handler, float64(s.dur())/1e6)
		}
	}
	e.out.set("serve.handler_ms_p50", median(handler), len(handler))
	if c := sum.count[spanClient]; c > 0 {
		e.out.set("serve.http_overhead_ms", float64(sum.self[spanClient])/1e6/float64(c), int(c))
	}
	e.out.set("serve.read_p90_ms", percentile(rd.latency, 90), len(rd.latency))
	e.out.set("serve.read_p99_ms", percentile(rd.latency, 99), len(rd.latency))

	// Shares of the open loop's seed queries (and the final check).
	if dq := float64(after.Queries - mid.Queries); dq > 0 {
		e.out.set("serve.cache_hit_share", float64(after.CacheHits-mid.CacheHits)/dq, int(dq))
		e.out.set("serve.reuse_share", float64(after.ReuseHits-mid.ReuseHits)/dq, int(dq))
	}
	e.out.set("serve.grow_rounds", float64(after.GrowRounds-before.GrowRounds), 1)
	e.out.set("serve.rejected_429", float64(after.Rejected-before.Rejected), 1)
	e.out.set("serve.degraded_503", float64(after.Degraded-before.Degraded), 1)
	e.out.set("imm.theta", float64(after.Theta), 1)

	// The daemon's own clusters, through the public snapshot (without
	// the closed loop, like wire_bytes).
	e.out.set("cluster.rounds", float64(traffic["cluster.rounds"]), 1)
	e.out.set("cluster.bytes_sent", float64(traffic["cluster.bytes_sent"]), 1)
	e.out.set("cluster.bytes_recv", float64(traffic["cluster.bytes_recv"]), 1)
	e.out.set("cluster.delta_bytes", float64(traffic["cluster.delta.frame_bytes_pairs"]), 1)
	e.out.set("cluster.gen_critical_s", float64(traffic["cluster.gen.critical_ns"])/1e9, 1)
	e.out.set("cluster.gen_total_s", float64(traffic["cluster.gen.total_ns"])/1e9, 1)
	e.out.set("cluster.sel_critical_s", float64(traffic["cluster.sel.critical_ns"])/1e9, 1)
	e.out.set("cluster.master_compute_s", float64(traffic["cluster.master.compute_ns"])/1e9, 1)
	e.out.set("cluster.comm_s", float64(traffic["cluster.comm_ns"])/1e9, 1)
	if d.c1 != nil {
		calls1, fail1, wall1 := d.c1.rpcTotals()
		calls2, fail2, wall2 := d.c2.rpcTotals()
		e.out.set("cluster.rpc_calls", float64(calls1+calls2), 1)
		e.out.set("cluster.rpc_failed", float64(fail1+fail2), 1)
		e.out.set("cluster.rpc_wall_s", (wall1 + wall2).Seconds(), 1)
	}

	if r.dynamic {
		e.out.set("serve.warm_s", median(r.warms), len(r.warms))
		var idle, busy []float64
		for i, due := range rd.due {
			j := sort.Search(len(wr.done), func(j int) bool { return wr.done[j].After(due) })
			if j < len(wr.done) && !wr.due[j].After(due) {
				busy = append(busy, rd.latency[i])
			} else {
				idle = append(idle, rd.latency[i])
			}
		}
		e.out.set("serve.read_p95_idle_ms", percentile(idle, 95), len(idle))
		e.out.set("serve.read_p95_during_update_ms", percentile(busy, 95), len(busy))
		e.out.set("serve.update_http_ms_p50", median(wr.latency), len(wr.latency))
		e.out.set("serve.update_http_ms_p90", percentile(wr.latency, 90), len(wr.latency))
		if err := updateProbes(e, r.graphPath, r.batches); err != nil {
			return err
		}
	} else {
		var mc []float64
		for i, k := range rd.kinds {
			if k == kindSpreadMC {
				mc = append(mc, rd.latency[i])
			}
		}
		e.out.set("serve.spread_mc_ms_p50", median(mc), len(mc))
		if _, err := probeGeneration(e, d.g, diffusion.IC, sc.ProbeSets, nil); err != nil {
			return err
		}
		if err := storeProbes(e, d.g, r.restoreDir); err != nil {
			return err
		}
	}
	return nil
}

// storeProbes calls the durable store directly: restore the prepared
// checkpoint, run the sample probes on the restored R1, and write the
// pair back out as a fresh checkpoint.
func storeProbes(e *env, g *graph.Graph, restoreDir string) error {
	sc := e.sc
	fp := store.Fingerprint{
		GraphHash: g.ContentHash(), Model: diffusion.IC.String(), WeightModel: graph.WeightedCascade.String(),
		Seed: serviceSeed, Machines: machines, Parallelism: 1, KMax: sc.KMax, EpsFloor: sc.CertEpsFloor,
	}
	start := time.Now()
	res, err := store.Restore(restoreDir, fp, g.NumNodes())
	if err != nil {
		return fmt.Errorf("restore probe: %w", err)
	}
	el := time.Since(start)
	e.out.set("store.restore_s", el.Seconds(), 1)
	e.out.set("store.restore_mb_per_s", float64(res.Bytes)/1e6/el.Seconds(), 1)
	if _, err := probeSample(e, res.R1, g.NumNodes(), sc.KMax); err != nil {
		return err
	}
	// In-process certified query cost on the restored pair: select on
	// R1, then the prefix certificate against R2's coverage.
	tmp, err := os.MkdirTemp(e.cfg.outDir, "ckpt-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	start = time.Now()
	written, err := store.Checkpoint(filepath.Join(tmp, "store"), fp, 1, res.R1, res.R2)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	e.out.set("store.checkpoint_s", time.Since(start).Seconds(), 1)
	e.out.set("store.checkpoint_mb", float64(written)/1e6, 1)
	return nil
}

// updateProbes replays serve_update's batches against private copies:
// the graph and planner layers on a private dynamic graph with a probe
// sample, and Service.Update in-process on a second daemon without HTTP.
func updateProbes(e *env, graphPath string, batches []mutate.Batch) error {
	sc := e.sc
	g, err := openGraph(graphPath)
	if err != nil {
		return err
	}
	if err := g.EnableMutation(); err != nil {
		return err
	}
	var lanes []uint64
	coll, err := probeGeneration(e, g, diffusion.IC, sc.ProbeSets, &lanes)
	if err != nil {
		return err
	}
	idx, err := probeSample(e, coll, g.NumNodes(), sc.KMax)
	if err != nil {
		return err
	}
	var validate, apply, plan time.Duration
	affected := 0
	for _, b := range batches {
		start := time.Now()
		if err := mutate.Validate(g, diffusion.IC, b); err != nil {
			return fmt.Errorf("validate probe: %w", err)
		}
		validate += time.Since(start)
		start = time.Now()
		deltas, _, err := g.ApplyUpdates(b.Seq, b.Ops)
		if err != nil {
			return fmt.Errorf("apply probe: %w", err)
		}
		apply += time.Since(start)
		start = time.Now()
		slots, err := mutate.AffectedSlots(diffusion.IC, deltas, idx, lanes)
		if err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
		plan += time.Since(start)
		affected += len(slots)
	}
	e.out.set("mutate.validate_s", validate.Seconds(), len(batches))
	e.out.set("graph.apply_updates_s", apply.Seconds(), len(batches))
	e.out.set("mutate.plan_s", plan.Seconds(), len(batches))
	e.out.set("mutate.affected_sets", float64(affected), len(batches))

	// A second daemon, same batches, no HTTP and no concurrent reads.
	quiet := &env{cfg: e.cfg, sc: sc, tr: nil, out: e.out}
	d, err := startDaemon(quiet, graphPath, "")
	if err != nil {
		return err
	}
	defer d.close()
	var ms []float64
	repaired := 0
	for _, b := range batches {
		start := time.Now()
		res, err := d.svc.Update(b.Seq, b.Ops)
		if err != nil {
			return fmt.Errorf("update probe: %w", err)
		}
		ms = append(ms, millis(time.Since(start)))
		repaired += res.Repaired
	}
	e.out.set("serve.update_ms_p50", median(ms), len(ms))
	e.out.set("serve.repaired_sets", float64(repaired), len(ms))
	return nil
}
