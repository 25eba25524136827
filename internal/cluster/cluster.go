package cluster

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/metrics"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// Metrics is the per-phase accounting of a cluster session, designed to
// report the three running-time components of the paper's Fig. 5/6
// breakdown. On a machine with fewer free cores than workers the raw wall
// clock cannot show parallel speedup, so in addition to totals we track
// critical-path times: per request round, the *maximum* worker busy time —
// which is what an ℓ-machine deployment's wall clock would pay (the
// paper's Corollary 1 shows per-machine work concentrates at total/ℓ).
//
// Metrics is a point-in-time snapshot assembled by Cluster.Metrics();
// the live accounting is registry-backed (see clusterMetrics), so
// snapshots are safe to take from any goroutine mid-round.
type Metrics struct {
	// GenCritical sums, over generation rounds, the slowest worker's
	// sampling time: the cluster wall-clock cost of distributed RIS.
	GenCritical time.Duration
	// GenTotal sums all workers' sampling time (the sequential-equivalent
	// generation cost; GenTotal/GenCritical ≈ parallel efficiency).
	GenTotal time.Duration
	// SelCritical and SelTotal are the same aggregates for the map-stage
	// work of NEWGREEDI (degree sync, relabel, per-seed updates).
	SelCritical time.Duration
	SelTotal    time.Duration
	// MasterCompute is time spent in the master's own computation: the
	// bucket scan plus delta merging.
	MasterCompute time.Duration
	// Comm is time spent moving and coding frames: round wall time minus
	// the time workers spent computing.
	Comm time.Duration
	// BytesSent/BytesReceived count request/response payload bytes across
	// all connections (master's perspective).
	BytesSent     int64
	BytesReceived int64
	// GenBytes*/SelBytes* split the broadcast traffic by phase (the same
	// gen/sel attribution as the time aggregates above), so the sampling
	// traffic of §III-B and the selection traffic of §III-D — the O(kn)
	// bound the delta codec attacks — can be read separately.
	GenBytesSent     int64
	GenBytesReceived int64
	SelBytesSent     int64
	SelBytesReceived int64
	// DeltaFrames/DeltaPairs/DeltaBytes count the msgDegreeDelta and
	// msgSelect replies decoded, the ⟨v, Δ⟩ pairs they carried, and their
	// frame bytes. 13 + 8·pairs bytes per frame is what the retired
	// fixed-width encoding would have cost — the baseline the delta
	// codec's DeltaBytes is judged against.
	DeltaFrames int64
	DeltaPairs  int64
	DeltaBytes  int64
	// SketchBuilds/SketchBuildTime account the master-side bottom-k
	// sketch maintenance of the serving fast tier (internal/sketch):
	// how many incremental build passes ran over this cluster's RR
	// output and their summed wall time. Master-side like MasterCompute,
	// but reported separately so the sketch tier's cost is visible next
	// to the generation it rides on.
	SketchBuilds    int64
	SketchBuildTime time.Duration
	// Rounds counts broadcast round trips.
	Rounds int64
	// UpdateCalls counts Update broadcasts (dynamic-graph edge batches)
	// and RepairedSets the RR sets regenerated in place across all
	// workers' incremental repairs — the numerator of the repair ratio
	// (RepairedSets / total resident sets) that decides when repair beats
	// a full resample.
	UpdateCalls  int64
	RepairedSets int64
	// GenCalls counts Generate broadcasts — the denominator for
	// waves-per-generate-call (Batch.Waves / GenCalls).
	GenCalls int64
	// Batch aggregates the workers' frontier-batching counters (last
	// reported cumulative value per worker, plus retired workers'
	// contributions): waves, frontier items, lane occupancy and skipped
	// edges, so batch-efficiency regressions are observable without
	// touching the hot path. All zero when the scalar kernel runs.
	Batch rrset.BatchStats
}

// clusterMetrics holds the registry handles behind the Metrics view.
// Handles are resolved once at construction, so the per-round recording
// below is pure atomics — cheap enough for the selection inner loop and
// safe against concurrent Metrics()/snapshot readers.
type clusterMetrics struct {
	genCritical   *metrics.Counter // ns, per-round max worker time, gen phase
	genTotal      *metrics.Counter // ns, per-round summed worker time, gen phase
	selCritical   *metrics.Counter // ns
	selTotal      *metrics.Counter // ns
	masterCompute *metrics.Counter // ns
	comm          *metrics.Counter // ns
	genBytesSent  *metrics.Counter
	genBytesRecv  *metrics.Counter
	selBytesSent  *metrics.Counter
	selBytesRecv  *metrics.Counter
	// delta records one observation per decoded delta reply:
	// x = frame bytes, y = ⟨v, Δ⟩ pairs carried (Count = frames).
	delta *metrics.Bivariate
	// sketchBuild observes one duration per incremental sketch build
	// pass (Count = builds, Sum = total build time).
	sketchBuild  *metrics.Univariate
	rounds       *metrics.Counter
	updateCalls  *metrics.Counter
	repairedSets *metrics.Counter
	genCalls     *metrics.Counter
}

func newClusterMetrics(reg *metrics.Registry) clusterMetrics {
	return clusterMetrics{
		genCritical:   reg.Counter("cluster.gen.critical_ns"),
		genTotal:      reg.Counter("cluster.gen.total_ns"),
		selCritical:   reg.Counter("cluster.sel.critical_ns"),
		selTotal:      reg.Counter("cluster.sel.total_ns"),
		masterCompute: reg.Counter("cluster.master.compute_ns"),
		comm:          reg.Counter("cluster.comm_ns"),
		genBytesSent:  reg.Counter("cluster.gen.bytes_sent"),
		genBytesRecv:  reg.Counter("cluster.gen.bytes_recv"),
		selBytesSent:  reg.Counter("cluster.sel.bytes_sent"),
		selBytesRecv:  reg.Counter("cluster.sel.bytes_recv"),
		delta:         reg.Bivariate("cluster.delta.frame_bytes_pairs"),
		sketchBuild:   reg.Univariate("cluster.sketch.build_ns"),
		rounds:        reg.Counter("cluster.rounds"),
		updateCalls:   reg.Counter("cluster.update.calls"),
		repairedSets:  reg.Counter("cluster.update.repaired_sets"),
		genCalls:      reg.Counter("cluster.gen.calls"),
	}
}

// add merges worker handler times for one broadcast round into the
// registry under the given phase ("gen" or "sel").
//
// The communication share depends on the broadcast mode. Under
// concurrent broadcast the round's wall clock is max(handler) plus
// transport, so comm = wall − max. (The historic attribution here was
// wall − sum, which silently clamped comm to zero whenever workers
// genuinely overlapped, i.e. wall < sum — under-reporting the Fig. 5/6
// communication component exactly when the cluster was parallel.)
// Under sequential broadcast the workers run back to back — wall =
// sum + transport — so wall − sum is the correct share there, and
// wall ≥ sum always holds, which is why the bug could not bite in
// sequential mode.
func (m *clusterMetrics) add(phase string, wall time.Duration, handlers []time.Duration, sequential bool) {
	var sum, max time.Duration
	for _, h := range handlers {
		sum += h
		if h > max {
			max = h
		}
	}
	switch phase {
	case "gen":
		m.genCritical.AddDuration(max)
		m.genTotal.AddDuration(sum)
	default:
		m.selCritical.AddDuration(max)
		m.selTotal.AddDuration(sum)
	}
	busy := max
	if sequential {
		busy = sum
	}
	if wall > busy {
		m.comm.AddDuration(wall - busy)
	}
	m.rounds.Inc()
}

// account merges one broadcast round into the metrics under the given
// phase and attributes the round's frame bytes to that phase's byte
// counters.
func (c *Cluster) account(phase string, wall time.Duration, handlers []time.Duration) {
	c.met.add(phase, wall, handlers, c.sequential)
	if phase == "gen" {
		c.met.genBytesSent.Add(c.roundSent)
		c.met.genBytesRecv.Add(c.roundRecv)
	} else {
		c.met.selBytesSent.Add(c.roundSent)
		c.met.selBytesRecv.Add(c.roundRecv)
	}
	c.roundSent, c.roundRecv = 0, 0
}

// countDeltaFrame records one decoded delta reply's frame size and pair
// count, the data behind the fixed-width-vs-codec wire comparison.
func (c *Cluster) countDeltaFrame(frame []byte, pairs []DeltaPair) {
	c.met.delta.Observe(int64(len(frame)), int64(len(pairs)))
}

// Add accumulates another cluster's accounting into m, field by field.
func (m *Metrics) Add(o Metrics) {
	m.GenCritical += o.GenCritical
	m.GenTotal += o.GenTotal
	m.SelCritical += o.SelCritical
	m.SelTotal += o.SelTotal
	m.MasterCompute += o.MasterCompute
	m.Comm += o.Comm
	m.BytesSent += o.BytesSent
	m.BytesReceived += o.BytesReceived
	m.GenBytesSent += o.GenBytesSent
	m.GenBytesReceived += o.GenBytesReceived
	m.SelBytesSent += o.SelBytesSent
	m.SelBytesReceived += o.SelBytesReceived
	m.DeltaFrames += o.DeltaFrames
	m.DeltaPairs += o.DeltaPairs
	m.DeltaBytes += o.DeltaBytes
	m.SketchBuilds += o.SketchBuilds
	m.SketchBuildTime += o.SketchBuildTime
	m.Rounds += o.Rounds
	m.UpdateCalls += o.UpdateCalls
	m.RepairedSets += o.RepairedSets
	m.GenCalls += o.GenCalls
	m.Batch.Add(o.Batch)
}

// CriticalPath estimates the wall clock of a genuinely parallel
// deployment: slowest-worker time per phase, plus master compute, plus
// communication.
func (m *Metrics) CriticalPath() time.Duration {
	return m.GenCritical + m.SelCritical + m.MasterCompute + m.Comm
}

// Cluster is the master's view of ℓ workers. It owns the aggregated
// baseline coverage vector Δ (Algorithm 1 line 4, maintained incrementally
// across sampling rounds per §III-C) and exposes a coverage.Oracle so the
// generic greedy drives the distributed machines unchanged.
type Cluster struct {
	conns    []Conn
	numItems int

	// baseDeg is Δ(v) over all RR sets generated so far. Like merge, it
	// is allocated on first use (degreeVec): a restored daemon answers
	// from its resident sample and never syncs degrees or selects here.
	baseDeg []int64

	// Reduce-stage scratch of distOracle.Select, reused every round:
	// merge sums the workers' decoded replies (pairBuf) and drains into
	// deltas, the slice handed to the greedy.
	merge   *coverage.DeltaAccum
	pairBuf []DeltaPair
	deltas  []coverage.Delta

	// sequential issues broadcast calls one worker at a time instead of
	// concurrently. On a host with fewer free cores than workers the
	// goroutines would only time-slice anyway, and preemption makes each
	// worker's wall-clock handler time absorb its neighbors' compute —
	// wrecking the per-phase accounting. Sequential mode costs nothing in
	// throughput there and keeps the measurements exact. Defaults to true
	// when GOMAXPROCS == 1; override with SetSequentialBroadcast.
	sequential bool

	// Link model: when set, every broadcast round adds a modeled network
	// delay to the communication metric — the RTT plus the transfer time
	// of the round's total traffic through the master's NIC. In the
	// master–slave star of the paper's deployment every request and
	// response crosses the master's single link, which is why measured
	// communication grows with ℓ (§IV-B) even though worker links are
	// parallel. This models the paper's 1 Gbps switch analytically;
	// unlike ShapedConn it costs no real sleeping and composes correctly
	// with sequential broadcast.
	linkRTT time.Duration
	linkBw  float64 // bytes per second through the master; 0 = infinite

	// roundSent/roundRecv hold the last broadcast's frame bytes until
	// account attributes them to a phase.
	roundSent int64
	roundRecv int64

	// reg is the cluster's metric registry; met caches the typed handles
	// the hot paths record through. Metrics() assembles the legacy
	// snapshot struct from the same handles.
	reg *metrics.Registry
	met clusterMetrics

	// Fault-tolerance state (nil/empty until EnableRecovery; see
	// recovery.go). healthMu guards the fields Health() reads while an
	// operation is in flight on the master goroutine: conns entries,
	// dead flags and fault counters.
	rec        *Recovery
	healthMu   sync.Mutex
	dead       []bool
	logs       []workerLog
	failovers  []int64
	ctlRetries []int64
	lastErrs   []string
	// selecting/selSeeds mirror the cluster-wide selection state so a
	// replacement worker can be fast-forwarded into a greedy run.
	selecting bool
	selSeeds  []uint32
	failEpoch uint64
	// retiredSent/retiredRecv accumulate byte counters of replaced or
	// quarantined connections so Metrics stays cumulative across swaps.
	retiredSent int64
	retiredRecv int64
	// batchLast holds each worker's last reported cumulative batching
	// counters; retiredBatch preserves quarantined workers' final values
	// so Metrics stays cumulative across swaps (a failover replacement
	// replays its predecessor's history, so overwriting the slot on its
	// next report is the honest accounting).
	batchLast    []rrset.BatchStats
	retiredBatch rrset.BatchStats
}

// New wraps existing worker connections. numItems is the selectable-item
// space (number of graph nodes, or the set count for max coverage).
func New(conns []Conn, numItems int) (*Cluster, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("cluster: need at least one worker")
	}
	if numItems <= 0 {
		return nil, fmt.Errorf("cluster: item count must be positive, got %d", numItems)
	}
	reg := metrics.NewRegistry()
	return &Cluster{
		conns:      conns,
		numItems:   numItems,
		sequential: runtime.GOMAXPROCS(0) == 1,
		batchLast:  make([]rrset.BatchStats, len(conns)),
		reg:        reg,
		met:        newClusterMetrics(reg),
	}, nil
}

// degreeVec returns the baseline Δ vector, allocating it on first use.
func (c *Cluster) degreeVec() []int64 {
	if c.baseDeg == nil {
		c.baseDeg = make([]int64, c.numItems)
	}
	return c.baseDeg
}

// NodeStateAllocated reports whether the master or any in-process worker
// has built its n-sized selection state: the baseline Δ vector, the
// reduce accumulator, a worker's degree-sync accumulator or its select
// kernel. Each is built on first use, so a restored daemon that answers
// from its resident sample reports false. Call it between operations.
func (c *Cluster) NodeStateAllocated() bool {
	if c.baseDeg != nil || c.merge != nil {
		return true
	}
	for _, conn := range c.conns {
		if lc, ok := conn.(*localConn); ok && (lc.w.deg != nil || lc.w.kern != nil) {
			return true
		}
	}
	return false
}

// SetSequentialBroadcast overrides the broadcast strategy: true calls
// workers one at a time (exact per-worker timing on oversubscribed
// hosts), false calls them concurrently (true parallelism when cores or
// remote machines are available).
func (c *Cluster) SetSequentialBroadcast(seq bool) { c.sequential = seq }

// SetLinkModel adds a modeled per-round network delay to the
// communication metric: rtt plus the round's total request+response
// bytes divided by bytesPerSecond — the master's NIC throughput in a
// star topology (0 disables the bandwidth term).
func (c *Cluster) SetLinkModel(rtt time.Duration, bytesPerSecond float64) {
	c.linkRTT = rtt
	c.linkBw = bytesPerSecond
}

// NewLocal builds an in-process cluster of machines workers (one
// goroutine each) from one base configuration: worker i is base with
// Seed DeriveSeed(base.Seed, i). Every in-process cluster fails over the
// same way: rec's schedule is installed with a Respawn that rebuilds
// worker i from its own configuration, so a replacement replays
// bit-identically and a worker fault never ends the run.
func NewLocal(base WorkerConfig, machines, numItems int, rec Recovery) (*Cluster, error) {
	cfgs := make([]WorkerConfig, machines)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Seed = DeriveSeed(base.Seed, i)
	}
	rec.Respawn = func(i int) (Conn, error) {
		w, err := NewWorker(cfgs[i])
		if err != nil {
			return nil, err
		}
		return NewLocalConn(w), nil
	}
	return newRecovering(machines, numItems, rec)
}

// newRecovering connects workers 0..n-1 through rec.Respawn, closing what
// it opened on a failure, and installs rec on the new cluster: the
// constructor shared by NewLocal and DialCluster.
func newRecovering(n, numItems int, rec Recovery) (*Cluster, error) {
	conns := make([]Conn, n)
	for i := range conns {
		conn, err := rec.Respawn(i)
		if err != nil {
			closeAll(conns[:i])
			return nil, err
		}
		conns[i] = conn
	}
	c, err := New(conns, numItems)
	if err != nil {
		closeAll(conns)
		return nil, err
	}
	_ = c.EnableRecovery(rec)
	return c, nil
}

// NumWorkers returns ℓ.
func (c *Cluster) NumWorkers() int { return len(c.conns) }

// Metrics returns a snapshot of the accumulated accounting, folding in
// the per-connection byte counters. Safe to call concurrently with
// in-flight rounds: the registry handles are atomics, and the
// connection/batch state shared with the failover path is read under
// healthMu (the lock quarantine and adoptConn mutate it under).
func (c *Cluster) Metrics() Metrics {
	m := Metrics{
		GenCritical:      c.met.genCritical.Duration(),
		GenTotal:         c.met.genTotal.Duration(),
		SelCritical:      c.met.selCritical.Duration(),
		SelTotal:         c.met.selTotal.Duration(),
		MasterCompute:    c.met.masterCompute.Duration(),
		Comm:             c.met.comm.Duration(),
		GenBytesSent:     c.met.genBytesSent.Value(),
		GenBytesReceived: c.met.genBytesRecv.Value(),
		SelBytesSent:     c.met.selBytesSent.Value(),
		SelBytesReceived: c.met.selBytesRecv.Value(),
		DeltaFrames:      c.met.delta.Count(),
		DeltaPairs:       c.met.delta.SumY(),
		DeltaBytes:       c.met.delta.SumX(),
		SketchBuilds:     c.met.sketchBuild.Count(),
		SketchBuildTime:  c.met.sketchBuild.SumDuration(),
		Rounds:           c.met.rounds.Value(),
		UpdateCalls:      c.met.updateCalls.Value(),
		RepairedSets:     c.met.repairedSets.Value(),
		GenCalls:         c.met.genCalls.Value(),
	}
	c.healthMu.Lock()
	for _, conn := range c.conns {
		s, r := conn.Bytes()
		m.BytesSent += s
		m.BytesReceived += r
	}
	m.BytesSent += c.retiredSent
	m.BytesReceived += c.retiredRecv
	m.Batch = c.retiredBatch
	for _, b := range c.batchLast {
		m.Batch.Add(b)
	}
	c.healthMu.Unlock()
	return m
}

// MetricsSnapshot exports the cluster's accounting as one registry
// snapshot: the registry-backed counters plus the derived totals
// (connection bytes, frontier-batch counters) that live outside it.
// This is the /metricsz export path.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot {
	snap := c.reg.Snapshot()
	m := c.Metrics()
	counter := func(name string, v int64) {
		snap[name] = metrics.Sample{Kind: metrics.KindCounter, Sum: v}
	}
	counter("cluster.bytes_sent", m.BytesSent)
	counter("cluster.bytes_recv", m.BytesReceived)
	counter("cluster.batch.waves", m.Batch.Waves)
	counter("cluster.batch.cohorts", m.Batch.Streams) // the cohort counter's name, kept
	counter("cluster.batch.frontier_items", m.Batch.FrontierItems)
	counter("cluster.batch.lane_waves", m.Batch.LaneWaves)
	counter("cluster.batch.skipped_edges", m.Batch.SkippedEdges)
	return snap
}

// setBatchLast records worker i's last reported cumulative batching
// counters under healthMu — quarantine folds the same slot into
// retiredBatch concurrently with Metrics() readers.
func (c *Cluster) setBatchLast(i int, b rrset.BatchStats) {
	c.healthMu.Lock()
	c.batchLast[i] = b
	c.healthMu.Unlock()
}

// Close shuts down all worker connections, keeping the first error.
// Quarantined workers' connections were already closed at quarantine.
func (c *Cluster) Close() error {
	var first error
	for i, conn := range c.conns {
		if c.rec != nil && c.dead[i] {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// broadcast sends reqs[i] to worker i concurrently and returns all
// responses plus the round's wall time. A nil reqs[i] skips worker i, as
// does a quarantined worker (its resps entry stays nil).
//
// Failure semantics depend on EnableRecovery. Without it, the historic
// contract holds: the first worker error aborts the round. With it, a
// failed call triggers the failover ladder — respawn a replacement,
// resync it from the replay journal, re-issue the call — and a worker
// that stays unreachable through the retry budget is quarantined and
// returned in downs; the caller decides how to repair (recovery.go).
func (c *Cluster) broadcast(reqs [][]byte) (resps [][]byte, wall time.Duration, downs []int, err error) {
	if len(reqs) != len(c.conns) {
		return nil, 0, nil, fmt.Errorf("cluster: %d requests for %d workers", len(reqs), len(c.conns))
	}
	if c.rec != nil {
		for i := range reqs {
			if c.dead[i] {
				reqs[i] = nil
			}
		}
	}
	start := time.Now()
	resps = make([][]byte, len(c.conns))
	errs := make([]error, len(c.conns))
	if c.sequential {
		for i := range c.conns {
			if reqs[i] == nil {
				continue
			}
			resps[i], errs[i] = c.conns[i].Call(reqs[i])
		}
	} else {
		var wg sync.WaitGroup
		for i := range c.conns {
			if reqs[i] == nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = c.conns[i].Call(reqs[i])
			}(i)
		}
		wg.Wait()
	}
	wall = time.Since(start)
	// Callers skip nil resps entries as "worker not called this round";
	// a worker that returned a nil frame without an error must stay
	// distinguishable (it is a protocol violation the decoder flags).
	for i := range resps {
		if reqs[i] != nil && errs[i] == nil && resps[i] == nil {
			resps[i] = []byte{}
		}
	}
	for i, callErr := range errs {
		if callErr == nil {
			continue
		}
		if c.rec == nil {
			return nil, wall, nil, fmt.Errorf("cluster: worker %d: %w", i, callErr)
		}
		resp, ferr := c.failover(i, reqs[i], callErr)
		if ferr != nil {
			c.quarantine(i, ferr)
			reqs[i] = nil // drop from the byte accounting below
			downs = append(downs, i)
			continue
		}
		resps[i] = resp
	}
	if c.rec != nil && len(c.liveIndexes()) == 0 {
		return nil, wall, downs, fmt.Errorf("cluster: %w", ErrNoLiveWorkers)
	}
	c.roundSent, c.roundRecv = 0, 0
	for i := range reqs {
		if reqs[i] == nil {
			continue
		}
		c.roundSent += int64(len(reqs[i]))
		c.roundRecv += int64(len(resps[i]))
	}
	if c.linkRTT > 0 || c.linkBw > 0 {
		var totalBytes int
		for i := range reqs {
			if reqs[i] == nil {
				continue
			}
			totalBytes += len(reqs[i]) + len(resps[i])
		}
		extra := c.linkRTT
		if c.linkBw > 0 {
			extra += time.Duration(float64(totalBytes) / c.linkBw * float64(time.Second))
		}
		c.met.comm.AddDuration(extra)
	}
	return resps, wall, downs, nil
}

// same builds an identical request for every worker.
func (c *Cluster) same(req []byte) [][]byte {
	reqs := make([][]byte, len(c.conns))
	for i := range reqs {
		reqs[i] = req
	}
	return reqs
}

// Generate asks the cluster for addTotal more RR sets, split evenly
// across live workers (worker i gets an extra one while distributing the
// remainder), then pulls the new sets' coverage into the baseline degree
// vector. It returns aggregate statistics over everything generated so
// far. A worker lost mid-round is replaced via the failover ladder; if
// it stays down, its quota (in-flight and historic-unfetched) is
// regenerated on survivors under fresh epoch-salted streams, so the
// aggregate count always comes out as requested.
func (c *Cluster) Generate(addTotal int64) (GenerateStats, error) {
	if addTotal < 0 {
		return GenerateStats{}, fmt.Errorf("cluster: negative generation count %d", addTotal)
	}
	live := c.liveIndexes()
	if len(live) == 0 {
		return GenerateStats{}, fmt.Errorf("cluster: %w", ErrNoLiveWorkers)
	}
	l := int64(len(live))
	per := addTotal / l
	extra := addTotal % l
	reqs := make([][]byte, len(c.conns))
	counts := make([]int64, len(c.conns))
	for idx, i := range live {
		count := per
		if int64(idx) < extra {
			count++
		}
		counts[i] = count
		reqs[i] = encodeGenerateReq(count)
	}
	resps, wall, downs, err := c.broadcast(reqs)
	if err != nil {
		return GenerateStats{}, err
	}
	var agg GenerateStats
	handlers := make([]time.Duration, len(resps))
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, s, err := decodeStatsResp(resp)
		if err != nil {
			return GenerateStats{}, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		handlers[i] = time.Duration(nanos)
		agg.Add(s)
		c.setBatchLast(i, s.Batch)
		if counts[i] > 0 {
			c.record(i, reqs[i], counts[i], 0)
		}
	}
	c.met.genCalls.Inc()
	c.account("gen", wall, handlers)
	if len(downs) > 0 {
		extraLost := make(map[int]int64, len(downs))
		for _, d := range downs {
			extraLost[d] = counts[d]
		}
		if err := c.repair(downs, extraLost); err != nil {
			return GenerateStats{}, err
		}
		// repair rebuilt the baseline (so no syncDegrees) and changed
		// the per-worker counts; re-aggregate for an accurate total.
		return c.Stats()
	}
	return agg, c.syncDegrees()
}

// syncDegrees pulls each worker's coverage deltas for RR sets generated
// since the previous sync and folds them into the baseline Δ vector.
func (c *Cluster) syncDegrees() error {
	resps, wall, downs, err := c.broadcast(c.same(encodeSimpleReq(msgDegreeDelta)))
	if err != nil {
		return err
	}
	if len(downs) > 0 {
		// A quarantine invalidates the baseline anyway (the dead
		// worker's synced coverage must be withdrawn); repair rebuilds
		// it from zero, so folding this round's live replies first
		// would only be overwritten.
		return c.repair(downs, nil)
	}
	handlers := make([]time.Duration, len(resps))
	var buf []DeltaPair
	deg := c.degreeVec()
	start := time.Now()
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, pairs, err := decodeDeltasResp(resp, buf, i)
		if err != nil {
			return fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		buf = pairs
		handlers[i] = time.Duration(nanos)
		c.countDeltaFrame(resp, pairs)
		for _, p := range pairs {
			if int(p.Node) >= c.numItems {
				return fmt.Errorf("cluster: worker %d reported node %d outside item space", i, p.Node)
			}
			deg[p.Node] += int64(p.Dec)
		}
		if c.rec != nil {
			c.logs[i].synced = c.logs[i].count()
		}
	}
	c.met.masterCompute.AddDuration(time.Since(start))
	c.account("sel", wall, handlers)
	return nil
}

// Ingest loads element lists onto a specific worker (max-coverage
// workloads); itemCount must be the same for every worker of the cluster.
// If the requested worker is (or becomes) quarantined, the lists are
// re-routed to a surviving worker — placement does not affect the
// element-distributed algorithm, only balance.
func (c *Cluster) Ingest(worker int, lists [][]uint32) error {
	if worker < 0 || worker >= len(c.conns) {
		return fmt.Errorf("cluster: no worker %d", worker)
	}
	if c.numItems > 1<<32-1 {
		return fmt.Errorf("cluster: item space too large for the wire format")
	}
	req := encodeIngestReq(c.numItems, lists)
	for {
		target := worker
		if c.rec != nil && c.dead[target] {
			live := c.liveIndexes()
			if len(live) == 0 {
				return fmt.Errorf("cluster: %w", ErrNoLiveWorkers)
			}
			target = live[0]
		}
		reqs := make([][]byte, len(c.conns))
		reqs[target] = req
		resps, wall, downs, err := c.broadcast(reqs)
		if err != nil {
			return err
		}
		if len(downs) > 0 {
			if err := c.repair(downs, nil); err != nil {
				return err
			}
			if resps[target] == nil {
				continue // the ingest itself failed; retry on a survivor
			}
		}
		nanos, err := decodeAckResp(resps[target])
		if err != nil {
			return err
		}
		c.record(target, req, 0, int64(len(lists)))
		c.account("sel", wall, []time.Duration{time.Duration(nanos)})
		// Fold the ingested lists' coverage into the baseline (repair,
		// if it ran, already rebuilt the baseline including them).
		if len(downs) > 0 {
			return nil
		}
		return c.syncDegreesOne(target)
	}
}

// syncDegreesOne pulls degree deltas from a single worker.
func (c *Cluster) syncDegreesOne(worker int) error {
	reqs := make([][]byte, len(c.conns))
	reqs[worker] = encodeSimpleReq(msgDegreeDelta)
	resps, wall, downs, err := c.broadcast(reqs)
	if err != nil {
		return err
	}
	if len(downs) > 0 {
		return c.repair(downs, nil)
	}
	nanos, pairs, err := decodeDeltasResp(resps[worker], nil, worker)
	if err != nil {
		return err
	}
	c.countDeltaFrame(resps[worker], pairs)
	deg := c.degreeVec()
	for _, p := range pairs {
		if int(p.Node) >= c.numItems {
			return fmt.Errorf("cluster: worker %d reported node %d outside item space", worker, p.Node)
		}
		deg[p.Node] += int64(p.Dec)
	}
	if c.rec != nil {
		c.logs[worker].synced = c.logs[worker].count()
	}
	c.account("sel", wall, []time.Duration{time.Duration(nanos)})
	return nil
}

// Stats aggregates collection statistics across live workers.
func (c *Cluster) Stats() (GenerateStats, error) {
	per, err := c.WorkerStats()
	var agg GenerateStats
	for _, s := range per {
		agg.Add(s)
	}
	return agg, err
}

// WorkerStats returns each worker's collection statistics, indexed by
// worker (zero for a quarantined one): the per-machine work counts
// behind the balanced-work claim of the paper's Corollary 1.
func (c *Cluster) WorkerStats() ([]GenerateStats, error) {
	for {
		resps, wall, downs, err := c.broadcast(c.same(encodeSimpleReq(msgStats)))
		if err != nil {
			return nil, err
		}
		if len(downs) > 0 {
			// The dead workers' sets must be regenerated before the
			// counts mean anything; repair then re-read.
			if err := c.repair(downs, nil); err != nil {
				return nil, err
			}
			continue
		}
		per := make([]GenerateStats, len(resps))
		handlers := make([]time.Duration, len(resps))
		for i, resp := range resps {
			if resp == nil {
				continue
			}
			nanos, s, err := decodeStatsResp(resp)
			if err != nil {
				return nil, err
			}
			handlers[i] = time.Duration(nanos)
			per[i] = s
			c.setBatchLast(i, s.Batch)
		}
		c.account("sel", wall, handlers)
		return per, nil
	}
}

// Reset drops all RR sets cluster-wide and zeroes the baseline degrees.
// Workers keep their stream positions, so the next sample is drawn from
// fresh ordinals. With recovery enabled it first tries to reinstate
// quarantined workers: a fresh respawn needs no resync here, because the
// reset wipes the state a replacement would lack — all but the stream
// position, which a seek restores. This is the "re-seeded from
// Reset+Generate" rejoin path for replaced or restarted workers.
func (c *Cluster) Reset() error {
	if c.rec != nil {
		for i, lg := range c.logs {
			c.logs[i] = workerLog{origin: lg.origin + lg.own}
		}
		for i := range c.conns {
			if !c.dead[i] {
				continue
			}
			conn, err := c.rec.Respawn(i)
			if err != nil {
				continue // stays quarantined; the operator can retry later
			}
			if err := seekConn(conn, c.logs[i].origin); err != nil {
				_ = conn.Close()
				continue
			}
			c.adoptConn(i, conn)
		}
		c.selecting = false
		c.selSeeds = c.selSeeds[:0]
	}
	resps, wall, downs, err := c.broadcast(c.same(encodeSimpleReq(msgReset)))
	if err != nil {
		return err
	}
	handlers := make([]time.Duration, len(resps))
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, err := decodeAckResp(resp)
		if err != nil {
			return err
		}
		handlers[i] = time.Duration(nanos)
	}
	// Workers quarantined during the reset held no state worth
	// rebalancing (everything was being dropped); nothing to repair.
	_ = downs
	c.account("sel", wall, handlers)
	clear(c.baseDeg)
	return nil
}

// decodeFetchResp validates a fetch response's integrity trailer and
// decodes its RR payload into the collection via the shared decoder
// (rrset.DecodeWire — the same one the durable store replays segments
// with), returning the number of RR sets appended.
func decodeFetchResp(worker int, rest []byte, into *rrset.Collection) (int, error) {
	payload, err := verifyFramePayload(worker, rest)
	if err != nil {
		return 0, err
	}
	count, trailing, err := rrset.DecodeWire(payload, into)
	if err != nil {
		return 0, frameError(worker, sealed.ErrFormat, "%v", err)
	}
	if len(trailing) != 0 {
		return 0, frameError(worker, sealed.ErrFormat, "%d trailing bytes after the declared RR sets", len(trailing))
	}
	return count, nil
}

// GatherAll pulls every worker's entire RR collection into one in-memory
// collection at the master — the naive strategy of Haque and Banerjee
// that §II-B argues against. It is provided as a measurable baseline:
// its traffic is Θ(Σ|R|) bytes (see Metrics), versus NEWGREEDI's O(ℓ·k·n)
// for a complete selection, and its memory footprint is the entire sample
// set on one machine. It is a fetch from position zero that leaves the
// FetchNewSpans cursors alone.
func (c *Cluster) GatherAll() (*rrset.Collection, error) {
	for {
		union := rrset.NewCollection(1 << 16)
		_, downs, err := c.fetchSince(make([]int, len(c.conns)), union)
		if err == nil && len(downs) == 0 {
			return union, nil
		}
		union.Release()
		if err != nil {
			return nil, err
		}
		// The union must cover the whole sample; regenerate the
		// quarantined workers' shards on survivors, then refetch from
		// scratch (a gather is Θ(total) anyway).
		if err := c.repair(downs, nil); err != nil {
			return nil, err
		}
	}
}

// FetchSpan records where one contiguous run of a worker's RR sets
// landed in a fetched collection: worker-local positions [WorkerStart,
// WorkerStart+Count) map to destination positions [MasterStart,
// MasterStart+Count). The spans of a fetch partition exactly the
// worker-local ranges it pulled — a master mirroring the shards keeps
// them to translate worker-local repair patches (Update) into positions
// in its own mirror.
type FetchSpan struct {
	Worker      int
	WorkerStart int
	MasterStart int
	Count       int
}

// FetchNewSpans pulls, from each worker, only the RR sets generated
// since the previous fetch and appends them to `into` in worker-index
// order — which, together with each worker's deterministic stream, makes
// the gathered collection's contents and order a deterministic function
// of (seed, machines) and the sequence of Generate calls. since[i] is the
// count already fetched from worker i (nil means zero everywhere); the
// returned slice carries the updated counts for the next call, and the
// spans the worker→destination positions of everything appended
// (MasterStart relative to `into`'s size at call time). This is the sync
// primitive of the resident query service: after a growth round its
// traffic is Θ(new RR size), not Θ(total RR size) like GatherAll.
func (c *Cluster) FetchNewSpans(since []int, into *rrset.Collection) ([]int, []FetchSpan, error) {
	if since == nil {
		since = make([]int, len(c.conns))
	}
	if len(since) != len(c.conns) {
		return nil, nil, fmt.Errorf("cluster: %d fetch cursors for %d workers", len(since), len(c.conns))
	}
	if into == nil {
		return nil, nil, fmt.Errorf("cluster: nil destination collection")
	}
	next := make([]int, len(since))
	copy(next, since)
	var spans []FetchSpan
	for {
		dst := into.Count()
		added, downs, err := c.fetchSince(next, into)
		if err != nil {
			return nil, nil, err
		}
		for i, n := range added {
			if n > 0 {
				spans = append(spans, FetchSpan{Worker: i, WorkerStart: next[i], MasterStart: dst, Count: n})
			}
			dst += n
			next[i] += n
			if c.rec != nil && !c.dead[i] {
				c.logs[i].fetched = int64(next[i])
			}
		}
		if len(downs) == 0 {
			return next, spans, nil
		}
		// The quarantined workers' unfetched suffixes were lost with
		// them; repair regenerates exactly those RR sets on survivors
		// (fresh epoch-salted streams), and the next loop iteration
		// fetches them from the survivors' advanced cursors. Each
		// iteration either quarantines another worker or terminates.
		if err := c.repair(downs, nil); err != nil {
			return nil, nil, err
		}
	}
}

// fetchSince is one msgFetchSince round: every live worker i sends its RR
// sets from position from[i] on, appended to into in worker order.
// added[i] counts what worker i contributed; downs lists the workers
// quarantined during the round (their entries stay zero).
func (c *Cluster) fetchSince(from []int, into *rrset.Collection) (added, downs []int, err error) {
	reqs := make([][]byte, len(c.conns))
	for i := range reqs {
		reqs[i] = encodeFetchSinceReq(int64(from[i]))
	}
	resps, wall, downs, err := c.broadcast(reqs)
	if err != nil {
		return nil, nil, err
	}
	added = make([]int, len(resps))
	handlers := make([]time.Duration, len(resps))
	start := time.Now()
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, rest, err := decodeRespHeader(resp)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		handlers[i] = time.Duration(nanos)
		if added[i], err = decodeFetchResp(i, rest, into); err != nil {
			return nil, nil, err
		}
	}
	c.met.masterCompute.AddDuration(time.Since(start))
	c.account("sel", wall, handlers)
	return added, downs, nil
}

// EstimateSpread estimates σ(seeds) by forward Monte-Carlo simulation
// spread across the workers (rounds split evenly), the distributed
// influence-estimation service of §II-B. Returns the sample mean and its
// standard error.
func (c *Cluster) EstimateSpread(seeds []uint32, rounds int64) (mean, stderr float64, err error) {
	if rounds <= 0 {
		return 0, 0, fmt.Errorf("cluster: round count must be positive, got %d", rounds)
	}
	live := c.liveIndexes()
	if len(live) == 0 {
		return 0, 0, fmt.Errorf("cluster: %w", ErrNoLiveWorkers)
	}
	l := int64(len(live))
	per := rounds / l
	extra := rounds % l
	reqs := make([][]byte, len(c.conns))
	for idx, i := range live {
		r := per
		if int64(idx) < extra {
			r++
		}
		reqs[i] = encodeEstimateReq(seeds, r)
	}
	resps, wall, downs, err := c.broadcast(reqs)
	if err != nil {
		return 0, 0, err
	}
	if len(downs) > 0 {
		// Simulation rounds are stateless, but the quarantined workers'
		// RR shards must be regenerated before any later sample use.
		// The estimate itself proceeds on the rounds that did return:
		// the mean stays unbiased, just over fewer rounds.
		if err := c.repair(downs, nil); err != nil {
			return 0, 0, err
		}
	}
	handlers := make([]time.Duration, len(resps))
	var totRounds, sum, sumSq int64
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, rest, err := decodeRespHeader(resp)
		if err != nil {
			return 0, 0, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		handlers[i] = time.Duration(nanos)
		var r, s, sq int64
		if r, rest, err = consumeI64(rest); err != nil {
			return 0, 0, err
		}
		if s, rest, err = consumeI64(rest); err != nil {
			return 0, 0, err
		}
		if sq, _, err = consumeI64(rest); err != nil {
			return 0, 0, err
		}
		totRounds += r
		sum += s
		sumSq += sq
	}
	c.account("gen", wall, handlers)
	if totRounds == 0 {
		return 0, 0, fmt.Errorf("cluster: no simulation rounds executed")
	}
	mean = float64(sum) / float64(totRounds)
	variance := float64(sumSq)/float64(totRounds) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / float64(totRounds)), nil
}

// CoverageOf counts, across all workers, the RR sets covered by the seed
// set. Used by frameworks that evaluate a fixed solution on a held-out
// collection (OPIM-C's lower bound).
func (c *Cluster) CoverageOf(seeds []uint32) (int64, error) {
	for {
		resps, wall, downs, err := c.broadcast(c.same(encodeCoverageReq(seeds)))
		if err != nil {
			return 0, err
		}
		if len(downs) > 0 {
			// The count must run over the full sample; repair moves the
			// quarantined shards onto survivors, then re-count.
			if err := c.repair(downs, nil); err != nil {
				return 0, err
			}
			continue
		}
		handlers := make([]time.Duration, len(resps))
		var total int64
		for i, resp := range resps {
			if resp == nil {
				continue
			}
			nanos, rest, err := decodeRespHeader(resp)
			if err != nil {
				return 0, fmt.Errorf("cluster: worker %d: %w", i, err)
			}
			handlers[i] = time.Duration(nanos)
			covered, _, err := consumeI64(rest)
			if err != nil {
				return 0, err
			}
			total += covered
		}
		c.account("sel", wall, handlers)
		return total, nil
	}
}

// Oracle returns the element-distributed coverage oracle over this
// cluster: the NEWGREEDI algorithm is exactly coverage.RunGreedy on it.
func (c *Cluster) Oracle() coverage.Oracle { return &distOracle{c: c} }

// distOracle adapts the cluster to coverage.Oracle.
type distOracle struct {
	c *Cluster
}

func (o *distOracle) NumItems() int { return o.c.numItems }

// InitialDegrees relabels every RR set uncovered on every worker and
// hands the greedy a copy of the aggregated baseline vector. The copy
// matters: the greedy mutates its degree vector, while the baseline must
// survive for the next NEWGREEDI call at a larger θ.
func (o *distOracle) InitialDegrees() ([]int64, error) {
	c := o.c
	for {
		resps, wall, downs, err := c.broadcast(c.same(encodeSimpleReq(msgBeginSelect)))
		if err != nil {
			return nil, err
		}
		if len(downs) > 0 {
			// Repair, then re-relabel: beginSelect is idempotent, so
			// re-broadcasting to workers that already acked just resets
			// their covered labels again. The rebuilt baseline reflects
			// the repaired sample, so the greedy starts consistent.
			if err := c.repair(downs, nil); err != nil {
				return nil, err
			}
			continue
		}
		handlers := make([]time.Duration, len(resps))
		for i, resp := range resps {
			if resp == nil {
				continue
			}
			nanos, err := decodeAckResp(resp)
			if err != nil {
				return nil, err
			}
			handlers[i] = time.Duration(nanos)
		}
		c.account("sel", wall, handlers)
		if c.rec != nil {
			c.selecting = true
			c.selSeeds = c.selSeeds[:0]
		}
		return slices.Clone(c.degreeVec()), nil
	}
}

// Select broadcasts the new seed and merges the per-worker delta vectors
// (Algorithm 1's reduce stage, line 22).
func (o *distOracle) Select(u uint32) ([]coverage.Delta, error) {
	c := o.c
	resps, wall, downs, err := c.broadcast(c.same(encodeSelectReq(u)))
	if err != nil {
		return nil, err
	}
	if len(downs) > 0 {
		// A shard died mid-greedy and its sets were regenerated on
		// survivors — the greedy's degree vector no longer describes
		// the repaired sample. Repair, then make the caller restart
		// from InitialDegrees (the typed error below); the restarted
		// run selects over a consistent sample of the original size.
		if err := c.repair(downs, nil); err != nil {
			return nil, err
		}
		c.selecting = false
		c.selSeeds = c.selSeeds[:0]
		return nil, &RebalancedError{Quarantined: downs}
	}
	handlers := make([]time.Duration, len(resps))
	start := time.Now()
	if c.merge == nil {
		c.merge = coverage.NewDeltaAccum(c.numItems)
	}
	fail := func(worker int, err error) ([]coverage.Delta, error) {
		c.merge.Drain(c.deltas[:0]) // discard the partial reduce
		return nil, fmt.Errorf("cluster: worker %d: %w", worker, err)
	}
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, pairs, err := decodeDeltasResp(resp, c.pairBuf, i)
		if err != nil {
			return fail(i, err)
		}
		c.pairBuf = pairs
		handlers[i] = time.Duration(nanos)
		c.countDeltaFrame(resp, pairs)
		for _, p := range pairs {
			if int(p.Node) >= c.numItems {
				return fail(i, fmt.Errorf("delta for node %d outside item space", p.Node))
			}
			c.merge.Add(p.Node, p.Dec)
		}
	}
	// The baseline is NOT touched here: these RR sets are covered for the
	// remainder of this greedy run only, and baseDeg tracks all-uncovered
	// degrees.
	c.deltas = c.merge.Drain(c.deltas[:0])
	if c.rec != nil {
		// Journal the seed: a replacement worker resyncing mid-greedy
		// replays beginSelect plus this prefix to rebuild its covered
		// labels exactly.
		c.selSeeds = append(c.selSeeds, u)
	}
	c.met.masterCompute.AddDuration(time.Since(start))
	c.account("sel", wall, handlers)
	return c.deltas, nil
}

// AddSketchBuild lets the serving layer account one incremental sketch
// build pass over this cluster's RR output (master-side work, kept apart
// from MasterCompute).
func (c *Cluster) AddSketchBuild(d time.Duration) {
	c.met.sketchBuild.ObserveDuration(d)
}
