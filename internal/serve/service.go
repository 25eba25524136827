// Package serve is the resident influence-maximization query service:
// the long-lived counterpart to the one-shot drivers in internal/core.
// A Service loads the graph once, keeps a cluster of sampling workers
// warm across requests, and maintains a resident pair of RR-set
// collections (R1 drives greedy selection through its segmented inverted
// index, the independent R2 backs the per-query OPIM-C certificate)
// sized for a configured (k_max, ε_floor, δ).
//
// A query (k, ε) is answered from the resident sample whenever the
// certificate already reaches 1 − 1/e − ε — zero new RR generation, the
// amortize-the-sketch economics of sketch-based influence oracles — and
// only otherwise triggers an incremental doubling round: the clusters
// generate, the master pulls just the new sets (cluster.FetchNewSpans),
// and the inverted indexes extend in place (rrset.Index.AppendFrom).
//
// Concurrency follows an RWMutex epoch scheme: any number of readers
// select seeds over the resident sample concurrently (selection state is
// per-query), while at most one grower extends it; the slow part of
// growth (cluster RPCs) happens outside the write lock, which is held
// only for the append + reindex. Every answer is a deterministic
// function of (seed, machines, epoch).
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dimm/internal/bitset"
	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/imm"
	"dimm/internal/metrics"
	"dimm/internal/rrset"
	"dimm/internal/sketch"
	"dimm/internal/store"
)

// Config describes a Service deployment.
type Config struct {
	Graph *graph.Graph
	Model diffusion.Model
	// Subset enables SUBSIM subset sampling on the workers.
	Subset bool
	// Seed is the base RNG seed; the R1/R2 clusters sample the
	// independent streams imm.PairSeeds derives from it, through the
	// same constructor as core.RunDOPIMC (core.NewClusterPair).
	Seed uint64
	// Machines is ℓ, the number of workers per collection (default 1).
	// Ignored when C1/C2 are supplied.
	Machines int
	// Parallelism is the per-worker shard count (see core.Options). Like
	// Batch, it is not part of the checkpoint fingerprint.
	Parallelism int
	// Batch is the frontier-batch width of each worker's sampling shards
	// (see core.Options.Batch): 0 selects rrset.DefaultBatch, 1 the
	// scalar kernel. Not part of the checkpoint fingerprint — the
	// sampled bytes are batch-invariant, so a checkpoint written at one
	// width restores correctly at any other.
	Batch int

	// Dynamic enables the streaming graph-update API (POST /v1/update):
	// the graph is switched into mutable-overlay mode before the clusters
	// are built, and edge-update batches flow through the cluster RPC to
	// the workers, which repair the resident RR sample incrementally
	// (internal/mutate) instead of discarding it. Incompatible with
	// Subset (subset sampling assumes a frozen uniform weight; the
	// samplers reject mutable graphs) and with Restore (a restored sample
	// has no lane provenance, so it could not be repaired — dynamic
	// services start cold; their checkpoints record graph-delta segments
	// for offline tooling instead).
	Dynamic bool

	// SketchK sets the bottom-k size of the resident sketch tier backing
	// GET /v1/spread?mode=fast (internal/sketch): 0 selects
	// core.DefaultSketchK, negative disables the tier entirely.
	// The sketch rides on the same RR instances the certificates use and
	// rebuilds incrementally after every growth epoch; no seed query
	// reads it.
	SketchK int

	// KMax bounds the admissible query seed-set size (default 50).
	KMax int
	// EpsFloor is the tightest admissible query ε (default 0.1); the
	// resident sample's growth cap is sized for (KMax, EpsFloor).
	EpsFloor float64
	// Delta is the service-lifetime failure probability (default 1/n):
	// with probability ≥ 1 − δ, every certificate ever issued is valid.
	Delta float64

	// CacheSize bounds the LRU of recent (k, ε) answers (default 256;
	// negative disables caching).
	CacheSize int
	// MaxInFlight bounds concurrently admitted HTTP requests; excess
	// requests get 429 (default 64).
	MaxInFlight int

	// Retries and RetryBackoff shape the fault-tolerance schedule the
	// Service installs on its in-process clusters (cmd/dimmsrv mirrors
	// them onto dialed workers): how many times a failed worker is
	// respawned and resynced before being quarantined, and the base of
	// the capped exponential backoff between attempts. Zero means
	// cluster.DefaultRetries / cluster.DefaultRetryBackoff.
	Retries      int
	RetryBackoff time.Duration

	// CheckpointDir enables the durable RR-sample store (internal/store):
	// after every growth epoch the new RR sets are appended to a
	// checkpoint in this directory, pinned to the service's full sampling
	// fingerprint. Empty disables checkpointing.
	CheckpointDir string
	// Restore replays the checkpoint at CheckpointDir on startup, so the
	// resident sample is warm before the first query with zero worker
	// traffic. Requires in-process machines (no C1/C2): post-restore
	// growth re-salts the worker RR streams with the restored epoch, which
	// cannot be done to externally-seeded workers. A non-empty checkpoint
	// directory without Restore is an error — appending a fresh run to an
	// old checkpoint would fork its history.
	Restore bool
	// WeightTag optionally names the edge-weight model ("wc", ...) for
	// the checkpoint fingerprint; the graph content hash already pins the
	// actual weights, this adds a readable guard for tooling.
	WeightTag string

	// C1/C2 optionally supply pre-built clusters (e.g. TCP workers dialed
	// by cmd/dimmsrv) backing R1 and R2. Both must be set together; the
	// Service takes ownership and closes them. Their workers must sample
	// independent streams for the certificate to be sound.
	C1, C2 *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 1
	}
	if c.KMax == 0 {
		c.KMax = 50
	}
	if c.EpsFloor == 0 {
		c.EpsFloor = 0.1
	}
	if c.Delta == 0 && c.Graph != nil {
		c.Delta = 1 / float64(c.Graph.NumNodes())
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Mode selects which tier answers a spread query: certified (default,
// forward Monte-Carlo on the warm cluster) or fast (the bottom-k sketch
// tier). Seed queries have one answer path, the certified greedy; fast
// is accepted there as an alias for it.
type Mode string

const (
	ModeCertified Mode = "certified"
	ModeFast      Mode = "fast"
)

// ParseMode maps the ?mode= query value onto a Mode; empty selects
// certified. Fast selects the sketch tier for spread only; unknown
// modes are a BadQueryError on both endpoints.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", string(ModeCertified):
		return ModeCertified, nil
	case string(ModeFast):
		return ModeFast, nil
	}
	return "", badQueryf("serve: unknown mode %q (want fast|certified)", s)
}

// Answer is one served seed-set query.
type Answer struct {
	K     int      `json:"k"`
	Eps   float64  `json:"eps"`
	Seeds []uint32 `json:"seeds"`

	// Mode is always certified: every seed set is the exact greedy the
	// (1 − 1/e − ε) analysis covers, whatever ?mode= the request named.
	Mode Mode `json:"mode"`

	// Epoch identifies the resident-sample generation the answer was
	// computed on; Theta is that sample's size (per collection).
	Epoch uint64 `json:"epoch"`
	Theta int64  `json:"theta"`
	// GraphVersion is the graph-update sequence number the answering
	// sample was repaired to — 0 until the first POST /v1/update. The
	// certificate certifies the answer on exactly this graph version.
	GraphVersion uint64 `json:"graph_version,omitempty"`

	// The OPIM-C certificate: σ(Seeds) ≥ SpreadLower and OPT ≤ OptUpper,
	// each with the service's δ budget, so Ratio ≥ 1 − 1/e − ε certifies
	// the approximation.
	SpreadLower float64 `json:"spread_lower"`
	OptUpper    float64 `json:"opt_upper"`
	Ratio       float64 `json:"ratio"`
	// EstSpread is the unbiased point estimate n·cov2/θ from R2.
	EstSpread float64 `json:"est_spread"`

	// GrowRounds counts the doubling rounds this query triggered (0 = the
	// resident sample was reused as-is). Cached marks an LRU hit.
	GrowRounds int  `json:"grow_rounds"`
	Cached     bool `json:"cached"`
}

// BadQueryError reports an inadmissible query; the HTTP layer maps it to
// a 400 instead of a 500.
type BadQueryError struct{ msg string }

func (e *BadQueryError) Error() string { return e.msg }

func badQueryf(format string, args ...any) error {
	return &BadQueryError{msg: fmt.Sprintf(format, args...)}
}

// DegradedError reports that a request needed worker capacity that is
// currently lost: the resident sample could not grow (or the spread
// estimator had no live workers) because failover exhausted its retry
// budget. Queries the current certificate already covers keep being
// answered; the HTTP layer maps this to 503 with a Retry-After header
// so clients back off while workers are respawned or redialed.
type DegradedError struct {
	RetryAfter time.Duration
	Err        error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("serve: degraded (worker capacity lost, retry in %s): %v", e.RetryAfter, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// degradeRetryAfter is the backoff hint handed to clients on 503: long
// enough for a redial/respawn cycle, short enough to probe recovery.
const degradeRetryAfter = 5 * time.Second

// degraded wraps worker-loss errors (cluster.IsWorkerLoss) in a
// DegradedError and counts them; other errors pass through unchanged.
func (s *Service) degraded(err error) error {
	if err == nil || !cluster.IsWorkerLoss(err) {
		return err
	}
	s.stats.degraded.Inc()
	return &DegradedError{RetryAfter: degradeRetryAfter, Err: err}
}

// Service is the resident query service. Create with New, serve HTTP via
// Handler, and Close when done.
type Service struct {
	cfg    Config
	n      int
	par    int // resolved worker parallelism, also the shard count of sketch builds
	batch  int // resolved frontier-batch width of the workers' samplers
	budget core.SampleBudget

	// clusterMu serializes all RPCs on the warm clusters (the cluster
	// types are single-caller); only the grower, the updater and Spread
	// take it.
	clusterMu sync.Mutex

	// mu is the epoch lock: read-held during selection/certification,
	// write-held only while growth appends and reindexes.
	mu    sync.RWMutex
	epoch uint64
	gver  uint64 // graph version the published sample is repaired to

	// mirrors holds OPIM-C's two independent samples, R1
	// (mirrors[selSample]) and R2 (mirrors[certSample]); see mirror for
	// which lock guards which field.
	mirrors [2]mirror

	// batchMu guards each mirror's batch counters and genCalls. The
	// grower overwrites them after every Generate broadcast; Stats() only
	// reads, so a snapshot never waits on an in-flight grow round's RPCs.
	batchMu  sync.Mutex
	genCalls int64 // Generate broadcasts issued by the grower

	// updateDebt marks a partially applied update: the master graph
	// advanced but the clusters (or the mirror splice) did not complete.
	// While set, queries are refused 503 (the mirror's certificate no
	// longer matches the graph) until a retried update heals the state.
	updateDebt atomic.Bool

	// growMu admits one grower at a time; queries needing more sample
	// queue on it and re-check the epoch afterwards.
	growMu sync.Mutex

	// sketchMu guards the fast tier's bottom-k sketch set, separately
	// from mu so ?mode=fast spread reads never touch the RR sample's
	// lock: any number of fast readers proceed while a seed query holds
	// mu, and only the grower (already serialized by growMu) write-locks
	// it to absorb a growth epoch. The tier is disabled iff
	// cfg.SketchK < 0 (sk stays nil); readers test the config, not the
	// pointer, which rebuildSketch swaps under sketchMu.
	sketchMu   sync.RWMutex
	sk         *sketch.Set
	skRestored bool

	cache *answerCache
	sem   chan struct{} // admission-control slots (HTTP layer)

	// st is the durable RR-sample store (nil when checkpointing is off).
	// Only the grower touches it, under growMu.
	st             *store.Store
	restoredEpochs int   // checkpoint segments replayed at startup
	restoredTheta  int64 // per-collection RR sets restored at startup

	// reg is the service's metric registry; stats and http hold the
	// typed handles recorded through on the query paths. /metricsz
	// exports reg merged with the two clusters' registries.
	reg   *metrics.Registry
	stats serviceCounters
	http  httpCounters

	closed atomic.Bool
}

// serviceCounters is the query-path accounting exposed on /statsz —
// registry handles resolved once at New, so recording stays one atomic
// per event while /statsz and /metricsz snapshot concurrently.
type serviceCounters struct {
	queries    *metrics.Counter // Query calls that produced an answer
	cacheHits  *metrics.Counter // served from the LRU
	reuseHits  *metrics.Counter // served from the resident sample, zero growth
	growRounds *metrics.Counter // doubling rounds executed
	generated  *metrics.Counter // RR sets generated since startup (R1 + R2)

	ckptEpochs *metrics.Counter // checkpoint segments written since startup
	ckptBytes  *metrics.Counter // checkpoint bytes written since startup
	ckptErrors *metrics.Counter // failed checkpoint attempts (queries unaffected)
	ckptNanos  *metrics.Counter // wall time spent writing checkpoints

	degraded *metrics.Counter // requests refused 503 for lost worker capacity

	// Dynamic-graph accounting: update batches applied, RR sets repaired
	// in place across both mirrors, and full re-mirrors forced by a
	// cluster rebalance mid-update.
	updates      *metrics.Counter
	repairedSets *metrics.Counter
	remirrors    *metrics.Counter

	// Fast-tier accounting: sketch build passes and their wall time
	// (one univariate observation per pass), estimator evaluations
	// served, and fast-mode spread queries.
	skBuild     *metrics.Univariate
	skEstimates *metrics.Counter
	fastSpreads *metrics.Counter
}

// The two samples' positions in Service.mirrors.
const (
	selSample  = 0 // R1: the greedy selects on it
	certSample = 1 // R2: certifies the selection
)

// mirror is the master's side of one of the two samples: the cluster
// that draws it, the resident collection and its inverted index, the
// per-worker fetch cursors, the fetch spans that map worker-local RR
// positions to mirror positions (the translation table for splicing
// worker repair patches), and the workers' last reported cumulative
// batch counters. cl is called under clusterMu; coll and idx are
// published under mu; fetched and spans belong to the grower and the
// updater (growMu); batch is guarded by batchMu.
type mirror struct {
	cl      *cluster.Cluster
	coll    *rrset.Collection
	idx     *rrset.Index
	fetched []int
	spans   []cluster.FetchSpan
	batch   rrset.BatchStats
}

// fetch pulls the sets the mirror's workers hold past the cursors since
// (nil: all of them) into an unpublished, unindexed mirror of just those
// sets, its spans relative to its own collection. Caller holds clusterMu.
func (m *mirror) fetch(since []int) (mirror, error) {
	inc := mirror{coll: rrset.NewCollection(1 << 12)}
	var err error
	if inc.fetched, inc.spans, err = m.cl.FetchNewSpans(since, inc.coll); err != nil {
		inc.coll.Release()
		return mirror{}, err
	}
	return inc, nil
}

// releaseFetched frees the collections of fetched increments (those
// never fetched are skipped).
func releaseFetched(incs [2]mirror) {
	for _, inc := range incs {
		if inc.coll != nil {
			inc.coll.Release()
		}
	}
}

// extend appends a fetched increment to the resident collection,
// rebasing its spans onto mirror positions (only a dynamic service reads
// them, but recording is cheap and keeps one code path) and adopting its
// cursors, and extends the index over the new sets, building it on first
// use. The mirror copies the sets; the caller still releases inc's
// collection. Caller holds mu (write).
func (m *mirror) extend(inc mirror, n int) error {
	from := m.coll.Count()
	for _, sp := range inc.spans {
		sp.MasterStart += from
		m.spans = append(m.spans, sp)
	}
	m.fetched = inc.fetched
	m.coll.AppendCollection(inc.coll)
	if m.idx == nil {
		var err error
		m.idx, err = rrset.BuildIndex(m.coll, n)
		return err
	}
	return m.idx.AppendFrom(m.coll, from)
}

// patch applies repair patches already mapped onto mirror positions. The
// index patch diffs against pre-patch membership, so it runs before the
// collection mutates; a nil index (never queried yet) stays nil and is
// built on demand. Caller holds mu (write).
func (m *mirror) patch(pat []rrset.Patch) error {
	if m.idx != nil {
		if err := m.idx.ApplyPatches(m.coll, pat); err != nil {
			return err
		}
	}
	return m.coll.ApplyPatches(pat)
}

// replace frees the resident collection and index and adopts fresh, a
// complete refetch (from nil cursors, so its spans are already
// absolute), indexing it. Caller holds mu (write).
func (m *mirror) replace(fresh mirror, n int) error {
	m.coll.Release()
	if m.idx != nil {
		m.idx.Release()
	}
	m.coll, m.idx, m.fetched, m.spans = fresh.coll, nil, fresh.fetched, fresh.spans
	if m.coll.Count() == 0 {
		return nil
	}
	var err error
	m.idx, err = rrset.BuildIndex(m.coll, n)
	return err
}

func newServiceCounters(reg *metrics.Registry) serviceCounters {
	return serviceCounters{
		queries:      reg.Counter("svc.queries"),
		cacheHits:    reg.Counter("svc.cache_hits"),
		reuseHits:    reg.Counter("svc.reuse_hits"),
		growRounds:   reg.Counter("svc.grow_rounds"),
		generated:    reg.Counter("svc.generated"),
		ckptEpochs:   reg.Counter("svc.ckpt.epochs"),
		ckptBytes:    reg.Counter("svc.ckpt.bytes"),
		ckptErrors:   reg.Counter("svc.ckpt.errors"),
		ckptNanos:    reg.Counter("svc.ckpt.ns"),
		degraded:     reg.Counter("svc.degraded"),
		updates:      reg.Counter("svc.update.calls"),
		repairedSets: reg.Counter("svc.update.repaired_sets"),
		remirrors:    reg.Counter("svc.update.remirrors"),
		skBuild:      reg.Univariate("svc.sketch.build_ns"),
		skEstimates:  reg.Counter("svc.sketch.estimates"),
		fastSpreads:  reg.Counter("svc.fast.spread_queries"),
	}
}

// New builds the service and its warm clusters. The resident sample
// starts empty; the first query (or Warm) grows it to θ₀ and onward.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: config needs a graph")
	}
	n := cfg.Graph.NumNodes()
	if cfg.KMax < 1 || cfg.KMax >= n {
		return nil, fmt.Errorf("serve: kmax %d outside [1, %d)", cfg.KMax, n)
	}
	if cfg.EpsFloor <= 0 || cfg.EpsFloor >= 1 {
		return nil, fmt.Errorf("serve: eps floor %v outside (0, 1)", cfg.EpsFloor)
	}
	budget, err := core.PlanResidentSample(n, cfg.KMax, cfg.EpsFloor, cfg.Delta)
	if err != nil {
		return nil, err
	}
	if cfg.Dynamic {
		if cfg.Subset {
			return nil, fmt.Errorf("serve: dynamic graphs cannot use subset sampling (the geometric-skip generator assumes frozen uniform weights)")
		}
		if cfg.Restore {
			return nil, fmt.Errorf("serve: dynamic services cannot restore: a restored sample has no lane provenance to repair from; start cold or serve the checkpoint statically")
		}
		if err := cfg.Graph.EnableMutation(); err != nil {
			return nil, fmt.Errorf("serve: dynamic mode: %w", err)
		}
	}
	reg := metrics.NewRegistry()
	s := &Service{
		cfg:    cfg,
		n:      n,
		budget: budget,
		cache:  newAnswerCache(cfg.CacheSize),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		reg:    reg,
		stats:  newServiceCounters(reg),
	}
	s.http.init(reg)
	if (cfg.C1 == nil) != (cfg.C2 == nil) {
		return nil, fmt.Errorf("serve: C1 and C2 must be supplied together")
	}
	par := core.ResolveParallelism(cfg.Parallelism, cfg.Machines)
	s.par = par
	s.batch = cluster.ResolveBatch(cfg.Batch)
	// The sketch's rank stream gets its own split of the base seed, like
	// the imm.PairSeeds split that keeps R1 and R2 independent.
	skParams := sketch.Params{K: cfg.SketchK, Seed: cfg.Seed ^ 0x0333}
	if skParams.K == 0 {
		skParams.K = core.DefaultSketchK
	}

	// Open the durable store (and restore from it) before the clusters
	// exist: a restore determines the stream salt the workers are seeded
	// with.
	var salt uint64
	if cfg.CheckpointDir != "" {
		st, err := store.Open(cfg.CheckpointDir, store.Fingerprint{
			GraphHash:   cfg.Graph.ContentHash(),
			Model:       cfg.Model.String(),
			WeightModel: cfg.WeightTag,
			Subset:      cfg.Subset,
			Seed:        cfg.Seed,
			Machines:    cfg.Machines,
			KMax:        cfg.KMax,
			EpsFloor:    cfg.EpsFloor,
		})
		if err != nil {
			return nil, err
		}
		s.st = st
		switch {
		case cfg.Restore:
			if cfg.C1 != nil {
				return nil, fmt.Errorf("serve: restore requires in-process machines: pre-built clusters cannot have their RR streams re-salted for post-restore growth")
			}
			res, err := st.Restore(n)
			if err == nil {
				s.mirrors[selSample].coll, s.mirrors[selSample].idx = res.R1, res.Idx1
				s.mirrors[certSample].coll, s.mirrors[certSample].idx = res.R2, res.Idx2
				s.epoch = res.Epoch
				s.restoredEpochs = res.Epochs
				s.restoredTheta = int64(res.R1.Count())
				// Salt post-restore worker streams with the restored epoch:
				// the fresh workers must not replay the PRNG prefix that
				// produced the restored sets, or regrowth would append
				// duplicates instead of independent samples. Zero on a cold
				// start, so non-restored runs keep their exact historic
				// streams (and stay bit-identical with pre-store builds).
				salt = res.Epoch * 0x9E3779B97F4A7C15
				// Adopt the stored sketch only when it matches this config's
				// sketch parameters and does not claim more instances than
				// the restored sample holds; anything else (different K,
				// different seed, stale record) falls back to a rebuild —
				// a sketch is always recomputable from the RR sample.
				if cfg.SketchK >= 0 {
					if rsk, _, skErr := st.RestoreSketch(n); skErr == nil &&
						rsk.Verify(n, skParams) == nil &&
						rsk.Theta() <= int64(res.R1.Count()) {
						s.sk = rsk
						s.skRestored = true
					}
				}
			} else if !errors.Is(err, store.ErrNoCheckpoint) {
				return nil, err
			}
		case st.Epochs() > 0:
			return nil, fmt.Errorf("serve: checkpoint directory %s already holds %d epochs; enable restore (dimmsrv -restore) to resume from it, or point at an empty directory", cfg.CheckpointDir, st.Epochs())
		}
	}
	// Only what the restore did not supply starts empty.
	for j := range s.mirrors {
		if s.mirrors[j].coll == nil {
			s.mirrors[j].coll = rrset.NewCollection(1 << 16)
		}
	}
	if cfg.SketchK >= 0 && s.sk == nil {
		if s.sk, err = sketch.New(n, skParams); err != nil {
			return nil, err
		}
	}

	pair := [2]*cluster.Cluster{cfg.C1, cfg.C2}
	if cfg.C1 == nil {
		// In-process workers respawn from their configs, so a failed
		// worker is replaced with a bit-identical replay instead of
		// taking the resident sample's growth down with it.
		pair, err = core.NewClusterPair(cluster.WorkerConfig{
			Graph:       cfg.Graph,
			Model:       cfg.Model,
			Subset:      cfg.Subset,
			Seed:        cfg.Seed ^ salt,
			Parallelism: par,
			Batch:       cfg.Batch,
		}, cfg.Machines, cluster.Recovery{Retries: cfg.Retries, Backoff: cfg.RetryBackoff})
		if err != nil {
			return nil, err
		}
	}
	for j := range s.mirrors {
		s.mirrors[j].cl = pair[j]
	}
	// Catch the sketch up to whatever the restore produced (a no-op on a
	// cold start, an incremental absorb when the stored sketch lags the
	// stored sample, a full build when only the sample restored).
	s.updateSketch()
	return s, nil
}

// errClosed is every call's answer once Close has begun.
var errClosed = errors.New("serve: service is closed")

// Close shuts the worker clusters down and releases both mirrors'
// samples and indexes. It waits for an in-flight grower or updater and
// for queries reading the sample; queries, growth and updates after
// Close fail.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	s.mu.Lock()
	for _, m := range s.mirrors {
		m.coll.Release()
		if m.idx != nil {
			m.idx.Release()
		}
	}
	s.mu.Unlock()
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	// Close both clusters unconditionally and join the errors: an early
	// return on the first would leak the second's worker goroutines and
	// connections.
	var errs []error
	for _, m := range s.mirrors {
		errs = append(errs, m.cl.Close())
	}
	return errors.Join(errs...)
}

// Warm grows the resident sample until the hardest admissible query
// (KMax, EpsFloor) is certified, so subsequent queries are served with
// zero generation. Returns that query's answer.
func (s *Service) Warm() (*Answer, error) {
	return s.Query(s.cfg.KMax, s.cfg.EpsFloor)
}

// KMax returns the largest admissible query seed-set size.
func (s *Service) KMax() int { return s.cfg.KMax }

// EpsFloor returns the tightest admissible query ε.
func (s *Service) EpsFloor() float64 { return s.cfg.EpsFloor }

// Query answers an influence-maximization query: k seeds with a
// certified (1 − 1/e − ε)-approximation. It reuses the resident sample
// when the certificate suffices and grows it otherwise, up to the
// (KMax, EpsFloor) cap — at the cap the answer carries the best
// certificate the worst-case-sized sample supports (the IMM guarantee
// still applies to it with probability 1 − δ).
func (s *Service) Query(k int, eps float64) (*Answer, error) {
	if k < 1 || k > s.cfg.KMax {
		return nil, badQueryf("serve: k=%d outside [1, kmax=%d]", k, s.cfg.KMax)
	}
	if eps < s.cfg.EpsFloor || eps >= 1 {
		return nil, badQueryf("serve: eps=%v outside [floor=%v, 1)", eps, s.cfg.EpsFloor)
	}
	if s.closed.Load() {
		return nil, errClosed
	}
	if s.updateDebt.Load() {
		// A graph update partially applied: the master graph moved past
		// the resident mirror, so certificates no longer describe the
		// current graph. Refuse with a retry hint until an update retry
		// (idempotent, version-gated) heals the state.
		s.stats.degraded.Inc()
		return nil, &DegradedError{RetryAfter: degradeRetryAfter,
			Err: fmt.Errorf("serve: resident sample behind the graph after an interrupted update; retry the update")}
	}
	if ans, ok := s.cache.get(k, eps); ok {
		s.stats.queries.Inc()
		s.stats.cacheHits.Inc()
		hit := *ans
		hit.Cached = true
		return &hit, nil
	}
	target := 1 - 1/math.E - eps
	for grew := 0; ; grew++ {
		ans, done, err := s.tryServe(k, eps, target, grew)
		if err != nil {
			return nil, err
		}
		if done {
			return ans, nil
		}
		if err := s.grow(ans.Epoch); err != nil {
			return nil, err
		}
	}
}

// QueryMode is Query: seed queries have one answer path, and the mode
// is ignored. It survives only because the repository benchmark calls
// it; delete it in the next change to benchmark/.
func (s *Service) QueryMode(k int, eps float64, _ Mode) (*Answer, error) {
	return s.Query(k, eps)
}

// tryServe attempts one selection + certification pass over the current
// resident sample. done=false means the certificate fell short and the
// sample can still grow; the returned answer then only carries the epoch
// the attempt saw.
func (s *Service) tryServe(k int, eps, target float64, grew int) (*Answer, bool, error) {
	s.mu.RLock()
	epoch := s.epoch
	gver := s.gver
	m := &s.mirrors[selSample]
	theta := int64(m.coll.Count())
	if theta == 0 {
		s.mu.RUnlock()
		return &Answer{Epoch: epoch}, false, nil
	}
	sel, err := core.SelectFromSample(m.coll, m.idx, s.n, k)
	if err != nil {
		s.mu.RUnlock()
		return nil, false, err
	}
	cov2s := prefixCoverage(s.mirrors[certSample].idx, sel.Seeds)
	s.mu.RUnlock()

	// Certify every greedy prefix, not just the queried k. Small prefixes
	// are the binding constraint (few covered sets → relatively more
	// Chernoff slack), and greedy prefix consistency means a later query
	// with k' < k at eps' ≥ eps returns exactly Seeds[:k'] — so once all
	// prefixes certify here, that later query is guaranteed to be served
	// from the resident sample with zero new RR generation.
	var cert imm.Certificate
	allPass := true
	var cov1 int64
	for i := 0; i < k; i++ {
		cov1 += sel.Marginals[i]
		cert = imm.CertifyOPIM(s.n, theta, cov1, cov2s[i], s.budget.TailMass)
		if cert.Ratio < target {
			allPass = false
		}
	}
	cov2 := cov2s[k-1]
	if !allPass && theta < s.budget.ThetaMax {
		return &Answer{Epoch: epoch}, false, nil
	}
	ans := &Answer{
		K:            k,
		Eps:          eps,
		Seeds:        sel.Seeds,
		Mode:         ModeCertified,
		Epoch:        epoch,
		GraphVersion: gver,
		Theta:        theta,
		SpreadLower:  cert.SpreadLower,
		OptUpper:     cert.OptUpper,
		Ratio:        cert.Ratio,
		EstSpread:    float64(s.n) * float64(cov2) / float64(theta),
		GrowRounds:   grew,
	}
	s.cache.put(k, eps, ans)
	s.stats.queries.Inc()
	if grew == 0 {
		s.stats.reuseHits.Inc()
	}
	return ans, true, nil
}

// prefixCoverage returns, for each prefix seeds[:i+1], the number of the
// index's RR sets it covers, through the greedy's own cover kernel over a
// per-query bitset of one bit per RR set. Caller holds mu (read).
func prefixCoverage(idx *rrset.Index, seeds []uint32) []int64 {
	covered := bitset.New(idx.Count())
	out := make([]int64, len(seeds))
	var n int64
	for i, u := range seeds {
		n += idx.Cover(covered, u)
		out[i] = n
	}
	return out
}

// published reads the published sample's size θ (per collection) and
// its epoch.
func (s *Service) published() (theta int64, epoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(s.mirrors[selSample].coll.Count()), s.epoch
}

// grow extends the resident sample by one doubling round (θ → 2θ, or to
// θ₀ from empty), unless another grower already moved past fromEpoch.
// Cluster generation and the incremental fetch run outside the epoch
// lock; the write lock covers only the append + index extension.
func (s *Service) grow(fromEpoch uint64) error {
	s.growMu.Lock()
	defer s.growMu.Unlock()

	cur, epoch := s.published()
	if epoch != fromEpoch {
		return nil // a concurrent query grew the sample; re-evaluate
	}
	if s.closed.Load() {
		return errClosed
	}
	targetTheta := cur * 2
	if cur == 0 {
		targetTheta = s.budget.Theta0
	}
	if targetTheta > s.budget.ThetaMax {
		targetTheta = s.budget.ThetaMax
	}
	add := targetTheta - cur
	if add <= 0 {
		return fmt.Errorf("serve: resident sample already at its %d cap", s.budget.ThetaMax)
	}

	// Each sample's new sets. A failure anywhere publishes nothing and
	// moves no mirror's fetch cursors.
	var incs [2]mirror
	s.clusterMu.Lock()
	err := func() error {
		for j := range s.mirrors {
			m := &s.mirrors[j]
			st, err := m.cl.Generate(add)
			if err != nil {
				return fmt.Errorf("serve: growing R%d: %w", j+1, err)
			}
			// The workers report batch counters cumulative since their
			// start, so overwrite (not add) the last-seen values.
			s.batchMu.Lock()
			m.batch = st.Batch
			s.genCalls++
			s.batchMu.Unlock()
			if incs[j], err = m.fetch(m.fetched); err != nil {
				return fmt.Errorf("serve: fetching R%d increment: %w", j+1, err)
			}
		}
		return nil
	}()
	s.clusterMu.Unlock()
	if err != nil {
		releaseFetched(incs)
		return s.degraded(err)
	}
	s.stats.generated.Add(int64(incs[selSample].coll.Count() + incs[certSample].coll.Count()))
	s.stats.growRounds.Inc()

	s.mu.Lock()
	err = func() error {
		for j := range s.mirrors {
			if err := s.mirrors[j].extend(incs[j], s.n); err != nil {
				return err
			}
		}
		s.epoch++
		s.cache.advance(s.epoch)
		return nil
	}()
	s.mu.Unlock()
	// The mirrors hold copies now: free the increments before the sketch
	// absorb and the checkpoint run.
	releaseFetched(incs)
	if err != nil {
		return err
	}
	s.updateSketch()
	s.maybeCheckpoint()
	return nil
}

// updateSketch absorbs the RR instances appended since the last absorb
// into the fast tier's bottom-k sketches. Runs after growth, under growMu
// (or inside New) with the epoch write lock already released: every
// writer of a mirror holds growMu, so the snapshot stays valid while
// seed queries proceed, and fast spread readers block only on sketchMu
// for the absorb itself. No-op when the tier is disabled or nothing was
// appended.
func (s *Service) updateSketch() {
	if s.cfg.SketchK < 0 {
		return
	}
	s.mu.RLock()
	snap := s.mirrors[selSample].coll.Snapshot()
	s.mu.RUnlock()
	s.sketchMu.Lock()
	start := time.Now()
	added := core.BuildSketch(s.sk, snap, s.par)
	d := time.Since(start)
	s.sketchMu.Unlock()
	if added > 0 {
		s.stats.skBuild.ObserveDuration(d)
		s.clusterMu.Lock()
		s.mirrors[selSample].cl.AddSketchBuild(d)
		s.clusterMu.Unlock()
	}
}

// maybeCheckpoint appends the RR sets this growth epoch produced to the
// durable store. It runs under growMu with the epoch write lock already
// released: the collections are append-only and this grower is the only
// appender, so reading them unlocked is safe, and checkpoint I/O never
// blocks concurrent queries. A checkpoint failure is recorded in the
// counters but never fails the query that triggered the growth — the
// in-memory sample is authoritative, the store is a warm-start cache.
func (s *Service) maybeCheckpoint() {
	if s.st == nil {
		return
	}
	start := time.Now()
	n, err := s.st.Checkpoint(s.epoch, s.mirrors[selSample].coll, s.mirrors[certSample].coll)
	s.stats.ckptNanos.AddDuration(time.Since(start))
	if err != nil {
		s.stats.ckptErrors.Inc()
		return
	}
	if n > 0 {
		s.stats.ckptEpochs.Inc()
		s.stats.ckptBytes.Add(n)
	}
	if s.cfg.SketchK >= 0 {
		// The sketch segment is superseded, not appended: it is a pure
		// function of (params, absorbed prefix), so only the newest one
		// matters. Same failure policy as the RR checkpoint — the
		// in-memory sketch is authoritative.
		s.sketchMu.RLock()
		start = time.Now()
		nsk, err := s.st.CheckpointSketch(s.epoch, s.sk)
		s.sketchMu.RUnlock()
		s.stats.ckptNanos.AddDuration(time.Since(start))
		if err != nil {
			s.stats.ckptErrors.Inc()
			return
		}
		s.stats.ckptBytes.Add(nsk)
	}
}

// SpreadSketch estimates σ(seeds) from the bottom-k sketches alone —
// GET /v1/spread?mode=fast. It never touches the RR sample, its lock, or
// the worker clusters: the only synchronization is sketchMu (read), so
// fast spread reads proceed at full concurrency while seed queries
// select, grow, or checkpoint. Returns the estimate and the estimator's
// relative standard error ≈ 1/√(K−2).
func (s *Service) SpreadSketch(seeds []uint32) (est, relStdErr float64, err error) {
	if s.cfg.SketchK < 0 {
		return 0, 0, badQueryf("serve: fast tier disabled (sketch-k < 0)")
	}
	if len(seeds) == 0 {
		return 0, 0, badQueryf("serve: empty seed set")
	}
	for _, u := range seeds {
		if int(u) >= s.n {
			return 0, 0, badQueryf("serve: seed %d outside the %d-node graph", u, s.n)
		}
	}
	s.sketchMu.RLock()
	defer s.sketchMu.RUnlock()
	if s.sk.Theta() == 0 {
		return 0, 0, &DegradedError{
			RetryAfter: time.Second,
			Err:        fmt.Errorf("serve: sketch tier cold: no RR instances absorbed yet (query or warm first)"),
		}
	}
	est, evals := s.sk.EstimateSpreadSet(seeds)
	s.stats.skEstimates.Add(int64(evals))
	s.stats.fastSpreads.Inc()
	return est, s.sk.RelStdErr(), nil
}

// Spread estimates σ(seeds) by forward Monte-Carlo simulation on the
// warm R1 cluster (the distributed estimation service of §II-B),
// returning the mean and its standard error.
func (s *Service) Spread(seeds []uint32, rounds int64) (mean, stderr float64, err error) {
	if len(seeds) == 0 {
		return 0, 0, badQueryf("serve: empty seed set")
	}
	if rounds < 1 || rounds > 10_000_000 {
		return 0, 0, badQueryf("serve: rounds=%d outside [1, 1e7]", rounds)
	}
	for _, u := range seeds {
		if int(u) >= s.n {
			return 0, 0, badQueryf("serve: seed %d outside the %d-node graph", u, s.n)
		}
	}
	if s.closed.Load() {
		return 0, 0, errClosed
	}
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	mean, stderr, err = s.mirrors[selSample].cl.EstimateSpread(seeds, rounds)
	return mean, stderr, s.degraded(err)
}

// Stats is a point-in-time snapshot of the service, the payload of
// GET /statsz.
type Stats struct {
	Epoch       uint64  `json:"epoch"`
	Theta       int64   `json:"theta"`
	ThetaMax    int64   `json:"theta_max"`
	TotalRRSize int64   `json:"total_rr_size"` // summed cardinality, R1 + R2
	KMax        int     `json:"k_max"`
	EpsFloor    float64 `json:"eps_floor"`

	Queries    int64 `json:"queries"`
	CacheHits  int64 `json:"cache_hits"`
	ReuseHits  int64 `json:"reuse_hits"`
	GrowRounds int64 `json:"grow_rounds"`
	Generated  int64 `json:"generated"`

	// Fast-tier figures: the sketch's configuration and progress (zero
	// K = tier disabled), build passes and their wall time, estimator
	// evaluations served, and fast-mode spread queries.
	SketchK            int     `json:"sketch_k"`
	SketchTheta        int64   `json:"sketch_theta"`
	SketchRestored     bool    `json:"sketch_restored"`
	SketchBuilds       int64   `json:"sketch_builds"`
	SketchBuildSeconds float64 `json:"sketch_build_seconds"`
	SketchEstimates    int64   `json:"sketch_estimates"`
	FastSpreadQueries  int64   `json:"fast_spread_queries"`

	// Durable-store figures: what startup replayed and what the
	// checkpoint hook has written since (all zero with no CheckpointDir).
	Restored          bool    `json:"restored"`
	RestoredEpochs    int     `json:"restored_epochs"`
	RestoredTheta     int64   `json:"restored_theta"`
	CheckpointEpochs  int64   `json:"checkpoint_epochs"`
	CheckpointBytes   int64   `json:"checkpoint_bytes"`
	CheckpointErrors  int64   `json:"checkpoint_errors"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`

	// Batched-sampling figures, aggregated over both clusters' workers:
	// how effectively the frontier-batched kernel amortized adjacency
	// reads while growing the resident sample (all zero with -batch 1).
	// BatchStreams counts the sampler calls that generated anything (its
	// JSON name is the cohort counter's it replaced); WavesPerGenerate
	// is Batch.Waves over generate broadcasts; FrontierOccupancy is
	// LaneWaves/(Waves·B) — the fraction of lanes holding a set while
	// waves ran (they idle only while the emit ring is full or a call
	// drains).
	BatchWidth        int     `json:"batch_width"`
	BatchStreams      int64   `json:"batch_cohorts"`
	BatchWaves        int64   `json:"batch_waves"`
	BatchItems        int64   `json:"batch_frontier_items"`
	SkippedEdges      int64   `json:"batch_skipped_edges"`
	WavesPerGenerate  float64 `json:"batch_waves_per_generate"`
	FrontierOccupancy float64 `json:"batch_frontier_occupancy"`

	// Fault-tolerance figures: per-worker liveness and respawn-attempt
	// and failover counters for the two clusters, and how many requests
	// were refused 503 because worker capacity was lost.
	R1Workers []cluster.WorkerHealth `json:"r1_workers"`
	R2Workers []cluster.WorkerHealth `json:"r2_workers"`
	Degraded  int64                  `json:"degraded"`

	// Dynamic-graph figures: the graph-update sequence number the
	// published sample reflects, how many update batches were applied,
	// how many resident RR sets were repaired in place, how many updates
	// fell back to a full re-mirror of the workers' samples, and whether
	// an interrupted update is currently degrading queries (healed by
	// retrying the same batch).
	GraphVersion uint64 `json:"graph_version"`
	Updates      int64  `json:"updates"`
	RepairedSets int64  `json:"repaired_rr_sets"`
	Remirrors    int64  `json:"remirrors"`
	UpdateDebt   bool   `json:"update_debt"`

	InFlight int64                       `json:"in_flight"`
	Rejected int64                       `json:"rejected"`
	Uptime   float64                     `json:"uptime_seconds"`
	Endpoint map[string]EndpointSnapshot `json:"endpoints"`
}

// MetricsSnapshot exports the raw metric registries behind /statsz: the
// service's own registry merged with the two clusters' registries under
// "r1." / "r2." prefixes. Cluster snapshots read only local atomics —
// no worker RPCs — so this is safe to call concurrently with queries.
func (s *Service) MetricsSnapshot() metrics.Snapshot {
	snap := s.reg.Snapshot()
	for j, m := range s.mirrors {
		snap.Merge(fmt.Sprintf("r%d.", j+1), m.cl.MetricsSnapshot())
	}
	return snap
}

// Stats snapshots the counters. The sample figures are read under the
// epoch lock, so a concurrent grower is never blocked for longer than a
// few field loads.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	epoch := s.epoch
	gver := s.gver
	theta := int64(s.mirrors[selSample].coll.Count())
	var totalRRSize int64
	for _, m := range s.mirrors {
		totalRRSize += m.coll.TotalSize()
	}
	s.mu.RUnlock()
	st := Stats{
		Epoch:       epoch,
		Theta:       theta,
		ThetaMax:    s.budget.ThetaMax,
		TotalRRSize: totalRRSize,
		KMax:        s.cfg.KMax,
		EpsFloor:    s.cfg.EpsFloor,
		Queries:     s.stats.queries.Value(),
		CacheHits:   s.stats.cacheHits.Value(),
		ReuseHits:   s.stats.reuseHits.Value(),
		GrowRounds:  s.stats.growRounds.Value(),
		Generated:   s.stats.generated.Value(),

		SketchRestored:     s.skRestored,
		SketchBuilds:       s.stats.skBuild.Count(),
		SketchBuildSeconds: float64(s.stats.skBuild.Sum()) / 1e9,
		SketchEstimates:    s.stats.skEstimates.Value(),
		FastSpreadQueries:  s.stats.fastSpreads.Value(),

		Restored:          s.restoredTheta > 0,
		RestoredEpochs:    s.restoredEpochs,
		RestoredTheta:     s.restoredTheta,
		CheckpointEpochs:  s.stats.ckptEpochs.Value(),
		CheckpointBytes:   s.stats.ckptBytes.Value(),
		CheckpointErrors:  s.stats.ckptErrors.Value(),
		CheckpointSeconds: float64(s.stats.ckptNanos.Value()) / 1e9,

		// Cluster health has its own lock, so snapshotting it never waits
		// on an in-flight grow round's RPCs.
		R1Workers: s.mirrors[selSample].cl.Health(),
		R2Workers: s.mirrors[certSample].cl.Health(),
		Degraded:  s.stats.degraded.Value(),

		GraphVersion: gver,
		Updates:      s.stats.updates.Value(),
		RepairedSets: s.stats.repairedSets.Value(),
		Remirrors:    s.stats.remirrors.Value(),
		UpdateDebt:   s.updateDebt.Load(),

		InFlight: int64(len(s.sem)),
		Rejected: s.http.rejected.Value(),
		Uptime:   time.Since(s.http.started).Seconds(),
		Endpoint: s.http.snapshot(),
	}
	if s.cfg.SketchK >= 0 {
		s.sketchMu.RLock()
		st.SketchK = s.sk.K()
		st.SketchTheta = s.sk.Theta()
		s.sketchMu.RUnlock()
	}
	var batch rrset.BatchStats
	s.batchMu.Lock()
	for _, m := range s.mirrors {
		batch.Add(m.batch)
	}
	genCalls := s.genCalls
	s.batchMu.Unlock()
	st.BatchWidth = s.batch
	st.BatchStreams = batch.Streams
	st.BatchWaves = batch.Waves
	st.BatchItems = batch.FrontierItems
	st.SkippedEdges = batch.SkippedEdges
	if genCalls > 0 {
		st.WavesPerGenerate = float64(batch.Waves) / float64(genCalls)
	}
	if batch.Waves > 0 && s.batch > 0 {
		st.FrontierOccupancy = float64(batch.LaneWaves) / (float64(batch.Waves) * float64(s.batch))
	}
	return st
}
