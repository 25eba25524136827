package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dimm/internal/rrset"
)

// This file is the guarantee-preserving failover layer (ISSUE 5). The
// paper's Corollary 1 makes worker failure recoverable by construction:
// every machine samples i.i.d. RR sets from its own seeded stream, so a
// lost shard can be reproduced exactly (replay the same stream on a
// replacement) or replaced statistically (sample fresh epoch-salted
// streams on survivors) without biasing the sample — and therefore
// without touching the (1 − 1/e − ε) approximation argument, which only
// needs the pooled sample to be i.i.d. RR sets of the right count.
//
// Two recovery tiers, tried in order:
//
//  1. Failover (replay): Respawn a replacement connection for the failed
//     worker and replay its acknowledged state-mutating requests — the
//     generation history (whose counts determine the deterministic
//     sharded streams exactly), ingested lists, the degree-delta cursor,
//     and any in-progress selection prefix. The replacement ends up
//     bit-identical to the lost worker, the failed call is re-issued,
//     and the cluster's results are byte-identical to a fault-free run.
//  2. Quarantine + rebalance: if respawn itself keeps failing, the
//     worker is quarantined and the RR sets the master still needed from
//     it are regenerated on survivors under fresh epoch-salted stream
//     seeds (msgGenerateAux), then the baseline degree vector is rebuilt
//     from scratch. The pooled sample keeps its size and i.i.d. law, so
//     certificates and the approximation guarantee survive; only
//     byte-level reproducibility is given up (documented in DESIGN.md).

// Recovery configures the failover layer; install it with
// Cluster.EnableRecovery immediately after constructing the cluster,
// before any state-changing call (the replay log starts empty).
type Recovery struct {
	// Respawn produces a fresh connection to a replacement for worker i:
	// a redial for TCP workers, a newly constructed Worker for local
	// ones. The returned conn must reach an empty worker (Serve builds
	// one per accepted connection; NewLocalConn callers construct one).
	Respawn func(worker int) (Conn, error)
	// Retries is the exact number of respawn attempts per failure before
	// the worker is quarantined (<= 0: DefaultRetries). Backoff is the
	// sleep before the first attempt (<= 0: DefaultRetryBackoff); it
	// doubles per attempt up to 64 × Backoff, with full jitter, so
	// masters reconnecting to one restarting worker spread out.
	Retries int
	Backoff time.Duration
	// Salt seeds the auxiliary rebalance streams. Any value works (the
	// streams are salted per failure epoch on top of it); reuse the
	// run's base seed for reproducible experiments.
	Salt uint64
}

// Defaults for Recovery's zero values.
const (
	DefaultRetries      = 3
	DefaultRetryBackoff = 50 * time.Millisecond
)

// normalized fills in the default retry schedule.
func (r Recovery) normalized() Recovery {
	if r.Retries <= 0 {
		r.Retries = DefaultRetries
	}
	if r.Backoff <= 0 {
		r.Backoff = DefaultRetryBackoff
	}
	return r
}

// backoff returns the sleep before respawn attempt (counted from 1):
// Backoff doubled per earlier attempt, capped at 64 × Backoff, drawn
// uniformly from [d/2, d). The draw uses math/rand's global source;
// backoff timing never reaches a sampled stream.
func (r *Recovery) backoff(attempt int) time.Duration {
	d := r.Backoff << min(attempt-1, 6)
	return d/2 + time.Duration(rand.Int63n(int64(d/2+1)))
}

// workerLog is the master-side replay journal for one worker: everything
// needed to rebuild the worker's state on a replacement, and the cursors
// that bound what a quarantine actually loses.
type workerLog struct {
	// ops holds the acknowledged state-mutating request frames in issue
	// order: msgGenerate, msgGenerateAux and msgIngest. Replaying them
	// against a fresh worker reproduces the collection bit for bit: each
	// op appends the next sets of the worker's own stream, of a salted
	// rebalance stream, or ingested lists, so their order matters.
	ops []([]byte)
	// sampled counts RR sets from generate/generateAux ops; ingested
	// counts list entries from ingest ops. Their sum is the worker's
	// collection size.
	sampled  int64
	ingested int64
	// synced is the collection prefix whose coverage is folded into the
	// master's baseline degree vector (the worker's msgDegreeDelta
	// cursor, mirrored master-side so a replacement can be repositioned
	// with msgSetReported).
	synced int64
	// fetched is the FetchNewSpans cursor: RR sets the master already holds a
	// copy of. A quarantined worker only loses [fetched, count) — the
	// suffix rebalance regenerates on survivors.
	fetched int64
	// origin is the worker's own-stream ordinal when the journal began:
	// msgReset keeps a worker's stream position, so after a Reset its
	// next msgGenerate draws from where the last one stopped, not from
	// ordinal 0. own counts the sets msgGenerate ops drew from that
	// stream since (rebalance streams and ingest do not advance it).
	// Reset carries origin + own over; a replacement sent msgReset is
	// positioned there with msgSeek before the replay.
	origin int64
	own    int64
}

func (lg *workerLog) count() int64 { return lg.sampled + lg.ingested }

// ErrNoLiveWorkers reports a cluster whose every worker is quarantined;
// no query can be answered until one is reinstated (Reset respawns).
var ErrNoLiveWorkers = errors.New("cluster: no live workers")

// RebalancedError reports that a worker was lost mid-selection and its
// shard regenerated on survivors: the greedy's degree vector no longer
// matches the (repaired) cluster state, so the caller must restart the
// selection from InitialDegrees. The repaired baseline is already in
// place — a restarted run sees a consistent sample of the original size.
type RebalancedError struct {
	Quarantined []int // workers quarantined during the failed round
}

func (e *RebalancedError) Error() string {
	return fmt.Sprintf("cluster: workers %v quarantined mid-selection; sample rebalanced, restart the greedy", e.Quarantined)
}

// IsWorkerLoss reports whether err means worker capacity was lost in a
// way retries cannot fix right now: the whole cluster is down, or a
// selection must be restarted after a rebalance. The serve layer maps
// these to 503 + Retry-After.
func IsWorkerLoss(err error) bool {
	var reb *RebalancedError
	return errors.Is(err, ErrNoLiveWorkers) || errors.As(err, &reb)
}

// WorkerHealth is one worker's liveness and fault counters, exposed by
// serve's /statsz. Retries counts respawn attempts, Failovers the ones
// that succeeded.
type WorkerHealth struct {
	Worker    int    `json:"worker"`
	Up        bool   `json:"up"`
	Retries   int64  `json:"retries"`
	Failovers int64  `json:"failovers"`
	LastError string `json:"last_error,omitempty"`
}

// EnableRecovery installs the failover layer. Call it on a freshly
// constructed cluster, before any state-changing request: the replay
// journal starts recording at installation, so earlier worker state
// could not be reproduced on a replacement.
func (c *Cluster) EnableRecovery(rec Recovery) error {
	if rec.Respawn == nil {
		return fmt.Errorf("cluster: Recovery.Respawn is required")
	}
	rec = rec.normalized()
	c.rec = &rec
	c.dead = make([]bool, len(c.conns))
	c.logs = make([]workerLog, len(c.conns))
	c.failovers = make([]int64, len(c.conns))
	c.ctlRetries = make([]int64, len(c.conns))
	c.lastErrs = make([]string, len(c.conns))
	return nil
}

// Health snapshots per-worker liveness and fault counters. Safe to call
// concurrently with cluster operations (serve's /statsz does).
func (c *Cluster) Health() []WorkerHealth {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	out := make([]WorkerHealth, len(c.conns))
	for i := range c.conns {
		h := WorkerHealth{Worker: i, Up: true}
		if c.rec != nil {
			h.Up = !c.dead[i]
			h.Failovers = c.failovers[i]
			h.Retries = c.ctlRetries[i]
			h.LastError = c.lastErrs[i]
		}
		out[i] = h
	}
	return out
}

// liveIndexes returns the indexes of workers not quarantined.
func (c *Cluster) liveIndexes() []int {
	live := make([]int, 0, len(c.conns))
	for i := range c.conns {
		if c.rec == nil || !c.dead[i] {
			live = append(live, i)
		}
	}
	return live
}

// record journals an acknowledged state-mutating request frame for
// worker i (no-op without recovery). The frame is copied: callers may
// reuse buffers.
func (c *Cluster) record(i int, req []byte, sampled, ingested int64) {
	if c.rec == nil {
		return
	}
	op := make([]byte, len(req))
	copy(op, req)
	lg := &c.logs[i]
	lg.ops = append(lg.ops, op)
	lg.sampled += sampled
	lg.ingested += ingested
	if op[0] == msgGenerate {
		lg.own += sampled
	}
}

// seekConn positions a fresh worker's own stream at origin (no call when
// it is 0, where every worker starts).
func seekConn(conn Conn, origin int64) error {
	if origin == 0 {
		return nil
	}
	resp, err := conn.Call(encodeSeekReq(origin))
	if err != nil {
		return err
	}
	_, err = decodeAckResp(resp) // surfaces msgError replies
	return err
}

// failover tries to replace worker i's connection with a respawned,
// resynced one and re-issue the failed request. On success the new conn
// is adopted and the response returned; on failure the caller
// quarantines the worker. This is the cluster's only retry loop: each
// failure costs at most Retries respawns.
func (c *Cluster) failover(i int, req []byte, cause error) ([]byte, error) {
	last := cause
	for attempt := 1; attempt <= c.rec.Retries; attempt++ {
		time.Sleep(c.rec.backoff(attempt))
		c.healthMu.Lock()
		c.ctlRetries[i]++
		c.healthMu.Unlock()
		conn, err := c.rec.Respawn(i)
		if err != nil {
			last = fmt.Errorf("respawn: %w", err)
			continue
		}
		if err := c.resyncConn(i, conn); err != nil {
			_ = conn.Close()
			last = fmt.Errorf("resync: %w", err)
			continue
		}
		resp, err := conn.Call(req)
		if err != nil {
			_ = conn.Close()
			last = err
			continue
		}
		c.adoptConn(i, conn)
		c.healthMu.Lock()
		c.failovers[i]++
		c.lastErrs[i] = cause.Error()
		c.healthMu.Unlock()
		return resp, nil
	}
	return nil, last
}

// resyncConn rebuilds worker i's state on a fresh connection by
// replaying the journal: reset, the stream origin, every acknowledged
// state-mutating frame in order (reproducing the deterministic streams
// exactly), the degree-delta cursor, and — when a selection is in
// progress — the relabel plus every seed already selected. After this
// the replacement is bit-identical to the lost worker at the instant
// before the failed call.
func (c *Cluster) resyncConn(i int, conn Conn) error {
	ack := func(req []byte) error {
		resp, err := conn.Call(req)
		if err != nil {
			return err
		}
		_, _, err = decodeRespHeader(resp) // surfaces msgError replies
		return err
	}
	if err := ack(encodeSimpleReq(msgReset)); err != nil {
		return err
	}
	lg := &c.logs[i]
	if err := seekConn(conn, lg.origin); err != nil {
		return err
	}
	for _, op := range lg.ops {
		if err := ack(op); err != nil {
			return err
		}
	}
	if err := ack(encodeSetReportedReq(lg.synced)); err != nil {
		return err
	}
	if c.selecting {
		if err := ack(encodeSimpleReq(msgBeginSelect)); err != nil {
			return err
		}
		for _, u := range c.selSeeds {
			if err := ack(encodeSelectReq(u)); err != nil {
				return err
			}
		}
	}
	return nil
}

// adoptConn swaps worker i's connection for a replacement, folding the
// retired conn's byte counters into the cluster totals.
func (c *Cluster) adoptConn(i int, conn Conn) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if old := c.conns[i]; old != nil {
		s, r := old.Bytes()
		c.retiredSent += s
		c.retiredRecv += r
		_ = old.Close()
	}
	c.conns[i] = conn
	c.dead[i] = false
}

// quarantine marks worker i dead: later broadcasts skip it until Reset
// manages to respawn it.
func (c *Cluster) quarantine(i int, cause error) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if c.dead[i] {
		return
	}
	c.dead[i] = true
	c.lastErrs[i] = cause.Error()
	c.retiredBatch.Add(c.batchLast[i])
	c.batchLast[i] = rrset.BatchStats{}
	if old := c.conns[i]; old != nil {
		s, r := old.Bytes()
		c.retiredSent += s
		c.retiredRecv += r
		_ = old.Close()
	}
}

// repair restores the cluster invariants after quarantines: regenerate
// what the quarantined workers still owed the master on survivors, then
// rebuild the baseline degree vector from scratch. extraLost[d] adds
// in-flight generation counts that died with worker d before being
// journaled. Loops because a survivor can fail during the repair itself;
// each iteration quarantines at least one more worker, so it terminates.
func (c *Cluster) repair(downs []int, extraLost map[int]int64) error {
	for len(downs) > 0 {
		if err := c.rebalanceLost(downs, extraLost); err != nil {
			return err
		}
		extraLost = nil
		var err error
		downs, err = c.rebuildBaseline()
		if err != nil {
			return err
		}
	}
	return nil
}

// rebalanceLost regenerates, on surviving workers, the RR sets the
// master still needed from each quarantined worker: the unfetched suffix
// of its sampled stream plus any in-flight assignment, under fresh
// epoch-salted auxiliary seeds (i.i.d. with all other streams), and
// re-ingests its journaled explicit lists. The pooled sample keeps its
// exact size, so every certificate computed over it stays valid.
func (c *Cluster) rebalanceLost(downs []int, extraLost map[int]int64) error {
	pending := append([]int(nil), downs...)
	for len(pending) > 0 {
		d := pending[0]
		pending = pending[1:]
		live := c.liveIndexes()
		if len(live) == 0 {
			return fmt.Errorf("rebalancing worker %d: %w", d, ErrNoLiveWorkers)
		}
		lg := &c.logs[d]
		lost := lg.sampled - lg.fetched + extraLost[d]
		if lg.ingested > 0 && lg.fetched > 0 {
			// The fetch cursor counts a prefix of the interleaved
			// sampled+ingested collection, so "sampled minus fetched"
			// does not identify the lost sampled suffix. The two
			// workloads are never mixed in practice (fetch is the IM
			// serve path, ingest the max-coverage CLI); refuse rather
			// than double-count.
			return fmt.Errorf("cluster: worker %d mixed ingest with incremental fetch; cannot rebalance", d)
		}
		if lg.ingested > 0 {
			lost = lg.sampled + extraLost[d]
		}
		// Re-ingest journaled explicit lists onto a survivor. The master
		// holds the full frames, so ingested data needs no resampling —
		// replay is exact. A target that dies mid-ingest is queued like
		// any other quarantine and the frame retried on the next peer
		// (it was never journaled on the failed target, so no
		// duplication).
		for _, op := range lg.ops {
			if len(op) == 0 || op[0] != msgIngest {
				continue
			}
			for {
				live = c.liveIndexes()
				if len(live) == 0 {
					return fmt.Errorf("rebalancing worker %d: %w", d, ErrNoLiveWorkers)
				}
				tgt := live[0]
				reqs := make([][]byte, len(c.conns))
				reqs[tgt] = op
				resps, _, downs2, err := c.broadcast(reqs)
				if err != nil {
					return err
				}
				pending = append(pending, downs2...)
				if resps[tgt] != nil {
					if _, err := decodeAckResp(resps[tgt]); err != nil {
						return err
					}
					c.record(tgt, op, 0, ingestFrameLists(op))
					break
				}
			}
		}
		live = c.liveIndexes()
		if len(live) == 0 {
			return fmt.Errorf("rebalancing worker %d: %w", d, ErrNoLiveWorkers)
		}
		if lost < 0 {
			return fmt.Errorf("cluster: worker %d journal inconsistent (lost %d)", d, lost)
		}
		if lost == 0 {
			continue
		}
		// Fresh failure epoch -> fresh stream seeds, never reused.
		c.failEpoch++
		base := DeriveSeed(c.rec.Salt^(c.failEpoch*0x9E3779B97F4A7C15), d)
		per := lost / int64(len(live))
		extra := lost % int64(len(live))
		reqs := make([][]byte, len(c.conns))
		counts := make([]int64, len(c.conns))
		for idx, s := range live {
			n := per
			if int64(idx) < extra {
				n++
			}
			if n == 0 {
				continue
			}
			counts[s] = n
			reqs[s] = encodeGenerateAuxReq(DeriveSeed(base, idx), n)
		}
		resps, _, downs2, err := c.broadcast(reqs)
		if err != nil {
			return err
		}
		redo := map[int]int64{}
		for s := range resps {
			if reqs[s] == nil {
				continue
			}
			if resps[s] == nil {
				redo[s] = counts[s] // died mid-aux; its share is re-lost
				continue
			}
			if _, _, err := decodeStatsResp(resps[s]); err != nil {
				return fmt.Errorf("cluster: worker %d: %w", s, err)
			}
			c.record(s, reqs[s], counts[s], 0)
		}
		for _, nd := range downs2 {
			pending = append(pending, nd)
			if extraLost == nil {
				extraLost = map[int]int64{}
			}
			extraLost[nd] += redo[nd]
		}
	}
	return nil
}

// rebuildBaseline recomputes the master's baseline degree vector from
// scratch over the surviving workers: rewind every degree-delta cursor
// to zero, then fold one full re-report. O(total RR size) — the price of
// a quarantine, paid once per repair. Returns workers newly quarantined
// during the rebuild (the caller loops).
func (c *Cluster) rebuildBaseline() ([]int, error) {
	clear(c.baseDeg)
	resps, _, downs, err := c.broadcast(c.same(encodeSetReportedReq(0)))
	if err != nil {
		return nil, err
	}
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		if _, err := decodeAckResp(resp); err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		if c.rec != nil {
			c.logs[i].synced = 0
		}
	}
	if len(downs) > 0 {
		return downs, nil
	}
	resps, wall, downs, err := c.broadcast(c.same(encodeSimpleReq(msgDegreeDelta)))
	if err != nil {
		return nil, err
	}
	handlers := make([]time.Duration, len(resps))
	var buf []DeltaPair
	deg := c.degreeVec()
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, pairs, err := decodeDeltasResp(resp, buf, i)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		buf = pairs
		handlers[i] = time.Duration(nanos)
		c.countDeltaFrame(resp, pairs)
		for _, p := range pairs {
			if int(p.Node) >= c.numItems {
				return nil, fmt.Errorf("cluster: worker %d reported node %d outside item space", i, p.Node)
			}
			deg[p.Node] += int64(p.Dec)
		}
		if c.rec != nil {
			c.logs[i].synced = c.logs[i].count()
		}
	}
	c.account("sel", wall, handlers)
	if len(downs) > 0 {
		return downs, nil
	}
	return nil, nil
}

// ingestFrameLists counts the element lists in an encoded msgIngest
// frame (trusted: the frame was journaled after the worker acked it).
func ingestFrameLists(op []byte) int64 {
	if len(op) < 9 {
		return 0
	}
	_, rest, err := consumeU32(op[1:])
	if err != nil {
		return 0
	}
	n, _, err := consumeU32(rest)
	if err != nil {
		return 0
	}
	return int64(n)
}
