package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/graph"
	"dimm/internal/mutate"
	"dimm/internal/rrset"
	"dimm/internal/sketch"
)

// UpdateResult is one applied (or replayed) graph-update batch, the
// payload of POST /v1/update.
type UpdateResult struct {
	// Applied is false when the batch's sequence number was already
	// applied: the replay is acknowledged without re-executing, so a
	// client that lost an ACK can safely resend.
	Applied bool `json:"applied"`
	// Seq is the batch's sequence number (assigned when the request left
	// it zero) and GraphVersion the graph's version after the call; they
	// are equal whenever the batch applied.
	Seq          uint64 `json:"seq"`
	GraphVersion uint64 `json:"graph_version"`
	Ops          int    `json:"ops"`
	// Repaired counts the resident RR sets regenerated in place across
	// both mirrors; Remirrored reports the fallback where the mirrors
	// were refetched wholesale instead (a cluster rebalanced mid-update,
	// or a prior interrupted update left the mirror unsplicable).
	Repaired   int  `json:"repaired_rr_sets"`
	Remirrored bool `json:"remirrored"`
	// Theta and Epoch describe the published sample after the update:
	// Theta is unchanged by design (repair replaces sets one-for-one),
	// Epoch advances so caches and sketches tied to the pre-update
	// sample are invalidated.
	Theta int64  `json:"theta"`
	Epoch uint64 `json:"epoch"`
}

// Update applies a batch of edge mutations to the graph and repairs the
// resident RR sample in place (see internal/mutate and DESIGN.md): the
// clusters re-run exactly the lanes whose RR sets a mutated edge could
// have touched, the returned patches are spliced into the resident
// mirrors through the fetch-span translation table, and the epoch
// advances so every cache and sketch keyed to the old sample drops.
//
// Sequencing: seq must be Version()+1; zero asks the service to assign
// the next number. A batch at or below the current version is an
// idempotent replay — acknowledged, not re-executed — so clients retry
// the same batch after a lost ACK or a 503. If a previous update was
// interrupted after the graph advanced (updateDebt), the retry heals by
// refetching the mirrors wholesale.
//
// Update serializes with growth on growMu; queries keep being answered
// from the previous epoch until the single write-locked splice.
func (s *Service) Update(seq uint64, ops []graph.EdgeUpdate) (*UpdateResult, error) {
	if !s.cfg.Dynamic {
		return nil, badQueryf("serve: this service is static; start it with dynamic graphs enabled to accept updates")
	}
	if len(ops) == 0 {
		return nil, badQueryf("serve: empty update batch")
	}

	s.growMu.Lock()
	defer s.growMu.Unlock()
	if s.closed.Load() { // checked under growMu: Close releases the mirrors under it
		return nil, errClosed
	}

	g := s.cfg.Graph
	v := g.Version()
	if seq == 0 {
		seq = v + 1
	}
	debt := s.updateDebt.Load()
	switch {
	case seq == v+1:
		// The next batch in sequence: validate before anything mutates.
		if err := mutate.Validate(g, s.cfg.Model, mutate.Batch{Seq: seq, Ops: ops}); err != nil {
			return nil, badQueryf("serve: %v", err)
		}
	case seq <= v && !(debt && seq == v):
		// Already applied (and not the interrupted batch a retry must
		// heal): acknowledge the replay without touching anything.
		res := &UpdateResult{Applied: false, Seq: seq, GraphVersion: v, Ops: len(ops)}
		res.Theta, res.Epoch = s.published()
		return res, nil
	case seq == v && debt:
		// Retrying the interrupted batch: the master graph already
		// advanced, so skip validation (the ops are in the graph) and
		// re-broadcast — worker applies are idempotent no-ops where
		// already applied, and the mirror is healed below.
	default:
		return nil, badQueryf("serve: update seq %d out of order (graph is at version %d; next is %d)", seq, v, v+1)
	}
	batch := mutate.Batch{Seq: seq, Ops: ops}

	// Master-first apply, inside clusterMu: in-process workers share this
	// graph instance, so by the time their RPC handlers run, ApplyUpdates
	// sees an already-applied seq and no-ops with the memoized deltas —
	// the concurrent-apply race never happens. TCP workers hold their own
	// copies and apply for real.
	var patches [2][][]rrset.Patch // per sample, per worker
	s.clusterMu.Lock()
	err := func() error {
		if seq == v+1 {
			if _, _, err := g.ApplyUpdates(seq, ops); err != nil {
				return &BadQueryError{msg: fmt.Sprintf("serve: %v", err)}
			}
		}
		for j := range s.mirrors {
			var err error
			if patches[j], err = s.mirrors[j].cl.Update(batch); err != nil {
				return fmt.Errorf("serve: updating R%d: %w", j+1, err)
			}
		}
		return nil
	}()
	s.clusterMu.Unlock()

	var badQuery *BadQueryError
	if errors.As(err, &badQuery) {
		// The graph rejected the batch before mutating: nothing applied
		// anywhere, no debt.
		return nil, err
	}
	rebalanced := false
	if err != nil {
		var reb *cluster.RebalancedError
		if !errors.As(err, &reb) {
			// The graph advanced but a cluster did not finish its repair:
			// refuse queries until a retried update (same seq) heals.
			s.updateDebt.Store(true)
			return nil, s.degraded(err)
		}
		// A worker was quarantined mid-update and the cluster rebalanced
		// around it: its sample is whole and repaired, but the patch/span
		// bookkeeping no longer matches the mirror. Fall through to a
		// full re-mirror.
		rebalanced = true
	}

	repaired := 0
	for _, wps := range patches {
		for _, wp := range wps {
			repaired += len(wp)
		}
	}

	remirrored := rebalanced || debt
	if !remirrored {
		if err := s.splicePatches(patches); err != nil {
			// Splicing is best-effort: any mismatch between the spans and
			// the patches (should not happen) degrades to a re-mirror
			// rather than serving a half-patched sample.
			remirrored = true
		}
	}
	if remirrored {
		if err := s.remirror(); err != nil {
			s.updateDebt.Store(true)
			return nil, s.degraded(err)
		}
	}
	s.updateDebt.Store(false)
	s.stats.updates.Inc()
	s.stats.repairedSets.Add(int64(repaired))
	s.rebuildSketch()
	s.maybeCheckpointDelta(batch, repaired, remirrored)

	res := &UpdateResult{
		Applied:      true,
		Seq:          seq,
		GraphVersion: g.Version(),
		Ops:          len(ops),
		Repaired:     repaired,
		Remirrored:   remirrored,
	}
	res.Theta, res.Epoch = s.published()
	return res, nil
}

// splicePatches maps the per-worker repair patches onto resident-mirror
// positions through the fetch-span tables and applies them under the
// epoch write lock, republishing the sample at a new epoch. The indexes
// are patched in place (tombstone + overlay, see rrset.ApplyPatches on
// Index) rather than rebuilt — the O(changed) maintenance the repair
// path's latency budget lives on; any patch error degrades to a
// re-mirror via the caller.
func (s *Service) splicePatches(patches [2][][]rrset.Patch) error {
	var mapped [2][]rrset.Patch
	for j := range s.mirrors {
		var err error
		if mapped[j], err = mapWorkerPatches(s.mirrors[j].spans, patches[j]); err != nil {
			return fmt.Errorf("serve: splicing R%d patches: %w", j+1, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := range s.mirrors {
		if err := s.mirrors[j].patch(mapped[j]); err != nil {
			return err
		}
	}
	s.gver = s.cfg.Graph.Version()
	s.epoch++
	s.cache.advance(s.epoch)
	return nil
}

// mapWorkerPatches rebases worker-local patch positions onto the
// resident mirror through the recorded fetch spans. Every resident set
// was fetched through exactly one span, so the translation is total;
// a patch position outside every span means the mirror and the workers
// have diverged (the caller falls back to a re-mirror).
func mapWorkerPatches(spans []cluster.FetchSpan, patches [][]rrset.Patch) ([]rrset.Patch, error) {
	byWorker := make(map[int][]cluster.FetchSpan)
	for _, sp := range spans {
		byWorker[sp.Worker] = append(byWorker[sp.Worker], sp)
	}
	var out []rrset.Patch
	for w, wp := range patches {
		ws := byWorker[w]
		// Spans are recorded in fetch order, which is worker-position
		// order for any single worker.
		sort.Slice(ws, func(i, j int) bool { return ws[i].WorkerStart < ws[j].WorkerStart })
		for _, p := range wp {
			i := sort.Search(len(ws), func(i int) bool { return ws[i].WorkerStart+ws[i].Count > p.Pos })
			if i == len(ws) || p.Pos < ws[i].WorkerStart {
				return nil, fmt.Errorf("worker %d patch at %d outside every fetched span", w, p.Pos)
			}
			out = append(out, rrset.Patch{
				Pos:     ws[i].MasterStart + (p.Pos - ws[i].WorkerStart),
				Members: p.Members,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// remirror refetches both clusters' full samples into fresh mirrors —
// the recovery path when per-set splicing is impossible (a cluster
// rebalanced mid-update, or a previous update was interrupted). Runs
// under growMu; the swap itself holds the epoch write lock only for the
// pointer replacement and reindex.
func (s *Service) remirror() error {
	var fresh [2]mirror
	s.clusterMu.Lock()
	err := func() (err error) {
		for j := range s.mirrors {
			if fresh[j], err = s.mirrors[j].fetch(nil); err != nil {
				return fmt.Errorf("serve: re-mirroring R%d: %w", j+1, err)
			}
		}
		return nil
	}()
	s.clusterMu.Unlock()
	if err != nil {
		releaseFetched(fresh)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// No reader holds the replaced mirrors past the write lock, and the
	// grower and checkpointer are excluded by growMu: replace frees them.
	for j := range s.mirrors {
		if err := s.mirrors[j].replace(fresh[j], s.n); err != nil {
			return err
		}
	}
	s.gver = s.cfg.Graph.Version()
	s.epoch++
	s.cache.advance(s.epoch)
	s.stats.remirrors.Inc()
	return nil
}

// maybeCheckpointDelta records an applied update batch in the durable
// store as a graph-delta segment (see internal/store), keeping the
// on-disk history honest: the RR segments written before this update
// predate the in-place repairs, so the deltas both document what
// happened and mark the store unrestorable. Like maybeCheckpoint, a
// store failure is counted but never fails the update — the in-memory
// state is authoritative.
func (s *Service) maybeCheckpointDelta(b mutate.Batch, repaired int, remirrored bool) {
	if s.st == nil {
		return
	}
	_, epoch := s.published()
	start := time.Now()
	bytes, err := s.st.AppendDelta(epoch, b, repaired, remirrored)
	s.stats.ckptNanos.AddDuration(time.Since(start))
	if err != nil {
		s.stats.ckptErrors.Inc()
		return
	}
	s.stats.ckptBytes.Add(bytes)
}

// rebuildSketch replaces the fast tier's sketch set wholesale after a
// repair. The incremental absorb in updateSketch only ever appends the
// sample's new suffix; a repair rewrites sets in the absorbed prefix,
// which the bottom-k structure cannot un-absorb, so the repaired sample
// gets a fresh build with the same parameters. Runs under growMu, which
// keeps the snapshot valid. No-op when the tier is disabled.
func (s *Service) rebuildSketch() {
	if s.cfg.SketchK < 0 {
		return
	}
	s.mu.RLock()
	snap := s.mirrors[selSample].coll.Snapshot()
	s.mu.RUnlock()
	fresh, err := sketch.New(s.n, sketch.Params{K: s.sk.K(), Seed: s.sk.Seed()})
	if err != nil {
		return // unreachable: the same params built the current sketch
	}
	start := time.Now()
	core.BuildSketch(fresh, snap, s.par)
	d := time.Since(start)
	s.sketchMu.Lock()
	s.sk = fresh
	s.sketchMu.Unlock()
	s.stats.skBuild.ObserveDuration(d)
}
