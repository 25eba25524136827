package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"dimm/internal/checksum"
	"dimm/internal/mutate"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
	"dimm/internal/xrand"
)

// This file is the cluster side of the dynamic-graph subsystem
// (internal/mutate): broadcasting an edge-update batch to every worker
// and splicing each worker's incremental RR-shard repair back to the
// master.
//
// An update is a state-mutating broadcast like msgGenerate, so it rides
// the same machinery: journaled per worker for failover replay and
// retried through the failover ladder on connection loss. A repaired
// set's coverage may have changed, so each worker ships the net
// baseline-degree corrections alongside its patches and the master
// folds them in place — no full degree re-report.
// Replay determinism needs no special casing — a respawned replacement
// replays its generation ops against the *current* (already-mutated)
// graph, so its sets are born post-repair, and replaying the update
// frame afterwards is a version-gated no-op apply plus a value-idempotent
// recompute. The replayed worker converges to the exact bytes of the
// repaired original, which TestUpdateFailoverDeterminism asserts.

// updateRequestOffset is where an update request's batch payload begins:
// 1 tag byte + 4 declared length + 4 CRC32C. Updates are the one
// *request* type that can silently poison every worker's state if a bit
// flips in transit (counts and seeds elsewhere are cross-checked by
// responses), so the batch travels behind the same integrity trailer as
// fetch responses.
const updateRequestOffset = 1 + 4 + 4

// encodeUpdateReq frames an update batch: tag, declared payload length,
// CRC32C, then the mutate wire encoding.
func encodeUpdateReq(b mutate.Batch) []byte {
	buf := make([]byte, 0, updateRequestOffset+mutate.EncodedSize(b))
	buf = append(buf, msgUpdate)
	buf = appendU32(buf, 0) // payload length, patched below
	buf = appendU32(buf, 0) // CRC32C, patched below
	buf = mutate.EncodeBatch(buf, b)
	payload := buf[updateRequestOffset:]
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[5:9], checksum.Sum(payload))
	return buf
}

// decodeUpdateReq verifies the request trailer and decodes the batch.
func decodeUpdateReq(rest []byte) (mutate.Batch, error) {
	payload, err := verifyFramePayload(-1, rest)
	if err != nil {
		return mutate.Batch{}, err
	}
	b, n, err := mutate.DecodeBatch(payload)
	if err != nil {
		return mutate.Batch{}, frameError(-1, sealed.ErrFormat, "%v", err)
	}
	if n != len(payload) {
		return mutate.Batch{}, frameError(-1, sealed.ErrFormat, "update request carries %d trailing bytes", len(payload)-n)
	}
	return b, nil
}

// handleUpdate is the worker side of msgUpdate: apply the batch to the
// graph (version-gated, so shared-graph and replayed applies are no-ops),
// plan exactly which resident RR sets the mutation can have changed,
// regenerate those slots from their original lane seeds on the new graph,
// and ship the patches back so the master can mirror the repair.
func (w *Worker) handleUpdate(rest []byte) ([]byte, error) {
	if w.cfg.Graph == nil {
		return nil, fmt.Errorf("worker has no graph; cannot apply updates")
	}
	if !w.cfg.Graph.MutationEnabled() {
		return nil, fmt.Errorf("graph is frozen; enable mutation before issuing updates")
	}
	batch, err := decodeUpdateReq(rest)
	if err != nil {
		return nil, err
	}
	deltas, _, err := w.cfg.Graph.ApplyUpdates(batch.Seq, batch.Ops)
	if err != nil {
		return nil, err
	}
	var patches []rrset.Patch
	var corr []DeltaPair
	if w.coll.Count() > 0 {
		if !w.lanesComplete() {
			return nil, fmt.Errorf("worker holds RR sets without lane provenance (ingested or restored); repair needs a full resample")
		}
		if err := w.ensureIndex(); err != nil {
			return nil, err
		}
		lanes := w.laneSeeds()
		var plan []int
		if deltas != nil {
			plan, err = mutate.AffectedSlots(w.cfg.Model, deltas, w.idx, lanes)
		} else {
			// Version-gated no-op apply with no memoized deltas (a replay
			// of an old batch): fall back to the conservative plan. The
			// recompute is value-idempotent, so over-repair is just work.
			plan, err = mutate.AffectedSlotsConservative(batch.Ops, w.idx)
		}
		if err != nil {
			return nil, err
		}
		if len(plan) > 0 {
			rep, err := w.repairSampler()
			if err != nil {
				return nil, err
			}
			patches = make([]rrset.Patch, 0, len(plan))
			for _, slot := range plan {
				members, _ := rep.ResampleLane(lanes[slot])
				// A re-run that reproduces the resident bytes exactly (the
				// flipped coin turned out not to change reachability, or a
				// conservative plan over-approximated) is a no-op: shipping
				// it would cost wire, index diffs and splice work at every
				// replica for nothing. Equality is order-exact, so skipped
				// slots are bit-identical to a fresh generation on G'.
				if slices.Equal(members, w.coll.Set(slot)) {
					continue
				}
				patches = append(patches, rrset.Patch{Pos: slot, Members: append([]uint32(nil), members...)})
			}
			// Both the baseline corrections and the in-place index patch
			// diff against pre-patch membership, so they run before the
			// collection mutates.
			if corr, err = w.repairDeltas(patches); err != nil {
				return nil, err
			}
			if err := w.idx.ApplyPatches(w.coll, patches); err != nil {
				w.dropIndex() // fall back to a from-scratch rebuild
			}
			if err := w.coll.ApplyPatches(patches); err != nil {
				w.dropIndex()
				return nil, err
			}
		}
	}
	return encodeRepairResp(0, patches, corr)
}

// repairDeltas computes the net baseline-degree corrections a repair
// implies for RR sets whose coverage has already shipped to the master
// (slots below the degree-sync cursor): -1 per pre-patch member, +1 per
// incoming member, zero-net nodes dropped. Slots at or above the cursor
// need no correction — their post-repair membership rides the next
// degreeDelta. Must run before the patches are applied to the
// collection: it reads pre-patch membership.
func (w *Worker) repairDeltas(patches []rrset.Patch) ([]DeltaPair, error) {
	deg := w.accum()
	for _, p := range patches {
		if p.Pos >= w.reported {
			continue
		}
		// Pre-patch members were range-checked when their coverage was
		// reported; incoming ones come from the sampler and are checked
		// here before they index the scratch.
		for _, v := range p.Members {
			if int(v) >= w.numItems() {
				deg.Drain(w.pairBuf[:0]) // discard the partial corrections
				return nil, fmt.Errorf("RR member %d outside item space %d", v, w.numItems())
			}
			deg.Add(v, 1)
		}
		for _, v := range w.coll.Set(p.Pos) {
			deg.Add(v, -1)
		}
	}
	// Signed corrections can cancel; Drain drops the zero-net nodes.
	w.pairBuf = deg.Drain(w.pairBuf[:0])
	return w.pairBuf, nil
}

// laneSpan journals the lane seeds of count consecutive RR sets drawn
// from one stream: the j-th came from xrand.LaneSeed(seed, first+j).
type laneSpan struct {
	seed, first uint64
	count       int64
}

// journal records that the next count sets come from s, read before
// s samples them. A span continuing the last one's stream extends it.
func (w *Worker) journal(s *rrset.ShardedSampler, count int64) {
	seed, next := s.Stream()
	if k := len(w.spans) - 1; k >= 0 && w.spans[k].seed == seed && w.spans[k].first+uint64(w.spans[k].count) == next {
		w.spans[k].count += count
		return
	}
	w.spans = append(w.spans, laneSpan{seed: seed, first: next, count: count})
}

// lanesComplete reports whether every resident RR set has a journaled
// lane seed (generation maintains them; ingest does not).
func (w *Worker) lanesComplete() bool {
	var journaled int64
	for _, sp := range w.spans {
		journaled += sp.count
	}
	return journaled == int64(w.coll.Count())
}

// laneSeeds returns the journal expanded to one lane seed per RR set,
// expanding only the sets journaled since the last call.
func (w *Worker) laneSeeds() []uint64 {
	var at int64 // index of the span's first set
	for _, sp := range w.spans {
		if have := int64(len(w.lanes)); have < at+sp.count {
			w.lanes = slices.Grow(w.lanes, int(at+sp.count-have))
			for j := have - at; j < sp.count; j++ {
				w.lanes = append(w.lanes, xrand.LaneSeed(sp.seed, sp.first+uint64(j)))
			}
		}
		at += sp.count
	}
	return w.lanes
}

// repairSampler lazily builds the worker's scalar repair sampler: a
// private Sampler over the same graph/model/root-weights whose only job
// is ResampleLane (its own stream is never advanced, so the seed is
// irrelevant).
func (w *Worker) repairSampler() (*rrset.Sampler, error) {
	if w.repairer != nil {
		return w.repairer, nil
	}
	s, err := rrset.NewSampler(w.cfg.Graph, w.cfg.Model, 0, false)
	if err != nil {
		return nil, err
	}
	if w.cfg.RootWeights != nil {
		if err := s.SetRootWeights(w.cfg.RootWeights); err != nil {
			return nil, err
		}
	}
	w.repairer = s
	return s, nil
}

// encodeRepairResp frames the worker's repair patches behind the
// integrity trailer: patch count u32, then per patch the slot u32, the
// member count u32, and the members; then the baseline corrections as a
// signed pair list in the delta codec (codec.go), the form every delta on
// the wire shares.
func encodeRepairResp(elapsed time.Duration, patches []rrset.Patch, deltas []DeltaPair) ([]byte, error) {
	size := 4
	for _, p := range patches {
		size += 8 + 4*len(p.Members)
	}
	b := make([]byte, 0, framePayloadOffset+size)
	b = append(b, 0)
	b = appendI64(b, elapsed.Nanoseconds())
	b = appendU32(b, 0) // payload length, patched below
	b = appendU32(b, 0) // CRC32C, patched below
	b = appendU32(b, uint32(len(patches)))
	for _, p := range patches {
		b = appendU32(b, uint32(p.Pos))
		b = appendU32(b, uint32(len(p.Members)))
		for _, m := range p.Members {
			b = appendU32(b, m)
		}
	}
	b, err := appendPairs(b, deltas, true)
	if err != nil {
		return nil, err
	}
	payload := b[framePayloadOffset:]
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[13:17], checksum.Sum(payload))
	return b, nil
}

// decodeRepairResp verifies and parses a repair response's patches and
// baseline-correction deltas.
func decodeRepairResp(worker int, rest []byte) ([]rrset.Patch, []DeltaPair, error) {
	payload, err := verifyFramePayload(worker, rest)
	if err != nil {
		return nil, nil, err
	}
	count, rest2, err := consumeU32(payload)
	if err != nil {
		return nil, nil, frameError(worker, sealed.ErrFormat, "repair patch count truncated")
	}
	patches := make([]rrset.Patch, 0, min(int(count), len(rest2)/8+1))
	for i := uint32(0); i < count; i++ {
		if len(rest2) < 8 {
			return nil, nil, frameError(worker, sealed.ErrFormat, "repair patch %d header truncated", i)
		}
		pos, l := binary.LittleEndian.Uint32(rest2), binary.LittleEndian.Uint32(rest2[4:])
		rest2 = rest2[8:]
		if int(l)*4 > len(rest2) {
			return nil, nil, frameError(worker, sealed.ErrFormat, "repair patch %d truncated", i)
		}
		members := make([]uint32, l)
		for j := uint32(0); j < l; j++ {
			members[j] = binary.LittleEndian.Uint32(rest2[j*4:])
		}
		rest2 = rest2[l*4:]
		patches = append(patches, rrset.Patch{Pos: int(pos), Members: members})
	}
	pairs, err := decodePairs(rest2, nil, true)
	if err != nil {
		return nil, nil, frameError(worker, sealed.ErrFormat, "repair deltas: %v", err)
	}
	return patches, pairs, nil
}

// Update broadcasts an edge-update batch to every live worker and
// returns each worker's repair patches (indexed by worker; nil for
// workers that repaired nothing). The patches carry worker-local RR
// positions — a master mirroring the shards via FetchNewSpans maps them
// through its per-worker fetch spans.
//
// On worker loss the failover ladder runs first (a respawned replacement
// converges to post-repair bytes, see the file comment). If a worker is
// quarantined instead, its shard is regenerated on survivors — on the
// already-mutated graph, so the pooled sample stays i.i.d. and the
// certificate math survives — but shard positions shift, so mirrored
// masters cannot splice patches anymore: Update then returns a
// RebalancedError and the caller must refetch or resample its mirror.
func (c *Cluster) Update(b mutate.Batch) ([][]rrset.Patch, error) {
	if len(b.Ops) == 0 {
		return nil, fmt.Errorf("cluster: empty update batch")
	}
	req := encodeUpdateReq(b)
	resps, wall, downs, err := c.broadcast(c.same(req))
	if err != nil {
		return nil, err
	}
	patches := make([][]rrset.Patch, len(c.conns))
	handlers := make([]time.Duration, len(resps))
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		nanos, rest, err := decodeRespHeader(resp)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		handlers[i] = time.Duration(nanos)
		var pairs []DeltaPair
		if patches[i], pairs, err = decodeRepairResp(i, rest); err != nil {
			return nil, err
		}
		// Fold the worker's net baseline corrections in place: repaired
		// sets may cover different nodes now, and the in-place fold keeps
		// later greedy runs exact without the full O(θ) degree re-report a
		// rebuildBaseline would broadcast. (If a quarantine follows below,
		// the recovery path rebuilds from zero and overwrites this.)
		for _, p := range pairs {
			if int(p.Node) >= c.numItems {
				return nil, frameError(i, sealed.ErrFormat,
					"repair delta node %d outside item space %d", p.Node, c.numItems)
			}
			c.degreeVec()[p.Node] += int64(p.Dec)
		}
		c.met.repairedSets.Add(int64(len(patches[i])))
		c.record(i, req, 0, 0)
	}
	c.met.updateCalls.Inc()
	c.account("gen", wall, handlers)
	if len(downs) > 0 {
		if err := c.repair(downs, nil); err != nil {
			return nil, err
		}
		return nil, &RebalancedError{Quarantined: downs}
	}
	return patches, nil
}
