package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"dimm/internal/bitset"
	"dimm/internal/checksum"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// WorkerConfig describes one slave machine s_i.
type WorkerConfig struct {
	Graph  *graph.Graph
	Model  diffusion.Model
	Subset bool   // use the SUBSIM subset-sampling generator
	Seed   uint64 // this machine's RNG stream (derive with xrand.MachineSeed)
	// RootWeights, when non-nil, draws RR-set roots proportionally to the
	// given per-node weights (targeted influence maximization).
	RootWeights []float64
	// Parallelism is the number of intra-worker goroutines, used on both
	// sides of the algorithm: RR-generation shards and the map-stage
	// Select kernel. 0 or 1 runs sequentially on the handler goroutine;
	// P > 1 runs P goroutines — contiguous set-ordinal ranges of the one
	// stream Seed, merged in ordinal order, for generation
	// (rrset.ShardedSampler), disjoint RR-id ranges with an order-free
	// merge for selection (coverage.SelectKernel) — modeling a machine
	// with P cores. Both outputs are bit-identical at every P, so workers
	// of one run may each use their own.
	Parallelism int
	// Batch is the frontier-batch width B of each generation shard
	// (rrset.BatchSampler): how many RR traversals advance per adjacency
	// pass. 0 selects rrset.DefaultBatch — safe, because the batched
	// kernel's output is bit-identical to the scalar sampler's at every
	// width, so B, like Parallelism, is a pure performance knob and NOT
	// part of the stream identity. 1 forces the scalar kernel.
	Batch int
}

// ResolveBatch maps a Batch knob value to the effective sampler width:
// 0 → rrset.DefaultBatch, anything below 1 → 1 (scalar).
func ResolveBatch(b int) int {
	if b == 0 {
		return rrset.DefaultBatch
	}
	if b < 1 {
		return 1
	}
	return b
}

// Worker is the slave-side state of Algorithm 1 and the distributed RIS
// sampler: it owns a shard R_i of the RR sets, the inverted index I_i, the
// covered labels, and the scratch for the map stage. A Worker handles one
// request at a time (the transports serialize per-worker requests).
type Worker struct {
	cfg     WorkerConfig
	sampler *rrset.ShardedSampler
	sim     *diffusion.Simulator // lazily built for msgEstimate
	coll    *rrset.Collection

	idx     *rrset.Index // lazily built, then extended incrementally
	covered *bitset.Bits // per-RR-set covered labels (1 bit each)
	items   int          // the selectable-item space
	// deg is the degree-sync scratch (msgDegreeDelta and the signed
	// repair corrections of msgUpdate); the per-seed map stage runs on
	// kern instead. Both are n-sized and built on first use (accum,
	// kernel): a restored daemon's workers hold no sets and never reach
	// either.
	deg  *coverage.DeltaAccum
	kern *coverage.SelectKernel

	// covScratch is coverageOf's covered bitset, reset per request, so
	// repeated coverage queries allocate nothing once it fits the
	// collection.
	covScratch bitset.Bits

	// reported is how many RR sets have had their coverage shipped to the
	// master via msgDegreeDelta — the traffic optimization of §III-C that
	// sends only the coverage of *newly generated* RR sets.
	reported int

	// auxBatch accumulates the batching counters of the one-shot
	// rebalance samplers (generateAux), which are discarded after use;
	// the worker's stats replies report its resident sampler's counters
	// plus this remainder.
	auxBatch rrset.BatchStats

	// spans journals the lane seed each RR set was generated from, the
	// repair provenance of the dynamic-graph subsystem (internal/mutate),
	// as one span per run of sets from one stream. Every generation path
	// appends one (read from the sampler's Stream before sampling, so the
	// seeds match the merge order of the sets); ingest does not, which
	// handleUpdate detects via lanesComplete. lanes is the spans expanded
	// to one seed per set, which only repair reads: laneSeeds builds it on
	// the first repair and extends it on later ones.
	spans []laneSpan
	lanes []uint64
	// repairer is the lazily built scalar sampler used only for
	// ResampleLane during incremental repair.
	repairer *rrset.Sampler

	pairBuf []DeltaPair // drain target of every delta reply, reused
}

// stats assembles the worker's cumulative collection and batching
// statistics for a stats-bearing reply.
func (w *Worker) stats() GenerateStats {
	s := GenerateStats{
		Count:         int64(w.coll.Count()),
		TotalSize:     w.coll.TotalSize(),
		EdgesExamined: w.coll.EdgesExamined(),
		Batch:         w.auxBatch,
	}
	if w.sampler != nil {
		s.Batch.Add(w.sampler.BatchStats())
	}
	return s
}

// NewWorker builds a worker. The graph may be nil for workers that only
// serve ingested max-coverage lists (no sampling possible then).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	w := &Worker{
		cfg:  cfg,
		coll: rrset.NewCollection(1 << 16),
	}
	if cfg.Graph != nil {
		s, err := rrset.NewShardedSamplerBatch(cfg.Graph, cfg.Model, cfg.Seed, cfg.Subset, cfg.Parallelism, ResolveBatch(cfg.Batch))
		if err != nil {
			return nil, err
		}
		if cfg.RootWeights != nil {
			if err := s.SetRootWeights(cfg.RootWeights); err != nil {
				return nil, err
			}
		}
		w.sampler = s
		w.items = cfg.Graph.NumNodes()
	}
	return w, nil
}

// numItems is the size of the selectable-item space.
func (w *Worker) numItems() int { return w.items }

// accum returns the degree-sync scratch, building it on first use.
func (w *Worker) accum() *coverage.DeltaAccum {
	if w.deg == nil {
		w.deg = coverage.NewDeltaAccum(w.items)
	}
	return w.deg
}

// kernel returns the map-stage kernel, building it on first use.
func (w *Worker) kernel() *coverage.SelectKernel {
	if w.kern == nil {
		w.kern = coverage.NewSelectKernel(w.items, w.cfg.Parallelism)
	}
	return w.kern
}

// Handle processes one request frame and returns the response frame.
// It never panics on malformed input; errors come back as msgError frames.
// Every reply carries the handler time up to the moment it is fully
// encoded, so a worker's encode counts as its compute, not as
// communication.
func (w *Worker) Handle(req []byte) []byte {
	start := time.Now()
	resp, err := w.dispatch(req)
	if err != nil {
		return encodeErrorResp(err)
	}
	binary.LittleEndian.PutUint64(resp[1:9], uint64(time.Since(start).Nanoseconds()))
	return resp
}

// dispatch executes one request. Every reply it builds leaves its handler
// nanos zero for Handle to fill in.
func (w *Worker) dispatch(req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, fmt.Errorf("empty request")
	}
	switch req[0] {
	case msgGenerate:
		count, _, err := consumeI64(req[1:])
		if err != nil {
			return nil, err
		}
		if w.sampler == nil {
			return nil, fmt.Errorf("worker has no graph; cannot generate RR sets")
		}
		if count < 0 {
			return nil, fmt.Errorf("negative generation count %d", count)
		}
		if count > maxGenerateBatch {
			// A corrupt or hostile frame must not be able to wedge the
			// worker in an effectively unbounded sampling loop; any real
			// θ split across machines fits comfortably under this cap
			// (masters needing more issue multiple requests).
			return nil, fmt.Errorf("generation count %d exceeds the per-request cap %d", count, int64(maxGenerateBatch))
		}
		// Journal the new sets' lane seeds before sampling advances the
		// shard counters (repair provenance; see the spans field).
		w.journal(w.sampler, count)
		w.reserve(count)
		w.sampler.SampleManyInto(w.coll, count)
		// The index is NOT invalidated here: ensureIndex extends it
		// incrementally over just the new RR sets (Index.AppendFrom).
		return encodeStatsResp(0, 0, w.stats()), nil

	case msgDegreeDelta:
		pairs, err := w.degreeDelta()
		if err != nil {
			return nil, err
		}
		return encodeDeltasResp(0, pairs)

	case msgBeginSelect:
		if err := w.beginSelection(); err != nil {
			return nil, err
		}
		return encodeAckResp(0), nil

	case msgSelect:
		node, _, err := consumeU32(req[1:])
		if err != nil {
			return nil, err
		}
		pairs, err := w.selectSeed(node)
		if err != nil {
			return nil, err
		}
		return encodeDeltasResp(0, pairs)

	case msgStats:
		return encodeStatsResp(0, 0, w.stats()), nil

	case msgReset:
		w.release()
		w.coll = rrset.NewCollection(1 << 16)
		w.covered = nil
		w.reported = 0
		w.spans, w.lanes = w.spans[:0], w.lanes[:0]
		return encodeAckResp(0), nil

	case msgIngest:
		if err := w.ingest(req[1:]); err != nil {
			return nil, err
		}
		return encodeAckResp(0), nil

	case msgFetchSince:
		from, _, err := consumeI64(req[1:])
		if err != nil {
			return nil, err
		}
		if from < 0 || from > int64(w.coll.Count()) {
			return nil, fmt.Errorf("fetch-since id %d outside [0, %d]", from, w.coll.Count())
		}
		return w.fetchRange(int(from)), nil

	case msgEstimate:
		seeds, rounds, err := decodeEstimateReq(req[1:])
		if err != nil {
			return nil, err
		}
		return w.estimate(seeds, rounds)

	case msgSetReported:
		count, _, err := consumeI64(req[1:])
		if err != nil {
			return nil, err
		}
		if count < 0 || count > int64(w.coll.Count()) {
			return nil, fmt.Errorf("degree-delta cursor %d outside [0, %d]", count, w.coll.Count())
		}
		w.reported = int(count)
		return encodeAckResp(0), nil

	case msgSeek:
		ordinal, _, err := consumeI64(req[1:])
		if err != nil {
			return nil, err
		}
		if w.sampler == nil {
			return nil, fmt.Errorf("worker has no graph; cannot seek its stream")
		}
		if ordinal < 0 {
			return nil, fmt.Errorf("negative stream ordinal %d", ordinal)
		}
		w.sampler.Seek(uint64(ordinal))
		return encodeAckResp(0), nil

	case msgGenerateAux:
		streamSeed, count, err := decodeGenerateAuxReq(req[1:])
		if err != nil {
			return nil, err
		}
		if err := w.generateAux(streamSeed, count); err != nil {
			return nil, err
		}
		return encodeStatsResp(0, 0, w.stats()), nil

	case msgUpdate:
		return w.handleUpdate(req[1:])

	case msgCoverage:
		seeds, err := decodeCoverageReq(req[1:])
		if err != nil {
			return nil, err
		}
		covered, err := w.coverageOf(seeds)
		if err != nil {
			return nil, err
		}
		b := make([]byte, 0, 1+8+8)
		b = append(b, 0)
		b = appendI64(b, 0)
		b = appendI64(b, covered)
		return b, nil

	default:
		return nil, fmt.Errorf("unknown request tag %#x", req[0])
	}
}

// maxGenerateBatch bounds a single generation request (2^32 RR sets);
// see the msgGenerate handler.
const maxGenerateBatch = int64(1) << 32

// maxIngestItemCount bounds the item space a remote master may declare.
// Untrusted frames must not be able to trigger multi-gigabyte
// allocations; 2^28 items already allows a billion-edge instance while
// capping the scratch vector at 1 GiB.
const maxIngestItemCount = 1 << 28

// ingest loads explicit element lists as this worker's shard. The request
// carries the global item count so that all workers agree on the item
// space regardless of which ids their shard happens to contain.
func (w *Worker) ingest(payload []byte) error {
	itemCount, rest, err := consumeU32(payload)
	if err != nil {
		return err
	}
	if itemCount > maxIngestItemCount {
		return fmt.Errorf("ingest item count %d exceeds the %d limit", itemCount, maxIngestItemCount)
	}
	numLists, rest, err := consumeU32(rest)
	if err != nil {
		return err
	}
	// Do not trust numLists for preallocation: a corrupt frame could
	// claim billions. Each parsed list is bounds-checked against the
	// remaining payload, so growth is naturally capped by frame size.
	lists := make([][]uint32, 0, min(int(numLists), len(rest)/4+1))
	for i := uint32(0); i < numLists; i++ {
		var l uint32
		if l, rest, err = consumeU32(rest); err != nil {
			return err
		}
		if int(l)*4 > len(rest) {
			return fmt.Errorf("ingest list %d truncated", i)
		}
		members := make([]uint32, l)
		for j := uint32(0); j < l; j++ {
			members[j] = binary.LittleEndian.Uint32(rest[j*4:])
			if members[j] >= itemCount {
				return fmt.Errorf("ingest member %d outside item space %d", members[j], itemCount)
			}
		}
		rest = rest[l*4:]
		lists = append(lists, members)
	}
	for _, members := range lists {
		w.coll.Append(members, 0)
	}
	if int(itemCount) > w.items {
		w.items = int(itemCount)
		if w.deg != nil {
			w.deg.Grow(w.items)
		}
		if w.kern != nil {
			w.kern.Grow(w.items)
		}
	}
	w.dropIndex()
	return nil
}

// generateAux appends count RR sets drawn from a one-shot sampler seeded
// with streamSeed instead of this worker's own stream. The rebalance path
// regenerates a quarantined worker's lost quota this way: any machine can
// host the replacement stream because RR sets are i.i.d. regardless of
// which machine samples them (Corollary 1) — the seed, not the host,
// identifies the stream. The auxiliary sampler shares the worker's graph
// and model, so the stream is reproducible on any peer.
func (w *Worker) generateAux(streamSeed uint64, count int64) error {
	if w.sampler == nil {
		return fmt.Errorf("worker has no graph; cannot generate RR sets")
	}
	if count < 0 {
		return fmt.Errorf("negative generation count %d", count)
	}
	if count > maxGenerateBatch {
		return fmt.Errorf("generation count %d exceeds the per-request cap %d", count, int64(maxGenerateBatch))
	}
	aux, err := rrset.NewShardedSamplerBatch(w.cfg.Graph, w.cfg.Model, streamSeed, w.cfg.Subset, w.cfg.Parallelism, ResolveBatch(w.cfg.Batch))
	if err != nil {
		return err
	}
	defer aux.Release()
	if w.cfg.RootWeights != nil {
		if err := aux.SetRootWeights(w.cfg.RootWeights); err != nil {
			return err
		}
	}
	w.journal(aux, count)
	w.reserve(count)
	aux.SampleManyInto(w.coll, count)
	w.auxBatch.Add(aux.BatchStats())
	return nil
}

// reserve sizes the collection's arenas for count more RR sets before
// sampling starts: the offset table exactly, the member arena from the
// mean set size observed so far plus 1/32 slack (sets are i.i.d., so the
// mean of a large shard barely moves between rounds). An empty worker has
// no mean yet and reserves members for nothing; that round, and any
// under-estimate, falls back to Collection's doubling. count is capped
// at maxGenerateBatch by the callers.
func (w *Worker) reserve(count int64) {
	members := w.coll.AvgSize() * float64(count)
	w.coll.Reserve(int(count), int64(members+members/32))
}

// dropIndex frees the inverted index; the next ensureIndex rebuilds it.
func (w *Worker) dropIndex() {
	if w.idx != nil {
		w.idx.Release()
		w.idx = nil
	}
}

// release frees the worker's RR sets, inverted index and sampler merge
// buffers now: all live off the Go heap once they are large (see
// internal/rrset). The worker is empty afterwards. The transports call
// it when a connection ends, and msgReset before it starts a new sample.
func (w *Worker) release() {
	w.dropIndex()
	w.coll.Release()
	if w.sampler != nil {
		w.sampler.Release()
	}
}

// ensureIndex brings the inverted index up to date with the collection.
// The first call builds it; later calls extend it incrementally over only
// the RR sets generated since (Index.AppendFrom, O(new size)), instead of
// the historic O(total size) rebuild per DIIMM doubling round. Ingest and
// reset drop the index (dropIndex) because they can change the item
// space; generation never does.
func (w *Worker) ensureIndex() error {
	if w.idx == nil {
		idx, err := rrset.BuildIndex(w.coll, w.numItems())
		if err != nil {
			return err
		}
		w.idx = idx
		return nil
	}
	return w.idx.AppendFrom(w.coll, w.idx.Count())
}

// degreeDelta returns coverage counts over RR sets added since the last
// call (Algorithm 1 line 3 with the §III-C incremental-sync optimization).
func (w *Worker) degreeDelta() ([]DeltaPair, error) {
	deg := w.accum()
	for i := w.reported; i < w.coll.Count(); i++ {
		for _, v := range w.coll.Set(i) {
			if int(v) >= w.numItems() {
				deg.Drain(w.pairBuf[:0]) // discard the partial count
				return nil, fmt.Errorf("RR member %d outside item space %d", v, w.numItems())
			}
			deg.Add(v, 1)
		}
	}
	w.reported = w.coll.Count()
	w.pairBuf = deg.Drain(w.pairBuf[:0])
	return w.pairBuf, nil
}

// beginSelection relabels every RR set uncovered (Algorithm 1 line 2) and
// makes sure the index covers the whole collection.
func (w *Worker) beginSelection() error {
	if err := w.ensureIndex(); err != nil {
		return err
	}
	if w.covered == nil {
		w.covered = bitset.New(w.coll.Count())
	} else {
		w.covered.Reset(w.coll.Count())
	}
	return nil
}

// selectSeed is the map stage (Algorithm 1 lines 14–21) for new seed u,
// run on the shared coverage.SelectKernel: cfg.Parallelism goroutines
// over disjoint RR-id ranges, drained in ascending node order so the
// reply frame is bit-identical at every parallelism level.
func (w *Worker) selectSeed(u uint32) ([]DeltaPair, error) {
	if w.idx == nil || w.covered == nil || w.covered.Len() != w.coll.Count() {
		return nil, fmt.Errorf("select before beginSelection")
	}
	if int(u) >= w.numItems() {
		return nil, fmt.Errorf("seed %d outside item space %d", u, w.numItems())
	}
	kern := w.kernel()
	kern.Select(w.coll, w.idx, w.covered, u)
	w.pairBuf = kern.Drain(w.pairBuf[:0])
	return w.pairBuf, nil
}

// fetchRange serializes the worker's RR sets [from, Count()). With from
// = 0 this is the gather-all strategy of Haque and Banerjee that §II-B
// argues against (kept as a measurable baseline: Θ(total RR size) bytes
// versus NEWGREEDI's O(k·n) per selection run); with a positive from it
// is the incremental sync a resident query service issues after each
// generation round, whose traffic is Θ(new RR size) only.
//
// Fetch responses are the one place a corrupted frame could silently
// poison the sample (every other message type is counts and deltas the
// master cross-checks), so the payload travels behind an integrity
// trailer — declared length u32 + CRC32C u32 — that the master verifies
// before decoding (verifyFramePayload).
func (w *Worker) fetchRange(from int) []byte {
	b := make([]byte, 0, framePayloadOffset+w.coll.WireSizeRange(from))
	b = append(b, 0)
	b = appendI64(b, 0) // handler nanos, filled in by Handle
	b = appendU32(b, 0) // declared payload length, patched below
	b = appendU32(b, 0) // CRC32C of the payload, patched below
	b = w.coll.AppendWireRange(b, from)
	payload := b[framePayloadOffset:]
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[13:17], checksum.Sum(payload))
	return b
}

// estimate runs forward Monte-Carlo simulations of the seed set on this
// worker's share of rounds — the distributed influence-estimation service
// of Lucier et al. / Nguyen et al. discussed in §II-B. The reply carries
// the sum of cascade sizes so the master can aggregate an exact mean.
func (w *Worker) estimate(seeds []uint32, rounds int64) ([]byte, error) {
	if w.cfg.Graph == nil {
		return nil, fmt.Errorf("worker has no graph; cannot simulate")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("negative round count %d", rounds)
	}
	if rounds > maxGenerateBatch {
		return nil, fmt.Errorf("round count %d exceeds the per-request cap %d", rounds, int64(maxGenerateBatch))
	}
	n := w.cfg.Graph.NumNodes()
	for _, s := range seeds {
		if int(s) >= n {
			return nil, fmt.Errorf("seed %d outside graph of %d nodes", s, n)
		}
	}
	if w.sim == nil {
		w.sim = diffusion.NewSimulator(w.cfg.Graph, w.cfg.Seed^0xE57)
	}
	var sum, sumSq int64
	for i := int64(0); i < rounds; i++ {
		x := int64(w.sim.RunOnce(seeds, w.cfg.Model))
		sum += x
		sumSq += x * x
	}
	b := make([]byte, 0, 1+8+24)
	b = append(b, 0)
	b = appendI64(b, 0)
	b = appendI64(b, rounds)
	b = appendI64(b, sum)
	b = appendI64(b, sumSq)
	return b, nil
}

// coverageOf counts this worker's RR sets covered by the seed set,
// without disturbing any in-progress selection state: it covers into
// the reusable covScratch bitset (1 bit per RR set), so steady-state
// requests allocate nothing.
func (w *Worker) coverageOf(seeds []uint32) (int64, error) {
	if err := w.ensureIndex(); err != nil {
		return 0, err
	}
	w.covScratch.Reset(w.coll.Count())
	var covered int64
	for _, s := range seeds {
		if int(s) >= w.numItems() {
			return 0, fmt.Errorf("seed %d outside item space %d", s, w.numItems())
		}
		covered += w.idx.Cover(&w.covScratch, s)
	}
	return covered, nil
}

// DeriveSeed is a convenience re-export so callers do not import xrand
// just to seed workers consistently.
func DeriveSeed(base uint64, machine int) uint64 {
	return xrand.MachineSeed(base, machine)
}
