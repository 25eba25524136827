// Package cluster is the distributed substrate that stands in for the
// paper's MPI deployment: a master–worker message-passing layer with a
// compact binary wire protocol, an in-process transport (simulating the
// multi-core server of Fig. 6/7/9/10) and a TCP transport (simulating the
// machine cluster of Fig. 5/8), plus per-phase time and byte accounting.
//
// Both transports move fully encoded frames, so the measured traffic in
// bytes is the real serialized volume either way — the quantity the
// paper's communication-cost analysis (§III-D) bounds by O(kn) per worker
// per NEWGREEDI call. That O(kn) is carried by (node, value) pair lists —
// map-stage replies, degree syncs and repair corrections — and every one
// of them travels in the one bit-packed delta codec of codec.go:
// Rice-coded node gaps and Elias-γ values, under a byte a pair on a
// typical selection.
package cluster

import (
	"encoding/binary"
	"fmt"

	"dimm/internal/checksum"
	"dimm/internal/coverage"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// Request and response type tags. Tag 8, the retired whole-collection
// fetch, stays unassigned: GatherAll is msgFetchSince from 0.
const (
	msgGenerate    = byte(1)  // generate RR sets: req count int64 → resp count, totalSize, edges int64
	msgDegreeDelta = byte(2)  // coverage of RR sets since last sync → resp delta pairs
	msgBeginSelect = byte(3)  // relabel all RR sets uncovered (Algorithm 1 line 2)
	msgSelect      = byte(4)  // map stage for a new seed: req node → resp delta pairs
	msgStats       = byte(5)  // collection statistics
	msgReset       = byte(6)  // drop all RR sets (new algorithm run)
	msgIngest      = byte(7)  // load explicit element lists (max-coverage workloads)
	msgEstimate    = byte(9)  // forward Monte-Carlo influence estimation of a seed set
	msgCoverage    = byte(10) // count RR sets covered by a fixed seed set
	msgFetchSince  = byte(11) // ship only the RR sets generated since a given id
	msgSetReported = byte(12) // set the degree-delta cursor (failover resync)
	msgGenerateAux = byte(13) // generate RR sets from an explicit stream seed (rebalance)
	msgUpdate      = byte(14) // apply a graph-update batch and repair the RR shard in place
	msgSeek        = byte(15) // position the worker's own sampler stream at a set ordinal
	msgError       = byte(0x7f)
)

// DeltaPair is coverage.Delta on the wire: a node id and how much its
// marginal coverage decreases. One type end to end, so a worker's drain
// buffer is what the encoder reads and the master's decode buffer is what
// the reduce stage folds.
type DeltaPair = coverage.Delta

// GenerateStats is the reply payload of msgGenerate and msgStats.
type GenerateStats struct {
	Count         int64 // RR sets now held by the worker
	TotalSize     int64 // summed cardinality
	EdgesExamined int64 // cumulative sampler edge probes (Σ w(R))
	// Batch carries the worker's cumulative frontier-batching counters
	// (all zero on the scalar kernel). Observability only: the sampled
	// bytes are batch-invariant, so these never feed determinism checks.
	Batch rrset.BatchStats
}

// Add accumulates another worker's statistics into s.
func (s *GenerateStats) Add(o GenerateStats) {
	s.Count += o.Count
	s.TotalSize += o.TotalSize
	s.EdgesExamined += o.EdgesExamined
	s.Batch.Add(o.Batch)
}

// --- primitive append/consume helpers -------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func consumeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("cluster: truncated frame (want 4 bytes, have %d)", len(b))
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func consumeI64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("cluster: truncated frame (want 8 bytes, have %d)", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// --- request encoding ------------------------------------------------------

// encodeGenerateReq builds a generation request for count RR sets.
func encodeGenerateReq(count int64) []byte {
	return appendI64([]byte{msgGenerate}, count)
}

func encodeSimpleReq(tag byte) []byte { return []byte{tag} }

func encodeSelectReq(node uint32) []byte {
	return appendU32([]byte{msgSelect}, node)
}

// encodeIngestReq ships explicit element lists (each a set of item ids) to
// a worker. Layout: itemCount u32, numLists u32, then per list: len u32,
// members u32*. itemCount fixes the selectable-item space so every worker
// agrees on it even if its shard misses the highest item ids.
func encodeIngestReq(itemCount int, lists [][]uint32) []byte {
	size := 9
	for _, l := range lists {
		size += 4 + 4*len(l)
	}
	b := make([]byte, 0, size)
	b = append(b, msgIngest)
	b = appendU32(b, uint32(itemCount))
	b = appendU32(b, uint32(len(lists)))
	for _, l := range lists {
		b = appendU32(b, uint32(len(l)))
		for _, v := range l {
			b = appendU32(b, v)
		}
	}
	return b
}

// encodeEstimateReq asks a worker to run `rounds` forward Monte-Carlo
// simulations of the given seed set.
func encodeEstimateReq(seeds []uint32, rounds int64) []byte {
	b := make([]byte, 0, 1+8+4+4*len(seeds))
	b = append(b, msgEstimate)
	b = appendI64(b, rounds)
	b = appendU32(b, uint32(len(seeds)))
	for _, s := range seeds {
		b = appendU32(b, s)
	}
	return b
}

func decodeEstimateReq(payload []byte) (seeds []uint32, rounds int64, err error) {
	rounds, rest, err := consumeI64(payload)
	if err != nil {
		return nil, 0, err
	}
	count, rest, err := consumeU32(rest)
	if err != nil {
		return nil, 0, err
	}
	if int(count)*4 != len(rest) {
		return nil, 0, fmt.Errorf("cluster: estimate request has %d bytes for %d seeds", len(rest), count)
	}
	seeds = make([]uint32, count)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint32(rest[i*4:])
	}
	return seeds, rounds, nil
}

// encodeCoverageReq asks a worker how many of its RR sets the given seed
// set covers (used by frameworks that evaluate fixed solutions on a
// held-out collection, e.g. OPIM-C's lower-bound estimate).
func encodeCoverageReq(seeds []uint32) []byte {
	b := make([]byte, 0, 1+4+4*len(seeds))
	b = append(b, msgCoverage)
	b = appendU32(b, uint32(len(seeds)))
	for _, s := range seeds {
		b = appendU32(b, s)
	}
	return b
}

func decodeCoverageReq(payload []byte) ([]uint32, error) {
	count, rest, err := consumeU32(payload)
	if err != nil {
		return nil, err
	}
	if int(count)*4 != len(rest) {
		return nil, fmt.Errorf("cluster: coverage request has %d bytes for %d seeds", len(rest), count)
	}
	seeds := make([]uint32, count)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint32(rest[i*4:])
	}
	return seeds, nil
}

// encodeFetchSinceReq asks a worker for the wire encoding of the RR sets
// it generated since id `from`: the incremental gather of a resident
// query service, and from 0 the gather-all baseline.
func encodeFetchSinceReq(from int64) []byte {
	return appendI64([]byte{msgFetchSince}, from)
}

// encodeSetReportedReq positions a worker's degree-delta cursor: the next
// msgDegreeDelta reports coverage of RR sets [count, Count()) only. The
// failover resync uses it after replaying a replacement worker's
// generation history, so the rebuilt worker re-reports exactly what the
// master's baseline vector is missing (count = 0 re-reports everything,
// the baseline-rebuild path after a quarantine).
func encodeSetReportedReq(count int64) []byte {
	return appendI64([]byte{msgSetReported}, count)
}

// encodeSeekReq positions a worker's own sampler stream: its next
// msgGenerate draws from set ordinal on. msgReset keeps a worker's stream
// position, so a replacement worker that replaces one across a reset is
// sent the position its predecessor had reached (see workerLog.origin).
func encodeSeekReq(ordinal int64) []byte {
	return appendI64([]byte{msgSeek}, ordinal)
}

// encodeGenerateAuxReq asks a worker to generate count RR sets from an
// explicitly seeded auxiliary sampler stream instead of its own. This is
// the rebalance primitive: when a worker is quarantined, its lost quota
// is regenerated on survivors under fresh epoch-salted seeds — i.i.d.
// with every other stream by Corollary 1, so the sample stays unbiased.
func encodeGenerateAuxReq(streamSeed uint64, count int64) []byte {
	b := make([]byte, 0, 1+8+8)
	b = append(b, msgGenerateAux)
	b = appendI64(b, int64(streamSeed))
	return appendI64(b, count)
}

func decodeGenerateAuxReq(payload []byte) (streamSeed uint64, count int64, err error) {
	s, rest, err := consumeI64(payload)
	if err != nil {
		return 0, 0, err
	}
	count, _, err = consumeI64(rest)
	if err != nil {
		return 0, 0, err
	}
	return uint64(s), count, nil
}

// --- response encoding -----------------------------------------------------

// Responses open with: tag byte, handlerNanos int64. handlerNanos is the
// worker-side busy time for the request, which the master uses to separate
// computation from communication in the metrics (DESIGN.md substitution).

func encodeAckResp(handlerNanos int64) []byte {
	return appendI64([]byte{0}, handlerNanos)
}

func encodeStatsResp(tag byte, handlerNanos int64, s GenerateStats) []byte {
	b := make([]byte, 0, 1+8+9*8)
	b = append(b, tag)
	b = appendI64(b, handlerNanos)
	b = appendI64(b, s.Count)
	b = appendI64(b, s.TotalSize)
	b = appendI64(b, s.EdgesExamined)
	b = appendI64(b, s.Batch.Streams)
	b = appendI64(b, s.Batch.Waves)
	b = appendI64(b, s.Batch.FrontierItems)
	b = appendI64(b, s.Batch.LaneWaves)
	b = appendI64(b, s.Batch.SkippedEdges)
	return b
}

// encodeDeltasResp frames a delta reply (msgDegreeDelta, msgSelect) in
// one buffer: tag, handler nanos, the integrity trailer (declared length
// + CRC32C, patched once the payload is in place) and the pair list in
// the one delta codec (see codec.go). It fails only when pairs fall
// outside the codec's domain, which the ascending drains never emit.
func encodeDeltasResp(handlerNanos int64, pairs []DeltaPair) ([]byte, error) {
	b, err := appendPairs(make([]byte, framePayloadOffset), pairs, false)
	if err != nil {
		return nil, err
	}
	payload := b[framePayloadOffset:]
	binary.LittleEndian.PutUint64(b[1:9], uint64(handlerNanos))
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[13:17], checksum.Sum(payload))
	return b, nil
}

func encodeErrorResp(err error) []byte {
	msg := err.Error()
	b := make([]byte, 0, 1+8+len(msg))
	b = append(b, msgError)
	b = appendI64(b, 0)
	return append(b, msg...)
}

// --- response decoding -----------------------------------------------------

// decodeRespHeader strips the tag and handler-nanos prefix, surfacing
// worker-side errors as Go errors.
func decodeRespHeader(b []byte) (handlerNanos int64, rest []byte, err error) {
	if len(b) < 9 {
		return 0, nil, fmt.Errorf("cluster: short response (%d bytes)", len(b))
	}
	tag := b[0]
	nanos, rest, err := consumeI64(b[1:])
	if err != nil {
		return 0, nil, err
	}
	if tag == msgError {
		return 0, nil, fmt.Errorf("cluster: worker error: %s", rest)
	}
	return nanos, rest, nil
}

func decodeStatsResp(b []byte) (int64, GenerateStats, error) {
	nanos, rest, err := decodeRespHeader(b)
	if err != nil {
		return 0, GenerateStats{}, err
	}
	var s GenerateStats
	if s.Count, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.TotalSize, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.EdgesExamined, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.Batch.Streams, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.Batch.Waves, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.Batch.FrontierItems, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.Batch.LaneWaves, rest, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	if s.Batch.SkippedEdges, _, err = consumeI64(rest); err != nil {
		return 0, s, err
	}
	return nanos, s, nil
}

// decodeDeltasResp verifies a delta reply's integrity trailer and decodes
// its pair list into buf. worker names the sender in the *sealed.Error a
// corrupted trailer or a malformed payload raises (-1: the master).
func decodeDeltasResp(b []byte, buf []DeltaPair, worker int) (int64, []DeltaPair, error) {
	nanos, rest, err := decodeRespHeader(b)
	if err != nil {
		return 0, nil, err
	}
	payload, err := verifyFramePayload(worker, rest)
	if err != nil {
		return 0, nil, err
	}
	pairs, err := decodePairs(payload, buf, false)
	if err != nil {
		return 0, nil, frameError(worker, sealed.ErrFormat, "delta reply: %v", err)
	}
	return nanos, pairs, nil
}

func decodeAckResp(b []byte) (int64, error) {
	nanos, _, err := decodeRespHeader(b)
	return nanos, err
}
