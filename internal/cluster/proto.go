// Package cluster is the distributed substrate that stands in for the
// paper's MPI deployment: a master–worker message-passing layer with a
// compact binary wire protocol, an in-process transport (simulating the
// multi-core server of Fig. 6/7/9/10) and a TCP transport (simulating the
// machine cluster of Fig. 5/8), plus per-phase time and byte accounting.
//
// Both transports move fully encoded frames, so the measured traffic in
// bytes is the real serialized volume either way — the quantity the
// paper's communication-cost analysis (§III-D) bounds by O(kn) per worker
// per NEWGREEDI call.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"dimm/internal/checksum"
	"dimm/internal/coverage"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// Request and response type tags.
const (
	msgGenerate    = byte(1)  // generate RR sets: req count int64 → resp count, totalSize, edges int64
	msgDegreeDelta = byte(2)  // coverage of RR sets since last sync → resp delta pairs
	msgBeginSelect = byte(3)  // relabel all RR sets uncovered (Algorithm 1 line 2)
	msgSelect      = byte(4)  // map stage for a new seed: req node → resp delta pairs
	msgStats       = byte(5)  // collection statistics
	msgReset       = byte(6)  // drop all RR sets (new algorithm run)
	msgIngest      = byte(7)  // load explicit element lists (max-coverage workloads)
	msgFetchAll    = byte(8)  // ship the worker's entire RR collection to the master
	msgEstimate    = byte(9)  // forward Monte-Carlo influence estimation of a seed set
	msgCoverage    = byte(10) // count RR sets covered by a fixed seed set
	msgFetchSince  = byte(11) // ship only the RR sets generated since a given id
	msgSetReported = byte(12) // set the degree-delta cursor (failover resync)
	msgGenerateAux = byte(13) // generate RR sets from an explicit stream seed (rebalance)
	msgUpdate      = byte(14) // apply a graph-update batch and repair the RR shard in place
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
// it generated since id `from` (the incremental gather of a resident
// query service; msgFetchAll remains the from-zero special case).
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

// Delta replies (msgDegreeDelta, msgSelect) travel behind the same
// declared-length + CRC32C trailer as fetch frames, in whichever of two
// payload forms is smaller for the reply at hand:
//
//   - sparse (form byte 1): uvarint pair count, then per pair the node id
//     as a zig-zag varint gap from the previous pair's node id and the
//     decrement as a uvarint. Node-sorted pairs make every gap small and
//     positive (1-2 bytes against the fixed encoding's 8), but any pair
//     order round-trips exactly.
//   - dense (form byte 2): u32 item count n, then n little-endian int32
//     decrements indexed by node id. Early seeds touch a large fraction
//     of all n nodes, where per-pair ids cost more than the flat vector;
//     4n bytes is the break-even the encoder switches at.
//
// The encoder only considers the dense form when numItems > 0 and the
// pairs hold strictly ascending node ids with positive decrements — what
// coverage.DeltaAccum.Drain emits on the worker's select and degree-sync
// paths; numItems = 0 forces the sparse form for arbitrary pair lists.
const (
	deltaFormSparse = byte(1)
	deltaFormDense  = byte(2)
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDeltaPayload appends the smaller of the sparse and dense forms
// of pairs to b. The sparse form is written in place; when the dense one
// is smaller (and can represent the pairs) it overwrites those bytes, so
// a reply is never staged in a second buffer.
func appendDeltaPayload(b []byte, pairs []DeltaPair, numItems int) []byte {
	at := len(b)
	b = append(b, deltaFormSparse)
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	prev := int64(0)
	for _, p := range pairs {
		b = binary.AppendUvarint(b, zigzag(int64(p.Node)-prev))
		prev = int64(p.Node)
		b = binary.AppendUvarint(b, uint64(uint32(p.Dec)))
	}
	denseSize := 1 + 4 + 4*numItems
	if numItems <= 0 || len(b)-at <= denseSize {
		return b
	}
	for i, p := range pairs {
		if int(p.Node) >= numItems || p.Dec <= 0 || (i > 0 && pairs[i-1].Node >= p.Node) {
			return b // drain invariant violated; stay lossless
		}
	}
	b = b[:at+denseSize] // shorter than the sparse bytes it replaces
	clear(b[at:])
	b[at] = deltaFormDense
	binary.LittleEndian.PutUint32(b[at+1:], uint32(numItems))
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(b[at+5+4*int(p.Node):], uint32(p.Dec))
	}
	return b
}

// encodeDeltasResp frames a delta reply in one buffer: tag, handler
// nanos, the integrity trailer (declared length + CRC32C, patched once
// the payload is in place) and the adaptive payload.
func encodeDeltasResp(handlerNanos int64, pairs []DeltaPair, numItems int) []byte {
	b := make([]byte, framePayloadOffset, framePayloadOffset+1+binary.MaxVarintLen32+4*len(pairs))
	b = appendDeltaPayload(b, pairs, numItems)
	payload := b[framePayloadOffset:]
	binary.LittleEndian.PutUint64(b[1:9], uint64(handlerNanos))
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[13:17], checksum.Sum(payload))
	return b
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
// either payload form into buf. worker names the sender in the
// *sealed.Error a corrupted trailer or a malformed payload raises (-1:
// the master).
func decodeDeltasResp(b []byte, buf []DeltaPair, worker int) (int64, []DeltaPair, error) {
	nanos, rest, err := decodeRespHeader(b)
	if err != nil {
		return 0, nil, err
	}
	payload, err := verifyFramePayload(worker, rest)
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < 1 {
		return 0, nil, frameError(worker, sealed.ErrFormat, "delta payload missing its form byte")
	}
	form, body := payload[0], payload[1:]
	buf = buf[:0]
	switch form {
	case deltaFormSparse:
		count, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, nil, frameError(worker, sealed.ErrFormat, "bad sparse delta count")
		}
		body = body[n:]
		if count > uint64(len(body)) { // every pair takes >= 2 bytes
			return 0, nil, frameError(worker, sealed.ErrFormat, "sparse delta count %d exceeds the %d payload bytes", count, len(body))
		}
		prev := int64(0)
		for i := uint64(0); i < count; i++ {
			gap, n := binary.Uvarint(body)
			if n <= 0 {
				return 0, nil, frameError(worker, sealed.ErrFormat, "truncated sparse delta node gap")
			}
			body = body[n:]
			node := prev + unzigzag(gap)
			if node < 0 || node > math.MaxUint32 {
				return 0, nil, frameError(worker, sealed.ErrFormat, "sparse delta node %d out of range", node)
			}
			prev = node
			dec, n := binary.Uvarint(body)
			if n <= 0 {
				return 0, nil, frameError(worker, sealed.ErrFormat, "truncated sparse delta decrement")
			}
			body = body[n:]
			if dec > math.MaxUint32 {
				return 0, nil, frameError(worker, sealed.ErrFormat, "sparse delta decrement %d out of range", dec)
			}
			buf = append(buf, DeltaPair{Node: uint32(node), Dec: int32(uint32(dec))})
		}
		if len(body) != 0 {
			return 0, nil, frameError(worker, sealed.ErrFormat, "%d trailing bytes after the sparse deltas", len(body))
		}
	case deltaFormDense:
		if len(body) < 4 {
			return 0, nil, frameError(worker, sealed.ErrFormat, "truncated dense delta header")
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if int64(n)*4 != int64(len(body)) {
			return 0, nil, frameError(worker, sealed.ErrFormat, "dense delta payload %d bytes for %d items", len(body), n)
		}
		for i := uint32(0); i < n; i++ {
			if dec := int32(binary.LittleEndian.Uint32(body[i*4:])); dec != 0 {
				buf = append(buf, DeltaPair{Node: i, Dec: dec})
			}
		}
	default:
		return 0, nil, frameError(worker, sealed.ErrFormat, "unknown delta payload form %#x", form)
	}
	return nanos, buf, nil
}

func decodeAckResp(b []byte) (int64, error) {
	nanos, _, err := decodeRespHeader(b)
	return nanos, err
}
