package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// The three fuzz targets below cover the bytes a cluster peer reads from
// the network: FuzzReadFrame the TCP framing both peers read first,
// FuzzWorkerHandle the worker's request decoding (through Worker.Handle,
// the whole dispatch), FuzzDecodeReplies the master's checksummed and
// stats reply decoders. The invariant for all three: an error or a valid
// value, never a panic, and no allocation sized by a count the bytes
// merely declare.

// recordConn passes calls through and keeps every request and response.
type recordConn struct {
	inner       Conn
	reqs, resps [][]byte
}

func (c *recordConn) Call(req []byte) ([]byte, error) {
	resp, err := c.inner.Call(req)
	c.reqs = append(c.reqs, slices.Clone(req))
	c.resps = append(c.resps, slices.Clone(resp))
	return resp, err
}

func (c *recordConn) Bytes() (int64, int64) { return c.inner.Bytes() }
func (c *recordConn) Close() error          { return c.inner.Close() }

var (
	fuzzGraphOnce sync.Once
	fuzzGraph     *graph.Graph
)

// sharedFuzzGraph is testGraph, built once per process: fuzz workers
// never mutate it (it has no mutation overlay, so msgUpdate is refused).
func sharedFuzzGraph(t testing.TB) *graph.Graph {
	fuzzGraphOnce.Do(func() { fuzzGraph = testGraph(t) })
	return fuzzGraph
}

// healthyTraffic drives one worker through what the integrity and
// corruption tests exercise — generation, degree sync, selection, both
// fetch paths — plus the remaining request kinds, and returns every
// request and response frame.
func healthyTraffic(t testing.TB) (reqs, resps [][]byte) {
	g := sharedFuzzGraph(t)
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordConn{inner: NewLocalConn(w)}
	cl, err := New([]Conn{rc}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	steps := []func() error{
		func() error { _, err := cl.Generate(40); return err },
		func() error { _, err := coverage.RunGreedy(cl.Oracle(), 2); return err },
		func() error { _, _, err := cl.FetchNewSpans(nil, rrset.NewCollection(16)); return err },
		func() error { _, err := cl.GatherAll(); return err },
		func() error { _, err := cl.Generate(20); return err },
		func() error { _, err := cl.CoverageOf([]uint32{1, 2}); return err },
		func() error { _, _, err := cl.EstimateSpread([]uint32{3}, 4); return err },
		func() error { return cl.Ingest(0, [][]uint32{{1, 2}, {5}}) },
		func() error { _, err := cl.Stats(); return err },
		func() error { return cl.Reset() },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	extra := [][]byte{
		encodeGenerateAuxReq(9, 5),
		encodeSetReportedReq(1),
		encodeFetchSinceReq(0),
		encodeSelectReq(7),
		{msgUpdate, 0},
		encodeSeekReq(37),
		encodeGenerateReq(3),
	}
	for _, req := range extra {
		if _, err := rc.Call(req); err != nil {
			t.Fatal(err)
		}
	}
	return rc.reqs, rc.resps
}

// Per-request work caps of the Handle harness: the worker accepts any
// count a master may legitimately send (up to 2^32 RR sets), which would
// turn one fuzz input into minutes of sampling. They bound the work, not
// the decoding under test.
const (
	fuzzMaxSets   = 64
	fuzzMaxRounds = 8
	fuzzMaxItems  = 1024
)

// capRequest clamps the counts of generate, aux-generate and estimate
// requests, and the item space an ingest declares, in place.
func capRequest(req []byte) {
	capI64 := func(b []byte, limit int64) {
		if len(b) >= 8 {
			if v := int64(binary.LittleEndian.Uint64(b)); v > limit || v < -limit {
				binary.LittleEndian.PutUint64(b, uint64(v%(limit+1)))
			}
		}
	}
	switch req[0] {
	case msgGenerate:
		capI64(req[1:], fuzzMaxSets)
	case msgGenerateAux:
		if len(req) >= 9 {
			capI64(req[9:], fuzzMaxSets)
		}
	case msgEstimate:
		capI64(req[1:], fuzzMaxRounds)
	case msgIngest:
		if len(req) >= 5 {
			if v := binary.LittleEndian.Uint32(req[1:]); v > fuzzMaxItems {
				binary.LittleEndian.PutUint32(req[1:], v%(fuzzMaxItems+1))
			}
		}
	}
}

// joinFrames encodes a request sequence as the Handle target's input:
// u16 little-endian length, then the frame, per request.
func joinFrames(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f)))
		out = append(out, f...)
	}
	return out
}

// splitFrames is joinFrames' inverse; a short tail becomes a last frame.
func splitFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) >= 2 {
		l := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		l = min(l, len(data))
		frames = append(frames, data[:l])
		data = data[l:]
	}
	return frames
}

// checkReply decodes a success reply to req with the master's own
// decoder for that request kind.
func checkReply(t *testing.T, req, resp []byte) {
	t.Helper()
	if len(resp) == 0 {
		t.Fatalf("empty reply to request %#x", req[0])
	}
	if resp[0] == msgError {
		return
	}
	var err error
	switch req[0] {
	case msgGenerate, msgGenerateAux, msgStats:
		_, _, err = decodeStatsResp(resp)
	case msgDegreeDelta, msgSelect:
		_, _, err = decodeDeltasResp(resp, nil, 0)
	case msgFetchSince:
		var rest []byte
		if _, rest, err = decodeRespHeader(resp); err == nil {
			_, err = decodeFetchResp(0, rest, rrset.NewCollection(0))
		}
	case msgUpdate:
		var rest []byte
		if _, rest, err = decodeRespHeader(resp); err == nil {
			_, _, err = decodeRepairResp(0, rest)
		}
	default:
		_, err = decodeAckResp(resp)
	}
	if err != nil {
		t.Fatalf("the master cannot decode the worker's reply to %#x: %v", req[0], err)
	}
}

// allocated runs fn and returns the bytes it allocated on the heap.
func allocated(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// checkReadFrame reads one frame from data with the production limit:
// the frame the header declares, or an error, having allocated at most
// 2 × the bytes read + frameChunk. The 4 KiB on top covers the header's
// own buffer; a lying header would cost megabytes more. The fuzz engine
// allocates concurrently, so the read runs three times and the least
// allocation counts: readFrame's own is the same every time.
func checkReadFrame(t *testing.T, data []byte) {
	t.Helper()
	var r *bytes.Reader
	var frame []byte
	var err error
	got := uint64(math.MaxUint64)
	for range 3 {
		r = bytes.NewReader(data)
		got = min(got, allocated(func() { frame, err = readFrame(r, maxFrameSize) }))
	}
	read := len(data) - r.Len()
	if budget := uint64(2*read + frameChunk + 1<<12); got > budget {
		t.Fatalf("reading %d bytes allocated %d, budget %d", read, got, budget)
	}
	if err != nil {
		return
	}
	if size := int(binary.LittleEndian.Uint32(data)); size != len(frame) || !bytes.Equal(frame, data[4:4+size]) {
		t.Fatalf("read a %d-byte frame, header declares %d", len(frame), size)
	}
}

// wireFrames encodes frames as they travel over TCP.
func wireFrames(frames ...[]byte) []byte {
	var buf bytes.Buffer
	for _, f := range frames {
		_ = writeFrame(&buf, f)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f})                 // a 1 GiB header, then EOF
	f.Add(wireFrames(encodeGenerateReq(3))[:7])           // a truncated payload
	f.Add([]byte{0, 0, 0, 0})                             // a zero-length frame
	f.Add(wireFrames(encodeGenerateReq(3), []byte{1, 2})) // a valid frame, then another
	f.Fuzz(checkReadFrame)
}

// TestReadFrameLargeFrame reads a frame past frameChunk, which readFrame
// assembles from pieces, whole and cut short.
func TestReadFrameLargeFrame(t *testing.T) {
	payload := make([]byte, 2*frameChunk+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	data := wireFrames(payload)
	checkReadFrame(t, data)
	checkReadFrame(t, data[:len(data)-1])
	checkReadFrame(t, data[:4+frameChunk])
}

func FuzzWorkerHandle(f *testing.F) {
	reqs, _ := healthyTraffic(f)
	f.Add(joinFrames(reqs...))
	for _, req := range reqs {
		f.Add(joinFrames(req))
		for _, mode := range []string{"flip", "clip", "len"} {
			if len(req) > framePayloadOffset {
				f.Add(joinFrames(reqs[0], flipFrame(mode, req)))
			}
		}
		for _, mode := range []string{"truncate", "garbage", "empty"} {
			f.Add(joinFrames(reqs[0], mangleFrame(mode, req)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := NewWorker(WorkerConfig{Graph: sharedFuzzGraph(t), Model: diffusion.IC, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer w.release()
		frames := splitFrames(data)
		// A capped request samples at most fuzzMaxSets small sets or runs
		// fuzzMaxRounds cascades on a 300-node graph; anything beyond
		// that budget per frame was sized from the bytes.
		budget := uint64(1<<20 + 1<<16*len(frames) + 16*len(data))
		if got := allocated(func() {
			for _, req := range frames {
				if len(req) == 0 {
					continue
				}
				req = slices.Clone(req)
				capRequest(req)
				checkReply(t, req, w.Handle(req))
			}
		}); got > budget {
			t.Fatalf("%d requests in %d bytes allocated %d", len(frames), len(data), got)
		}
	})
}

// reframeReply recomputes a checksummed reply's declared length and
// CRC32C over whatever follows the trailer, so the payload decoders
// behind verifyFramePayload are reached with arbitrary bytes.
func reframeReply(resp []byte) ([]byte, bool) {
	if len(resp) < framePayloadOffset {
		return nil, false
	}
	out := slices.Clone(resp)
	payload := out[framePayloadOffset:]
	binary.LittleEndian.PutUint32(out[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[13:17], checksum.Sum(payload))
	return out, true
}

func FuzzDecodeReplies(f *testing.F) {
	_, resps := healthyTraffic(f)
	patches := []rrset.Patch{{Pos: 3, Members: []uint32{1, 4}}, {Pos: 9}}
	repair, err := encodeRepairResp(7, patches, []DeltaPair{{Node: 2, Dec: -1}, {Node: 300, Dec: 4}})
	if err != nil {
		f.Fatal(err)
	}
	full, err := encodeDeltasResp(3, sortedPairs(300, 2))
	if err != nil {
		f.Fatal(err)
	}
	resps = append(resps, repair, full)
	for _, resp := range resps {
		f.Add(resp)
		if len(resp) > framePayloadOffset {
			for _, mode := range []string{"flip", "clip", "len"} {
				f.Add(flipFrame(mode, resp))
			}
		}
		for _, mode := range []string{"truncate", "garbage", "empty"} {
			f.Add(mangleFrame(mode, resp))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplies(t, data)
		if fixed, ok := reframeReply(data); ok {
			checkReplies(t, fixed)
		}
	})
}

// checkReplies runs every reply decoder over one frame.
func checkReplies(t *testing.T, data []byte) {
	t.Helper()
	// The largest legitimate expansion is the densest pair list: 2 bits
	// of payload decode to an 8 B pair, 32 B of pairs per payload byte,
	// and the delta check below decodes it twice.
	budget := uint64(1<<16 + 80*len(data))
	if got := allocated(func() { decodeAllReplies(t, data) }); got > budget {
		t.Fatalf("decoding a %d-byte reply allocated %d", len(data), got)
	}
}

func decodeAllReplies(t *testing.T, data []byte) {
	t.Helper()
	_, rest, headerErr := decodeRespHeader(data)
	// typed requires a frame error once the header decoded: every
	// checksummed decoder reports damage as a *sealed.Error.
	typed := func(what string, err error) bool {
		t.Helper()
		if err == nil {
			return true
		}
		var se *sealed.Error
		if headerErr == nil && !errors.As(err, &se) {
			t.Fatalf("%s: untyped error %T: %v", what, err, err)
		}
		return false
	}

	if nanos, s, err := decodeStatsResp(data); err == nil {
		enc := encodeStatsResp(data[0], nanos, s)
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatal("decoded stats do not re-encode to their input")
		}
	}

	if nanos, pairs, err := decodeDeltasResp(data, nil, 1); typed("deltas", err) {
		enc, err := encodeDeltasResp(nanos, pairs)
		if err != nil || !bytes.Equal(enc[9:], data[9:]) {
			t.Fatalf("decoded deltas do not re-encode to their input: %v", err)
		}
		if _, again, err := decodeDeltasResp(enc, nil, 1); err != nil || !slices.Equal(again, pairs) {
			t.Fatalf("decoded deltas do not round-trip: %v", err)
		}
	}
	if headerErr != nil {
		return
	}

	c := rrset.NewCollection(0)
	if n, err := decodeFetchResp(1, rest, c); typed("fetch", err) {
		if n != c.Count() || !bytes.Equal(c.AppendWire(nil), rest[8:]) {
			t.Fatal("decoded fetch payload does not re-encode to its input")
		}
	}

	if patches, pairs, err := decodeRepairResp(1, rest); typed("repair", err) {
		enc, err := encodeRepairResp(0, patches, pairs)
		if err != nil || !bytes.Equal(enc[framePayloadOffset:], rest[8:]) {
			t.Fatal("decoded repair payload does not re-encode to its input")
		}
	}
}
