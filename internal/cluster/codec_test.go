package cluster

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/xrand"
)

// sortedPairs builds numItems ascending pairs with the given value
// (every node touched): a full-vector reply.
func sortedPairs(numItems int, dec int32) []DeltaPair {
	pairs := make([]DeltaPair, numItems)
	for i := range pairs {
		pairs[i] = DeltaPair{Node: uint32(i), Dec: dec}
	}
	return pairs
}

// gapPairs builds 40 pairs whose gaps cycle through 2^k − 1, 2^k and
// 2^k + 1, then places the last node so the list's Rice parameter is k:
// (last + 1) / count = 3·2^k. For k ≥ 1 the last gap's unary run is
// about 80 zero bits, longer than one 64-bit write.
func gapPairs(k uint) []DeltaPair {
	const count = 40
	pairs := make([]DeltaPair, 0, count)
	next := uint64(0)
	for i := 0; i < count-1; i++ {
		gap := uint64(1)<<k - 1 + uint64(i%3)
		pairs = append(pairs, DeltaPair{Node: uint32(next + gap), Dec: int32(1 + i%4)})
		next += gap + 1
	}
	return append(pairs, DeltaPair{Node: uint32(3*count<<k - 1), Dec: 1})
}

// TestDeltaCodecRoundTrip: every list in the codec's domain decodes to
// itself, re-encodes to the same bytes, and carries the canonical Rice
// parameter in its header.
func TestDeltaCodecRoundTrip(t *testing.T) {
	type tc struct {
		name   string
		pairs  []DeltaPair
		signed bool
		wantK  int // the header's Rice parameter; -1: not checked
		size   int // the exact payload size; 0: not checked
	}
	cases := []tc{
		{"empty", nil, false, 0, 2},
		{"empty signed", nil, true, 0, 2},
		{"one pair", []DeltaPair{{Node: 0, Dec: 1}}, false, 0, 3},
		{"node 2^32-1", []DeltaPair{{Node: math.MaxUint32, Dec: 1}}, false, 31, 7},
		{"value 2^31-1", []DeltaPair{{Node: 5, Dec: math.MaxInt32}}, false, 1, 0},
		{"every node of 64", sortedPairs(64, 1), false, 0, 2 + 64*2/8},
		{"every node of 64, wide values", sortedPairs(64, 1<<22), false, 0, 0},
		{"signed corrections", []DeltaPair{{Node: 1, Dec: -2}, {Node: 9, Dec: 3}, {Node: 10, Dec: -1},
			{Node: 11, Dec: math.MinInt32}, {Node: 12, Dec: math.MaxInt32}, {Node: 4000, Dec: 1}}, true, -1, 0},
		{"signed full vector", sortedPairs(64, -1), true, 0, 2 + 64*2/8},
	}
	for _, k := range []uint{0, 1, 2, 5, 13, 20} {
		cases = append(cases, tc{"gaps around 2^k", gapPairs(k), false, int(k), 0})
	}
	for _, c := range cases {
		enc, err := appendPairs([]byte{0xEE}, c.pairs, c.signed) // a prefix must survive
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if enc[0] != 0xEE {
			t.Fatalf("%s: the encoder overwrote its prefix", c.name)
		}
		payload := enc[1:]
		if c.size != 0 && len(payload) != c.size {
			t.Errorf("%s: %d payload bytes, want %d", c.name, len(payload), c.size)
		}
		if c.wantK >= 0 {
			if k := payload[uvarintLen(uint64(len(c.pairs)))] & pairsKMask; int(k) != c.wantK {
				t.Errorf("%s: header k = %d, want %d", c.name, k, c.wantK)
			}
		}
		got, err := decodePairs(payload, make([]DeltaPair, 3), c.signed)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !slices.Equal(got, c.pairs) {
			t.Fatalf("%s: decoded %v, want %v", c.name, got, c.pairs)
		}
		again, _ := appendPairs(nil, got, c.signed)
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s: re-encoding differs", c.name)
		}
	}
}

// bitsOf packs hand-written codes, for payloads the encoder never writes.
func bitsOf(codes ...[2]uint64) []byte {
	var w bitWriter
	for _, c := range codes {
		w.put(c[0], uint(c[1]))
	}
	w.flush()
	return w.out[:w.o]
}

// TestDeltaCodecRejects: the encoder refuses lists outside its domain,
// and the decoder refuses every payload its encoder does not write.
func TestDeltaCodecRejects(t *testing.T) {
	for name, c := range map[string]struct {
		pairs  []DeltaPair
		signed bool
	}{
		"descending node": {[]DeltaPair{{Node: 5, Dec: 1}, {Node: 2, Dec: 1}}, false},
		"repeated node":   {[]DeltaPair{{Node: 2, Dec: 1}, {Node: 2, Dec: 1}}, false},
		"zero value":      {[]DeltaPair{{Node: 1, Dec: 1}, {Node: 2, Dec: 0}}, false},
		"zero correction": {[]DeltaPair{{Node: 1, Dec: 0}}, true},
		"negative count":  {[]DeltaPair{{Node: 1, Dec: -1}}, false},
	} {
		if _, err := appendPairs(nil, c.pairs, c.signed); err == nil {
			t.Errorf("encoder accepted a %s", name)
		}
	}

	// One pair (node 0, value 1) is 0x01 0x00 0x03: count, header (k = 0),
	// then bit 0 ends the gap's unary run and bit 1 is γ(1).
	if got, err := decodePairs([]byte{0x01, 0x00, 0x03}, nil, false); err != nil || !slices.Equal(got, []DeltaPair{{Node: 0, Dec: 1}}) {
		t.Fatalf("the reference payload decodes to %v, %v", got, err)
	}
	// k = 31 leaves room for one more node after 2^32 − 1: a zero gap
	// past it must not wrap.
	wrap := slices.Concat([]byte{0x02, 31}, bitsOf(
		[2]uint64{0b10, 2}, [2]uint64{1<<31 - 1, 31}, [2]uint64{1, 1}, // gap 2^32 − 1, value 1
		[2]uint64{1, 1}, [2]uint64{0, 31}, [2]uint64{1, 1})) // gap 0, value 1
	// γ of 2^31 (31 zeros, a one, 31 zero bits) fits a zig-zagged int32
	// but not a positive one.
	wide := slices.Concat([]byte{0x01, 0x00}, bitsOf([2]uint64{1, 1}, [2]uint64{1 << 31, 63}))
	for name, c := range map[string]struct {
		payload []byte
		signed  bool
	}{
		"empty payload":           {nil, false},
		"no header byte":          {[]byte{0x01}, false},
		"non-minimal count":       {[]byte{0x81, 0x00, 0x00, 0x03}, false},
		"non-canonical k":         {[]byte{0x01, 0x01, 0x05}, false}, // the reference pair at k = 1
		"k on an empty list":      {[]byte{0x00, 0x01}, false},
		"reserved header bit":     {[]byte{0x01, 0x20, 0x03}, false},
		"signed list as unsigned": {[]byte{0x01, 0x80, 0x03}, false},
		"unsigned list as signed": {[]byte{0x01, 0x00, 0x03}, true},
		"non-zero padding":        {[]byte{0x01, 0x00, 0x83}, false},
		"trailing byte":           {[]byte{0x01, 0x00, 0x03, 0x00}, false},
		"count beyond the bits":   {[]byte{0x05, 0x00, 0x03}, false},
		"huge count":              {[]byte{0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x03}, false},
		"unary run past the end":  {[]byte{0x01, 0x00, 0x00}, false},
		"long unary run past end": {append([]byte{0x01, 0x00}, make([]byte, 20)...), false},
		"truncated γ code":        {[]byte{0x01, 0x00, 0x21}, false}, // gap 0, then γ's 4 zeros, a one and 2 of 4 bits
		"node past 2^32 - 1":      {wrap, false},
		"value past int32":        {wide, false},
	} {
		if got, err := decodePairs(c.payload, nil, c.signed); err == nil {
			t.Errorf("decoder accepted %s: %v", name, got)
		}
	}
	wide[1] = pairsSignedFlag
	if _, err := decodePairs(wide, nil, true); err != nil {
		t.Errorf("γ(2^31) as a signed correction: %v", err)
	}
}

// TestDeltaPayloadStaysSparse: a delta reply frame is lossless for every
// list it accepts and never mangles one it does not. Lists violating the
// drain invariant (unsorted, duplicate, non-positive) are refused by the
// frame encoder; an empty list and one whose nodes lie past any item
// count round-trip, since the codec carries node ids, not a vector.
func TestDeltaPayloadStaysSparse(t *testing.T) {
	refused := map[string][]DeltaPair{
		"unsorted":    {{Node: 5, Dec: 1 << 20}, {Node: 2, Dec: 1 << 20}, {Node: 9, Dec: 1 << 20}},
		"duplicate":   {{Node: 2, Dec: 1 << 20}, {Node: 2, Dec: 1 << 20}, {Node: 3, Dec: 1 << 20}},
		"nonpositive": {{Node: 1, Dec: 1 << 20}, {Node: 2, Dec: 0}, {Node: 3, Dec: 1 << 20}},
		"negative":    {{Node: 1, Dec: 1 << 20}, {Node: 2, Dec: -1}},
	}
	for name, pairs := range refused {
		if frame, err := encodeDeltasResp(0, pairs); err == nil {
			t.Errorf("%s: encoder wrote a %dB frame", name, len(frame))
		}
	}
	kept := map[string][]DeltaPair{
		"outofrange": {{Node: 1, Dec: 1 << 20}, {Node: 99, Dec: 1 << 20}},
		"empty":      {},
	}
	for name, pairs := range kept {
		frame, err := encodeDeltasResp(5, pairs)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		nanos, got, err := decodeDeltasResp(frame, nil, -1)
		if err != nil || nanos != 5 || !slices.Equal(got, pairs) {
			t.Errorf("%s: round trip %v, nanos %d, pairs %v want %v", name, err, nanos, got, pairs)
		}
	}
}

// TestDeltaPayloadUnknownForm: a frame whose payload header is not one
// the codec writes (reserved bits set, or the signed form where a delta
// reply is unsigned) must error, even with a valid integrity trailer.
func TestDeltaPayloadUnknownForm(t *testing.T) {
	// 0x01 0x00 0x03 is the reference one-pair payload; only the header
	// byte differs between the cases.
	for _, header := range []byte{0x7F, 0x20, 0x40, pairsSignedFlag} {
		payload := []byte{0x01, header, 0x03}
		frame := []byte{0}
		frame = appendI64(frame, 0)
		frame = appendU32(frame, uint32(len(payload)))
		frame = appendU32(frame, checksum.Sum(payload))
		frame = append(frame, payload...)
		if _, _, err := decodeDeltasResp(frame, nil, -1); err == nil {
			t.Errorf("payload header %#x accepted", header)
		}
	}
}

// TestWorkerSelectFramesParallelIdentical: the raw msgSelect reply frames
// of a worker must be byte-identical at every kernel parallelism — the
// wire-level form of the bit-identical guarantee. Workers get identical
// data via ingest (which is parallelism-independent), so any divergence
// is the select kernel's fault.
func TestWorkerSelectFramesParallelIdentical(t *testing.T) {
	const n = 64
	r := xrand.New(0xFACE)
	lists := make([][]uint32, 30000)
	for i := range lists {
		sz := 1 + r.Intn(6)
		set := make([]uint32, 0, sz)
		for len(set) < sz {
			v := uint32(r.Intn(n))
			dup := false
			for _, x := range set {
				dup = dup || x == v
			}
			if !dup {
				set = append(set, v)
			}
		}
		lists[i] = set
	}

	run := func(parallelism int) [][]byte {
		w, err := NewWorker(WorkerConfig{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range [][]byte{encodeIngestReq(n, lists), encodeSimpleReq(msgBeginSelect)} {
			if resp := w.Handle(req); len(resp) > 0 && resp[0] == msgError {
				t.Fatalf("P=%d setup: %s", parallelism, resp[9:])
			}
		}
		frames := make([][]byte, 0, 10)
		for u := uint32(0); u < 10; u++ {
			frame := w.Handle(encodeSelectReq(u))
			// Blank out handler nanos: timing differs run to run, the
			// payload and trailer must not.
			for i := 1; i < 9; i++ {
				frame[i] = 0
			}
			frames = append(frames, frame)
		}
		return frames
	}

	base := run(1)
	for _, p := range []int{2, 4} {
		got := run(p)
		for i := range base {
			if !bytes.Equal(base[i], got[i]) {
				t.Fatalf("P=%d select frame %d differs from sequential (%dB vs %dB)",
					p, i, len(got[i]), len(base[i]))
			}
		}
	}
}

// codecReplies are synthetic pair lists shaped like diimm_lt_tcp's (LT,
// k = 200, n = 2^18): a select reply of ≈ 6.7 K ascending nodes, 57 % of
// them with value 1; a full-vector degree sync touching every node; and
// a signed repair correction list.
func codecReplies() []codecReply {
	const n = 1 << 18
	r := xrand.New(0xC0DEC)
	geo := func(p float64) int32 { // 0, 1, 2, … with P(0) = p
		v := int32(0)
		for r.Float64() >= p && v < 1<<20 {
			v++
		}
		return v
	}
	var sel, full, repair []DeltaPair
	for v := uint32(0); v < n; v++ {
		if r.Intn(n) < 6700 {
			dec := int32(1)
			if r.Float64() >= 0.57 {
				dec = 2 + geo(0.4)
			}
			sel = append(sel, DeltaPair{Node: v, Dec: dec})
		}
		full = append(full, DeltaPair{Node: v, Dec: 1 + geo(0.3)})
		if r.Intn(n) < 2000 {
			dec := 1 + geo(0.5)
			if r.Intn(2) == 0 {
				dec = -dec
			}
			repair = append(repair, DeltaPair{Node: v, Dec: dec})
		}
	}
	return []codecReply{{"select", sel, false}, {"full", full, false}, {"repair", repair, true}}
}

type codecReply struct {
	name   string
	pairs  []DeltaPair
	signed bool
}

// BenchmarkDeltaCodec reports the delta codec's encode and decode cost
// per pair and its wire size per pair on codecReplies' lists. Decoding
// reuses one buffer, as the master's reduce stage does.
func BenchmarkDeltaCodec(b *testing.B) {
	for _, c := range codecReplies() {
		enc, err := appendPairs(nil, c.pairs, c.signed)
		if err != nil {
			b.Fatal(err)
		}
		perPair := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.pairs)), "ns/pair")
			b.ReportMetric(float64(len(enc))/float64(len(c.pairs)), "B/pair")
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				buf, _ = appendPairs(buf[:0], c.pairs, c.signed)
			}
			perPair(b)
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			var buf []DeltaPair
			for i := 0; i < b.N; i++ {
				if buf, err = decodePairs(enc, buf, c.signed); err != nil {
					b.Fatal(err)
				}
			}
			perPair(b)
		})
	}
}
