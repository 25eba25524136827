package cluster

import (
	"bytes"
	"testing"

	"dimm/internal/checksum"
	"dimm/internal/xrand"
)

// sortedPairs builds numItems ascending drain-invariant pairs with the
// given decrement (every node touched).
func sortedPairs(numItems int, dec int32) []DeltaPair {
	pairs := make([]DeltaPair, numItems)
	for i := range pairs {
		pairs[i] = DeltaPair{Node: uint32(i), Dec: dec}
	}
	return pairs
}

// TestDeltaPayloadThreshold walks the sparse/dense crossover: for a fixed
// pair list, the encoder must pick dense exactly when the sparse encoding
// exceeds 1 + 4 + 4·numItems bytes, and the decoder must round-trip both
// forms at every point — including the exact flip edge.
func TestDeltaPayloadThreshold(t *testing.T) {
	// Large decrements make the sparse form fat (4-byte varints), so the
	// crossover happens while every node is still touched.
	for _, dec := range []int32{1, 1 << 20, 1 << 22} {
		flipped := false
		for numItems := 1; numItems <= 64; numItems++ {
			pairs := sortedPairs(numItems, dec)
			sparseLen := len(appendDeltaPayload(nil, pairs, 0)) // numItems=0 forces sparse
			payload := appendDeltaPayload(nil, pairs, numItems)
			wantDense := sparseLen > 1+4+4*numItems
			if gotDense := payload[0] == deltaFormDense; gotDense != wantDense {
				t.Fatalf("dec=%d numItems=%d: form %d, sparse %dB vs dense %dB",
					dec, numItems, payload[0], sparseLen, 1+4+4*numItems)
			}
			if wantDense {
				flipped = true
			}
			frame := encodeDeltasResp(7, pairs, numItems)
			nanos, got, err := decodeDeltasResp(frame, nil, -1)
			if err != nil || nanos != 7 || len(got) != len(pairs) {
				t.Fatalf("dec=%d numItems=%d round trip: %v (%d pairs)", dec, numItems, err, len(got))
			}
			for i := range pairs {
				if got[i] != pairs[i] {
					t.Fatalf("dec=%d numItems=%d pair %d: got %v want %v", dec, numItems, i, got[i], pairs[i])
				}
			}
		}
		// Only ≥4-byte dec varints (dec ≥ 2^21) can make sparse outgrow
		// dense here: per pair sparse spends gap(1) + dec bytes vs
		// dense's flat 4.
		if dec >= 1<<21 && !flipped {
			t.Fatalf("dec=%d never crossed into dense form", dec)
		}
	}
}

// TestDeltaPayloadStaysSparse: inputs violating the drain invariant
// (unsorted, duplicate, non-positive, out-of-range nodes) must fall back
// to the lossless sparse form even when dense would be smaller.
func TestDeltaPayloadStaysSparse(t *testing.T) {
	cases := map[string][]DeltaPair{
		"unsorted":    {{Node: 5, Dec: 1 << 20}, {Node: 2, Dec: 1 << 20}, {Node: 9, Dec: 1 << 20}},
		"duplicate":   {{Node: 2, Dec: 1 << 20}, {Node: 2, Dec: 1 << 20}, {Node: 3, Dec: 1 << 20}},
		"nonpositive": {{Node: 1, Dec: 1 << 20}, {Node: 2, Dec: 0}, {Node: 3, Dec: 1 << 20}},
		"outofrange":  {{Node: 1, Dec: 1 << 20}, {Node: 99, Dec: 1 << 20}},
		"empty":       {},
	}
	for name, pairs := range cases {
		payload := appendDeltaPayload(nil, pairs, 4) // dense would be 21 bytes
		if payload[0] != deltaFormSparse {
			t.Errorf("%s: encoder chose form %d, want sparse", name, payload[0])
		}
		frame := encodeDeltasResp(0, pairs, 4)
		_, got, err := decodeDeltasResp(frame, nil, -1)
		if err != nil || len(got) != len(pairs) {
			t.Errorf("%s: round trip %v (%d pairs, want %d)", name, err, len(got), len(pairs))
			continue
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				t.Errorf("%s: pair %d got %v want %v", name, i, got[i], pairs[i])
			}
		}
	}
}

// TestDeltaPayloadUnknownForm: a frame whose payload advertises an
// unknown form byte must error, even with a valid integrity trailer.
func TestDeltaPayloadUnknownForm(t *testing.T) {
	payload := []byte{0x7F, 1, 2, 3}
	frame := []byte{0}
	frame = appendI64(frame, 0)
	frame = appendU32(frame, uint32(len(payload)))
	frame = appendU32(frame, checksum.Sum(payload))
	frame = append(frame, payload...)
	if _, _, err := decodeDeltasResp(frame, nil, -1); err == nil {
		t.Fatal("unknown payload form accepted")
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
