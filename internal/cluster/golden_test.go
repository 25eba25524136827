package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dimm/internal/diffusion"
)

// TestDeltaFramesGolden pins the bytes of every msgDegreeDelta and
// msgSelect reply of a fixed two-round LT run, plus one crafted dense
// frame, to digests recorded before the select kernel switched from
// sort-after-drain to the ascending bitset drain. Frames carry ascending
// node ids either way, so a kernel or encoder change that alters a single
// reply byte — pair order, form choice, trailer — fails here instead of
// being assumed away. P > 1 runs the chunked map stage: the graph's
// highest node ids each cover more than 2·minParallelCovers of the 40000
// sets a round adds. The sample and every reply are the same at every P.
func TestDeltaFramesGolden(t *testing.T) {
	const golden = "9f8ca02b2136dc4041018be9174e624eafda97b571e197dd76b8d7e7eb6ff7c1"
	g := testGraph(t)
	for _, p := range []int{1, 2, 4} {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.LT, Seed: DeriveSeed(0x601D, 0), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		reply := func(req []byte) {
			t.Helper()
			frame := w.Handle(req)
			if _, _, err := decodeDeltasResp(frame, nil, -1); err != nil {
				t.Fatal(err)
			}
			clear(frame[1:9]) // handler nanos: timing, not content
			h.Write(frame)
		}
		for round := 0; round < 2; round++ {
			mustAck(t, w, encodeGenerateReq(40000))
			reply(encodeSimpleReq(msgDegreeDelta))
			mustAck(t, w, encodeSimpleReq(msgBeginSelect))
			for u := uint32(0); u < 40; u++ {
				reply(encodeSelectReq(uint32(g.NumNodes()) - 1 - u))
			}
		}
		h.Write(encodeDeltasResp(0, sortedPairs(64, 1<<22), 64)) // dense form
		if got := hex.EncodeToString(h.Sum(nil)); got != golden {
			t.Errorf("P=%d: reply frames digest %s, want %s", p, got, golden)
		}
	}
}
