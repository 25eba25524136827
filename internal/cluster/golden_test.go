package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dimm/internal/diffusion"
)

// TestDeltaFramesGolden pins every msgDegreeDelta and msgSelect reply of
// a fixed two-round LT run, plus one crafted full-vector reply, twice:
// by what the frames say — the decoded pairs, a digest recorded with the
// varint codec the frames carried before the one delta codec — and by
// the frame bytes. A codec change must keep the first digest and
// re-record only the second; a kernel change that alters a pair fails
// both. P > 1 runs the chunked map stage: the graph's highest node ids
// each cover more than 2·minParallelCovers of the 40000 sets a round
// adds. The sample and every reply are the same at every P.
func TestDeltaFramesGolden(t *testing.T) {
	const (
		pairsGolden  = "e58729e5594ded3c7f806ec6f577bc25d686643e738ac48d98132f6b71022371"
		framesGolden = "8f38842604eaa034d55ce44eb2c09247a8cd003d196f5f5ab61c36c37de6f713"
	)
	g := testGraph(t)
	for _, p := range []int{1, 2, 4} {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.LT, Seed: DeriveSeed(0x601D, 0), Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		frames, pairs := sha256.New(), sha256.New()
		reply := func(frame []byte) {
			t.Helper()
			_, got, err := decodeDeltasResp(frame, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			b := appendU32(nil, uint32(len(got)))
			for _, d := range got {
				b = appendU32(appendU32(b, d.Node), uint32(d.Dec))
			}
			pairs.Write(b)
			clear(frame[1:9]) // handler nanos: timing, not content
			frames.Write(frame)
		}
		for round := 0; round < 2; round++ {
			mustAck(t, w, encodeGenerateReq(40000))
			reply(w.Handle(encodeSimpleReq(msgDegreeDelta)))
			mustAck(t, w, encodeSimpleReq(msgBeginSelect))
			for u := uint32(0); u < 40; u++ {
				reply(w.Handle(encodeSelectReq(uint32(g.NumNodes()) - 1 - u)))
			}
		}
		full, err := encodeDeltasResp(0, sortedPairs(64, 1<<22))
		if err != nil {
			t.Fatal(err)
		}
		reply(full)
		if got := hex.EncodeToString(pairs.Sum(nil)); got != pairsGolden {
			t.Errorf("P=%d: decoded pairs digest %s, want %s", p, got, pairsGolden)
		}
		if got := hex.EncodeToString(frames.Sum(nil)); got != framesGolden {
			t.Errorf("P=%d: reply frames digest %s, want %s", p, got, framesGolden)
		}
	}
}
