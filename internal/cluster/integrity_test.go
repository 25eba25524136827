package cluster

import (
	"errors"
	"testing"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/rrset"
	"dimm/internal/sealed"
)

// flipCause is the sealed.Error cause each flipConn mode must raise.
var flipCause = map[string]error{"flip": sealed.ErrChecksum, "clip": sealed.ErrTruncated, "len": sealed.ErrTruncated}

// wantFrameError fails unless err is a frame *sealed.Error from peer with
// the given cause.
func wantFrameError(t *testing.T, what string, err, cause error, peer string) {
	t.Helper()
	var se *sealed.Error
	if !errors.As(err, &se) || !errors.Is(err, cause) || se.Artifact != "frame" || se.Path != peer {
		t.Fatalf("%s: got %v, want a frame error from %s with cause %q", what, err, peer, cause)
	}
}

// flipConn wraps a Conn and, once armed, applies a targeted mutation to
// responses of the targeted request kinds — a single flipped payload bit,
// a clipped tail, or a forged declared length — modeling silent wire
// corruption rather than the gross mangling of corruptConn.
type flipConn struct {
	inner Conn
	mode  string        // "flip" | "clip" | "len"
	kinds map[byte]bool // request kinds whose responses get mutated
	armed bool
}

func (c *flipConn) Call(req []byte) ([]byte, error) {
	resp, err := c.inner.Call(req)
	if err != nil || !c.armed || len(resp) <= framePayloadOffset {
		return resp, err
	}
	if len(req) == 0 || !c.kinds[req[0]] {
		return resp, nil // only the targeted frames carry the trailer under test
	}
	return flipFrame(c.mode, resp), nil
}

// flipFrame returns a copy of a checksummed response frame (longer than
// framePayloadOffset) with one of flipConn's mutations applied.
func flipFrame(mode string, resp []byte) []byte {
	out := make([]byte, len(resp))
	copy(out, resp)
	switch mode {
	case "flip":
		out[len(out)-1] ^= 0x10 // one bit inside the payload
	case "clip":
		out = out[:len(out)-1] // drop the payload tail
	case "len":
		out[9]++ // declared length no longer matches the payload
	}
	return out
}

func (c *flipConn) Bytes() (int64, int64) { return c.inner.Bytes() }
func (c *flipConn) Close() error          { return c.inner.Close() }

// flipCluster builds a 3-worker cluster whose worker 1 sits behind a
// flipConn in the given mode, targeting the given request kinds.
func flipCluster(t *testing.T, mode string, kinds ...byte) (*Cluster, *flipConn) {
	t.Helper()
	g := testGraph(t)
	conns := make([]Conn, 3)
	var bad *flipConn
	for i := range conns {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(1, i)})
		if err != nil {
			t.Fatal(err)
		}
		var c Conn = NewLocalConn(w)
		if i == 1 {
			bad = &flipConn{inner: c, mode: mode, kinds: make(map[byte]bool)}
			for _, k := range kinds {
				bad.kinds[k] = true
			}
			c = bad
		}
		conns[i] = c
	}
	cl, err := New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, bad
}

// TestFetchIntegrityTrailer: every silent mutation of a fetch frame must
// surface as a frame *sealed.Error naming the bad worker, on both
// the GatherAll and FetchNewSpans paths. Frames through a healthy conn must
// keep verifying.
func TestFetchIntegrityTrailer(t *testing.T) {
	for _, mode := range []string{"flip", "clip", "len"} {
		t.Run(mode, func(t *testing.T) {
			cl, bad := flipCluster(t, mode, msgFetchSince)
			if _, err := cl.Generate(40); err != nil {
				t.Fatal(err)
			}
			// Healthy fetches verify.
			since, _, err := cl.FetchNewSpans(nil, rrset.NewCollection(16))
			if err != nil {
				t.Fatalf("healthy FetchNewSpans: %v", err)
			}
			if _, err := cl.GatherAll(); err != nil {
				t.Fatalf("healthy GatherAll: %v", err)
			}

			bad.armed = true
			_, err = cl.GatherAll()
			wantFrameError(t, "GatherAll", err, flipCause[mode], "worker 1")
			// Generate more so the incremental fetch has fresh sets to carry.
			if _, err := cl.Generate(40); err != nil {
				t.Fatal(err)
			}
			_, _, err = cl.FetchNewSpans(since, rrset.NewCollection(16))
			wantFrameError(t, "FetchNewSpans", err, flipCause[mode], "worker 1")

			// And the cluster recovers once the link heals.
			bad.armed = false
			if _, _, err := cl.FetchNewSpans(since, rrset.NewCollection(16)); err != nil {
				t.Fatalf("healed FetchNewSpans: %v", err)
			}
		})
	}
}

// TestDeltaIntegrityTrailer: the delta reply frames (msgSelect and
// msgDegreeDelta replies) carry the same declared-length + CRC trailer as
// fetch frames, so any silent mutation must fail selection or degree sync
// with a frame *sealed.Error naming the bad worker, and the
// cluster must recover once the link heals.
func TestDeltaIntegrityTrailer(t *testing.T) {
	for _, mode := range []string{"flip", "clip", "len"} {
		t.Run(mode, func(t *testing.T) {
			cl, bad := flipCluster(t, mode, msgSelect, msgDegreeDelta)
			if _, err := cl.Generate(60); err != nil {
				t.Fatal(err)
			}
			// Healthy selection works end to end.
			if _, err := coverage.RunGreedy(cl.Oracle(), 2); err != nil {
				t.Fatalf("healthy selection: %v", err)
			}

			bad.armed = true
			_, err := coverage.RunGreedy(cl.Oracle(), 2)
			wantFrameError(t, "selection", err, flipCause[mode], "worker 1")
			// The degree-sync path decodes the same frame form.
			_, err = cl.Generate(20)
			wantFrameError(t, "degree sync", err, flipCause[mode], "worker 1")

			bad.armed = false
			if _, err := coverage.RunGreedy(cl.Oracle(), 2); err != nil {
				t.Fatalf("healed selection: %v", err)
			}
		})
	}
}
