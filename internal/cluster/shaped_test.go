package cluster

import (
	"testing"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
)

func TestShapedConnAddsCommTime(t *testing.T) {
	g := testGraph(t)
	conns := make([]Conn, 2)
	for i := range conns {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(3, i)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = Shape(NewLocalConn(w), 2*time.Millisecond, 0)
	}
	cl, err := New(conns, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Generate(200); err != nil {
		t.Fatal(err)
	}
	if _, err := coverage.RunGreedy(cl.Oracle(), 5); err != nil {
		t.Fatal(err)
	}
	// Each round trip should contribute roughly the configured latency.
	// The modeled floor alone is checked: an unshaped twin's measured
	// comm is host jitter, not a baseline.
	m := cl.Metrics()
	if m.Comm < time.Duration(m.Rounds)*time.Millisecond {
		t.Fatalf("comm %v too small for %d shaped rounds", m.Comm, m.Rounds)
	}
}

func TestShapedConnBandwidthCap(t *testing.T) {
	g := testGraph(t)
	w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB/s: a ~100 KB gather should take >= ~50 ms.
	conn := Shape(NewLocalConn(w), 0, 1e6)
	cl, err := New([]Conn{conn}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Generate(5000); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	union, err := cl.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	wire := 4 * union.TotalSize() // members alone, lower bound on bytes
	want := time.Duration(float64(wire) / 1e6 * float64(time.Second))
	if elapsed < want/2 {
		t.Fatalf("gather of %d bytes at 1MB/s took %v, want at least ~%v", wire, elapsed, want)
	}
}

func TestLinkModelAddsModeledComm(t *testing.T) {
	// The model adds its delay to the accounting without sleeping, so a
	// WAN-sized RTT costs no test time and keeps the modeled addition well
	// above the measured comm's jitter on a loaded machine.
	const rtt = 20 * time.Millisecond
	g := testGraph(t)
	run := func(model bool) (Metrics, *coverage.Result) {
		cl := localCluster(t, g, 4, diffusion.IC, 61)
		if model {
			cl.SetLinkModel(rtt, 1e9/8)
		}
		if _, err := cl.Generate(400); err != nil {
			t.Fatal(err)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return cl.Metrics(), res
	}
	_, plainR := run(false)
	modelM, modelR := run(true)
	if modelR.Coverage != plainR.Coverage {
		t.Fatal("link model changed the result")
	}
	// Each broadcast round adds at least the RTT. Intrinsic (measured)
	// comm jitters between runs, so bound by the modeled additions alone.
	minExtra := time.Duration(modelM.Rounds) * rtt
	if modelM.Comm < minExtra {
		t.Fatalf("modeled comm %v below the %v the link model alone adds", modelM.Comm, minExtra)
	}
	// Generation and selection accounting must be untouched.
	if modelM.GenTotal == 0 || modelM.SelTotal == 0 {
		t.Fatal("link model clobbered compute accounting")
	}
}

func TestShapedConnTransparent(t *testing.T) {
	// Shaping must not change results, only timing.
	g := testGraph(t)
	run := func(shaped bool) *coverage.Result {
		conns := make([]Conn, 3)
		for i := range conns {
			w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.LT, Seed: DeriveSeed(9, i)})
			if err != nil {
				t.Fatal(err)
			}
			var c Conn = NewLocalConn(w)
			if shaped {
				c = Shape(c, 100*time.Microsecond, 1e9)
			}
			conns[i] = c
		}
		cl, err := New(conns, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Generate(300); err != nil {
			t.Fatal(err)
		}
		res, err := coverage.RunGreedy(cl.Oracle(), 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.Coverage != b.Coverage {
		t.Fatal("shaping changed the result")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("shaping changed the seeds")
		}
	}
}
