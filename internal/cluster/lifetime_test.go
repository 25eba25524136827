//go:build unix

package cluster

import (
	"testing"
	"time"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/offheap"
)

// lifetimeCycles drives cycles of sample → select → reset → sample →
// close through fresh single-worker clusters from dial, and checks that
// the workers' off-heap samples come back each time without a GC: the
// reset releases the first sample, the connection's end the second.
// Each sample (an ingested bulk, which keeps the test fast under the race
// detector, topped up by the worker's sampler) is large enough that its
// arena and postings are mapped.
func lifetimeCycles(t *testing.T, g *graph.Graph, cycles int, dial func() (Conn, func())) {
	t.Helper()
	base := offheap.Mapped()
	// settled waits for the worker side to finish releasing: a TCP
	// worker does so after the master's Close returns.
	settled := func(when string, cycle int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for offheap.Mapped() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := offheap.Mapped(); got > base {
			t.Fatalf("cycle %d %s: %d bytes still mapped", cycle, when, got-base)
		}
	}
	bulk := make([][]uint32, 256)
	for i := range bulk {
		bulk[i] = make([]uint32, offheap.MinBytes/4/len(bulk))
		for j := range bulk[i] {
			bulk[i][j] = uint32((i + j) % g.NumNodes())
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		conn, stop := dial()
		cl, err := New([]Conn{conn}, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		sample := func() {
			t.Helper()
			if err := cl.Ingest(0, bulk); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Generate(1000); err != nil {
				t.Fatal(err)
			}
			if _, err := coverage.RunGreedy(cl.Oracle(), 3); err != nil { // builds the index
				t.Fatal(err)
			}
			if got := offheap.Mapped() - base; got < 2*offheap.MinBytes {
				t.Fatalf("cycle %d: sample and index not mapped (%d bytes)", cycle, got)
			}
		}
		sample()
		if err := cl.Reset(); err != nil {
			t.Fatal(err)
		}
		settled("after reset", cycle)
		sample()
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		stop()
		settled("after close", cycle)
	}
}

func TestWorkerReleasesSampleInProcess(t *testing.T) {
	g := testGraph(t)
	lifetimeCycles(t, g, 20, func() (Conn, func()) {
		w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return NewLocalConn(w), func() {}
	})
}

func TestWorkerReleasesSampleTCP(t *testing.T) {
	g := testGraph(t)
	lifetimeCycles(t, g, 20, func() (Conn, func()) {
		lis, conn, err := StartLoopbackWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return conn, func() { lis.Close() }
	})
}
