package imm

import (
	"testing"

	"dimm/internal/diffusion"
	"dimm/internal/offheap"
	"dimm/internal/offheaptest"
)

func TestMain(m *testing.M) { offheaptest.Main(m) }

// TestRunIMMReleasesSample: a sequential run whose sample is large
// enough to live off the Go heap hands it back through the engine's
// Release, not through a finalizer, and the dual engine does the same
// for both of its collections.
func TestRunIMMReleasesSample(t *testing.T) {
	g := wcGraph(t, 3000, 2)
	before := offheap.Mapped()
	_, e, err := RunIMM(g, diffusion.IC, 20, 0.2, 0.05, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	if size := 4 * e.Collection().TotalSize(); size < offheap.MinBytes || offheap.Mapped()-before < size {
		t.Fatalf("a %d-byte sample with %d bytes mapped: the test wants one off the heap", size, offheap.Mapped()-before)
	}
	theta := e.Count()
	e.Release()
	if d := offheap.Mapped() - before; d != 0 {
		t.Fatalf("%d bytes still mapped after Release", d)
	}

	d, err := NewLocalDualEngine(g, diffusion.IC, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Generate(theta); err != nil {
		t.Fatal(err)
	}
	if offheap.Mapped()-before < 2*offheap.MinBytes {
		t.Fatalf("the dual engine mapped %d bytes, want both collections off the heap", offheap.Mapped()-before)
	}
	d.Release()
	if d := offheap.Mapped() - before; d != 0 {
		t.Fatalf("%d bytes still mapped after the dual engine's Release", d)
	}
}
