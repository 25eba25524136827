package sketch

import (
	"bytes"
	"runtime/debug"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/offheaptest"
	"dimm/internal/rrset"
)

func TestMain(m *testing.M) { offheaptest.Main(m) }

// TestAbsorbOutlivesDroppedCollection: a collection whose last use is
// its Snapshot() call, as in BuildSketch(sk, coll.Snapshot(), p), keeps
// its off-heap arena mapped until Absorb returns, even with the
// collector running at GOGC=1 throughout. Only then does the dropped
// collection's finalizer free the arena, counting it in offheap.Leaked.
func TestAbsorbOutlivesDroppedCollection(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	const n, sets, size = 4096, 2048, 256 // a 2 MiB arena
	build := func() *rrset.Collection {
		c := rrset.NewCollection(sets * size)
		members := make([]uint32, size)
		for j := 0; j < sets; j++ {
			for i := range members {
				members[i] = uint32(j*7+i*16) % n
			}
			c.Append(members, 0)
		}
		return c
	}
	ref := build()
	t.Cleanup(ref.Release)
	want := mustNew(t, n, Params{K: 32, Seed: 5})
	want.Absorb(ref.Snapshot(), 1)
	for round := 0; round < 8; round++ {
		leaked := offheap.Leaked()
		s := mustNew(t, n, Params{K: 32, Seed: 5})
		s.Absorb(build().Snapshot(), 4)
		if !bytes.Equal(s.Encode(), want.Encode()) {
			t.Fatalf("round %d: a sketch absorbed from a dropped collection differs from one whose collection is held", round)
		}
		offheaptest.ExpectLeak(4 * sets * size)
		offheaptest.AwaitFinalizers()
		if got := offheap.Leaked() - leaked; got != 4*sets*size {
			t.Fatalf("round %d: Leaked grew by %d bytes for a dropped %d-byte arena", round, got, 4*sets*size)
		}
	}
}
