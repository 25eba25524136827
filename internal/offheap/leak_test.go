//go:build unix

package offheap_test

import (
	"os"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/offheaptest"
)

func TestMain(m *testing.M) { offheaptest.Main(m) }

// TestDroppedRegionLeaks: a region dropped without Free is a leak. Its
// finalizer unmaps it and counts its page-rounded size in Leaked.
func TestDroppedRegionLeaks(t *testing.T) {
	base, leaked := offheap.Mapped(), offheap.Leaked()
	func() {
		r, err := offheap.NewRegion(offheap.MinBytes + 1)
		if err != nil {
			t.Fatal(err)
		}
		offheap.Uint32s(r.Bytes())[0] = 1
	}()
	page := os.Getpagesize()
	want := int64((offheap.MinBytes + page) &^ (page - 1))
	if got := offheap.Mapped() - base; got != want {
		t.Fatalf("%d bytes mapped for a dropped region, want %d", got, want)
	}
	offheaptest.ExpectLeak(want)
	offheaptest.AwaitFinalizers()
	if got := offheap.Mapped(); got != base {
		t.Fatalf("%d bytes still mapped after the region became garbage", got-base)
	}
	if got := offheap.Leaked() - leaked; got != want {
		t.Fatalf("Leaked grew by %d bytes for a dropped %d-byte region", got, want)
	}
}
