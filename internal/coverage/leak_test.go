package coverage

import (
	"slices"
	"testing"

	"dimm/internal/offheap"
	"dimm/internal/offheaptest"
	"dimm/internal/xrand"
)

func TestMain(m *testing.M) { offheaptest.Main(m) }

// TestSetSystemGreedyReleasesOracles: the collection each SetSystem
// greedy inverts the family into is large enough here (20 000 sets of
// 20 elements: 1.6 MB of members) to live off the Go heap, and each of
// them frees it when it returns, not a finalizer later.
func TestSetSystemGreedyReleasesOracles(t *testing.T) {
	const sets, size, elems = 20000, 20, 20000
	r := xrand.New(3)
	family := make([][]uint32, sets)
	for i := range family {
		for len(family[i]) < size {
			if e := uint32(r.Intn(elems)); !slices.Contains(family[i], e) {
				family[i] = append(family[i], e)
			}
		}
	}
	s, err := NewSetSystem(elems, family)
	if err != nil {
		t.Fatal(err)
	}
	if 4*s.TotalSize() < offheap.MinBytes {
		t.Fatalf("%d members stay on the heap", s.TotalSize())
	}
	runs := map[string]func() (*Result, error){
		"SequentialGreedy":    func() (*Result, error) { return s.SequentialGreedy(10) },
		"NewGreeDiSequential": func() (*Result, error) { return s.NewGreeDiSequential(10, 1) },
		"GreeDi":              func() (*Result, error) { return GreeDi(s, 10, 1) },
	}
	for name, run := range runs {
		before := offheap.Mapped()
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		if d := offheap.Mapped() - before; d != 0 {
			t.Fatalf("%s left %d bytes mapped", name, d)
		}
	}
}
