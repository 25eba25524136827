package bitset

import "testing"

func TestSetGetCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Fatalf("Len() = %d, want %d", b.Len(), n)
		}
		if b.Count() != 0 {
			t.Fatalf("fresh vector of %d bits has %d set", n, b.Count())
		}
		want := int64(0)
		for i := 0; i < n; i += 3 {
			b.Set(i)
			want++
		}
		for i := 0; i < n; i++ {
			if got := b.Get(i); got != (i%3 == 0) {
				t.Fatalf("n=%d: Get(%d) = %v", n, i, got)
			}
		}
		if b.Count() != want {
			t.Fatalf("n=%d: Count() = %d, want %d", n, b.Count(), want)
		}
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(128)
	b.Set(77)
	b.Set(77)
	if b.Count() != 1 {
		t.Fatalf("double Set counted twice: %d", b.Count())
	}
}

func TestResetReusesAndClears(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i++ {
		b.Set(i)
	}
	b.Reset(100)
	if b.Len() != 100 || b.Count() != 0 {
		t.Fatalf("after Reset(100): len %d, count %d", b.Len(), b.Count())
	}
	// Shrink must not leave stale bits visible after a later regrow.
	b.Reset(256)
	if b.Count() != 0 {
		t.Fatalf("regrow exposed %d stale bits", b.Count())
	}
}

func TestWordIndex(t *testing.T) {
	if WordIndex(63) != 0 || WordIndex(64) != 1 || WordIndex(129) != 2 {
		t.Fatalf("WordIndex boundaries wrong: %d %d %d",
			WordIndex(63), WordIndex(64), WordIndex(129))
	}
}

func TestWordsAliasBits(t *testing.T) {
	b := New(130)
	b.Set(70)
	w := b.Words()
	if len(w) != 3 || w[1] != 1<<6 {
		t.Fatalf("Words() = %x after Set(70)", w)
	}
	w[2] |= 1 << 1 // bit 129
	if !b.Get(129) || b.Count() != 2 {
		t.Fatalf("a store through Words() is not visible: Get(129)=%v Count=%d", b.Get(129), b.Count())
	}
}
