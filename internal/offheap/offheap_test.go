//go:build unix

package offheap

import "testing"

// TestRegionGrowthKeepsContents: ten doublings of one region (mremap on
// Linux, map-copy-unmap elsewhere) keep every byte written before each
// step, zero the new tail, and move the counter by exactly the
// page-rounded size, back to its start once freed.
func TestRegionGrowthKeepsContents(t *testing.T) {
	base := Mapped()
	size := 4 * pageSize // 16 KiB to 16 MiB on 4 KiB pages
	r, err := NewRegion(size)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(from, to int) {
		u := Uint32s(r.Bytes())
		for i := from; i < to; i++ {
			u[i] = uint32(i)*2654435761 + 1
		}
	}
	fill(0, size/4)
	for step := 0; step < 10; step++ {
		if err := r.Resize(2 * size); err != nil {
			t.Fatalf("doubling %d: %v", step, err)
		}
		u := Uint32s(r.Bytes())
		if len(u) != 2*size/4 {
			t.Fatalf("doubling %d: view holds %d words, want %d", step, len(u), 2*size/4)
		}
		for i := 0; i < size/4; i++ {
			if u[i] != uint32(i)*2654435761+1 {
				t.Fatalf("doubling %d: word %d = %#x lost", step, i, u[i])
			}
		}
		for i := size / 4; i < 2*size/4; i++ {
			if u[i] != 0 {
				t.Fatalf("doubling %d: new word %d = %#x, want 0", step, i, u[i])
			}
		}
		size *= 2
		fill(size/8, size/4)
		if got := Mapped() - base; got != int64(pageRound(size)) {
			t.Fatalf("doubling %d: %d bytes counted, want %d", step, got, pageRound(size))
		}
	}
	r.Free()
	r.Free() // idempotent
	if r.Bytes() != nil {
		t.Fatal("freed region still exposes memory")
	}
	if got := Mapped(); got != base {
		t.Fatalf("%d bytes still counted after Free, want %d", got, base)
	}
}
