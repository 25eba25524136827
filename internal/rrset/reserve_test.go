package rrset

import (
	"bytes"
	"testing"

	"dimm/internal/xrand"
)

// randomSets returns count member lists of 1..maxSize nodes each.
func randomSets(seed uint64, count, maxSize int) [][]uint32 {
	r := xrand.New(seed)
	sets := make([][]uint32, count)
	for i := range sets {
		set := make([]uint32, 1+r.Intn(maxSize))
		for j := range set {
			set[j] = uint32(r.Intn(1 << 20))
		}
		sets[i] = set
	}
	return sets
}

// TestReserveIsInvisibleAndAllocFree: a reservation changes capacity and
// nothing else — the wire bytes equal an un-Reserved collection's — and
// appends inside it allocate nothing and reallocate nothing.
func TestReserveIsInvisibleAndAllocFree(t *testing.T) {
	sets := randomSets(1, 5000, 9)
	var members int64
	for _, s := range sets {
		members += int64(len(s))
	}
	plain, reserved := NewCollection(0), NewCollection(0)
	reserved.Reserve(len(sets), members)
	if reserved.Count() != 0 || reserved.TotalSize() != 0 {
		t.Fatalf("Reserve changed the contents: %d sets, %d members", reserved.Count(), reserved.TotalSize())
	}
	before := reserved.Regrows()
	i := 0
	if allocs := testing.AllocsPerRun(len(sets)-1, func() {
		reserved.Append(sets[i], 3)
		i++
	}); allocs != 0 {
		t.Fatalf("Append inside a reservation allocates %v times per call", allocs)
	}
	for ; i < len(sets); i++ { // AllocsPerRun's warm-up call took one set
		reserved.Append(sets[i], 3)
	}
	if got := reserved.Regrows() - before; got != 0 {
		t.Fatalf("%d reallocations inside an exact reservation", got)
	}
	for _, s := range sets {
		plain.Append(s, 3)
	}
	if !bytes.Equal(plain.AppendWire(nil), reserved.AppendWire(nil)) || plain.EdgesExamined() != reserved.EdgesExamined() {
		t.Fatal("Reserved and un-Reserved collections differ on the wire")
	}
}

// TestAppendGrowsByDoubling: an un-Reserved (or under-Reserved) collection
// must at least double on every reallocation, so growing to N entries from
// a small hint costs O(log N) regrows, not append's 1.25× dozens.
func TestAppendGrowsByDoubling(t *testing.T) {
	c := NewCollection(1 << 10)
	t.Cleanup(c.Release)
	c.Reserve(100, 50) // under-estimate: must not pin exact-fit growth
	set := make([]uint32, 16)
	lastCap := cap(c.nodes)
	for i := 0; i < 1<<16; i++ { // 2^20 members, 2^16 sets
		c.Append(set, 0)
		if now := cap(c.nodes); now != lastCap {
			if now < 2*lastCap {
				t.Fatalf("member arena regrew %d → %d, less than doubling", lastCap, now)
			}
			lastCap = now
		}
	}
	// 2^10 → 2^20 members is 10 doublings; 2^10 → 2^16+1 offsets is 7.
	if got := c.Regrows(); got > 17 {
		t.Fatalf("%d reallocations to reach 2^20 members from a 2^10 hint, want ≤ 17", got)
	}
}

// TestDecodeWireReservesFromBytes: the decoder sizes the arena from the
// payload it was handed, in one reallocation per arena, and a payload
// whose declared count or set length overruns the bytes present appends
// nothing and reserves nothing.
func TestDecodeWireReservesFromBytes(t *testing.T) {
	src := NewCollection(0)
	for _, s := range randomSets(2, 3000, 12) {
		src.Append(s, 0)
	}
	wire := src.AppendWire(nil)
	dst := NewCollection(0)
	n, rest, err := DecodeWire(wire, dst)
	if err != nil || n != src.Count() || len(rest) != 0 {
		t.Fatalf("decode: %d sets, %d trailing, %v", n, len(rest), err)
	}
	if !bytes.Equal(dst.AppendWire(nil), wire) {
		t.Fatal("decoded collection re-encodes differently")
	}
	if got := dst.Regrows(); got > 2 {
		t.Fatalf("decode reallocated %d times, want one per arena", got)
	}
	if cap(dst.nodes) != len(dst.nodes) {
		t.Fatalf("decode reserved %d members for %d", cap(dst.nodes), len(dst.nodes))
	}

	hostile := append([]byte(nil), wire...)
	hostile[0], hostile[1], hostile[2], hostile[3] = 0xff, 0xff, 0xff, 0xff // 2^32-1 sets declared
	into := NewCollection(0)
	if _, _, err := DecodeWire(hostile, into); err == nil {
		t.Fatal("overdeclared set count accepted")
	}
	if into.Count() != 0 || into.Regrows() != 0 {
		t.Fatalf("rejected payload left %d sets and %d reallocations behind", into.Count(), into.Regrows())
	}
}

// BenchmarkCollectionGrowth appends a DIIMM-sized shard (2^20 sets of 10
// members) into a collection born with the worker's 64 K hint: the cost
// of growing the arena, which the doubling policy keeps at O(log N) full
// copies. A return to append's 1.25× shows up here as time and B/op.
func BenchmarkCollectionGrowth(b *testing.B) {
	set := make([]uint32, 10)
	for i := range set {
		set[i] = uint32(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCollection(1 << 16)
		for j := 0; j < 1<<20; j++ {
			c.Append(set, 0)
		}
		if c.Regrows() > 26 {
			b.Fatalf("%d arena reallocations for 2^20 appends", c.Regrows())
		}
	}
}
