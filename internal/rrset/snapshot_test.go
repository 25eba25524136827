package rrset

import (
	"encoding/binary"
	"testing"
)

// TestSnapshotImmutableAcrossAppend: a snapshot is a view of the sets
// present when it was taken, valid until the next mutation; one taken
// after growth, however many times the arena moved, sees the same first
// sets and the appended ones after them.
func TestSnapshotImmutableAcrossAppend(t *testing.T) {
	c := NewCollection(4)
	c.Append([]uint32{1, 2, 3}, 3)
	c.Append([]uint32{4}, 1)

	snap := c.Snapshot()
	if snap.Count() != 2 || snap.TotalSize() != 4 {
		t.Fatalf("snapshot count=%d total=%d, want 2/4", snap.Count(), snap.TotalSize())
	}
	for i := 0; i < 1000; i++ {
		c.Append([]uint32{uint32(i), uint32(i + 1)}, 2)
	}
	if c.Count() != 1002 {
		t.Fatalf("live collection count = %d, want 1002", c.Count())
	}
	snap = c.Snapshot()
	if snap.Count() != 1002 || snap.TotalSize() != 2004 {
		t.Fatalf("snapshot after growth count=%d total=%d, want 1002/2004", snap.Count(), snap.TotalSize())
	}
	if got := snap.Set(0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("snapshot set 0 = %v, want [1 2 3]", got)
	}
	if got := snap.Set(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("snapshot set 1 = %v, want [4]", got)
	}
	if got := snap.Set(1001); len(got) != 2 || got[0] != 999 || got[1] != 1000 {
		t.Fatalf("snapshot set 1001 = %v, want [999 1000]", got)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	c := NewCollection(0)
	snap := c.Snapshot()
	if snap.Count() != 0 || snap.TotalSize() != 0 {
		t.Fatalf("empty snapshot count=%d total=%d", snap.Count(), snap.TotalSize())
	}
}

// decodeWire parses the AppendWire layout back into explicit sets.
func decodeWire(t *testing.T, b []byte) [][]uint32 {
	t.Helper()
	if len(b) < 4 {
		t.Fatalf("short wire payload (%d bytes)", len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	sets := make([][]uint32, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			t.Fatalf("truncated set %d header", i)
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < 4*l {
			t.Fatalf("truncated set %d members", i)
		}
		set := make([]uint32, l)
		for j := uint32(0); j < l; j++ {
			set[j] = binary.LittleEndian.Uint32(b[4*j:])
		}
		b = b[4*l:]
		sets = append(sets, set)
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes after wire payload", len(b))
	}
	return sets
}

func TestAppendWireRange(t *testing.T) {
	c := NewCollection(8)
	want := [][]uint32{{7}, {1, 2}, {3, 4, 5}, {}, {9, 10}}
	for _, s := range want {
		c.Append(s, 0)
	}

	for from := 0; from <= c.Count(); from++ {
		b := c.AppendWireRange(nil, from)
		if len(b) != c.WireSizeRange(from) {
			t.Fatalf("from=%d: wire bytes %d != WireSizeRange %d", from, len(b), c.WireSizeRange(from))
		}
		got := decodeWire(t, b)
		if len(got) != len(want)-from {
			t.Fatalf("from=%d: decoded %d sets, want %d", from, len(got), len(want)-from)
		}
		for i, s := range got {
			ref := want[from+i]
			if len(s) != len(ref) {
				t.Fatalf("from=%d set %d: %v != %v", from, i, s, ref)
			}
			for j := range s {
				if s[j] != ref[j] {
					t.Fatalf("from=%d set %d: %v != %v", from, i, s, ref)
				}
			}
		}
	}

	// Whole-collection encoding must agree with the historic AppendWire.
	full := c.AppendWire(nil)
	ranged := c.AppendWireRange(nil, 0)
	if string(full) != string(ranged) {
		t.Fatal("AppendWire and AppendWireRange(0) disagree")
	}
}
