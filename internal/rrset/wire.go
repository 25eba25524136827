package rrset

import (
	"encoding/binary"
	"fmt"
)

// DecodeWire appends one wire-encoded RR-set batch (the AppendWire
// layout: count u32, then len u32 + members u32* per set) to c,
// returning the number of sets appended and the unconsumed remainder of
// b. It is the single decoder behind both the cluster master's fetch
// paths and the durable store's segment replay, so the two can never
// drift.
//
// The payload is walked twice. The first pass checks every set header
// against the bytes actually present and sums the sizes, so the arena is
// reserved once, to the exact size, and a hostile count or length can
// never reserve more than the payload holds; the second copies members
// straight into the reserved arena. A malformed payload appends nothing.
func DecodeWire(b []byte, c *Collection) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("rrset: wire payload truncated (want 4 bytes for the set count, have %d)", len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	rest := b[4:]
	var members int64
	for j := uint32(0); j < count; j++ {
		if len(rest) < 4 {
			return 0, nil, fmt.Errorf("rrset: wire payload truncated at set %d header", j)
		}
		l := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if int64(l)*4 > int64(len(rest)) {
			return 0, nil, fmt.Errorf("rrset: truncated RR set %d (%d members declared, %d bytes left)", j, l, len(rest))
		}
		members += int64(l)
		rest = rest[int(l)*4:]
	}
	c.Reserve(int(count), members)
	rest = b[4:]
	for j := uint32(0); j < count; j++ {
		l := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		at := len(c.nodes)
		c.nodes = c.nodes[:at+l]
		for m := range c.nodes[at:] {
			c.nodes[at+m] = binary.LittleEndian.Uint32(rest[m*4:])
		}
		c.offs = append(c.offs, int64(len(c.nodes)))
		rest = rest[int(l)*4:]
	}
	return int(count), rest, nil
}
