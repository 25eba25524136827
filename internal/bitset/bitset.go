// Package bitset provides the dense bit vector used for per-RR-set
// covered labels: 1 bit per element instead of the 1 byte of a []bool,
// an 8× footprint cut that keeps the map stage's working set in cache.
//
// The representation is deliberately exposed at word granularity
// (WordIndex, Words, 64 bits per word) because the parallel select
// kernel partitions work so that no two goroutines ever write the same
// word — the property that makes concurrent Set calls on disjoint word
// ranges race-free without atomics — and the coverage recount tests
// bits arithmetically, word by word.
package bitset

import "math/bits"

const wordBits = 64

// Bits is a fixed-length bit vector. The zero value is an empty vector;
// use Reset to size it.
type Bits struct {
	words []uint64
	n     int
}

// New returns a cleared bit vector of n bits.
func New(n int) *Bits {
	b := &Bits{}
	b.Reset(n)
	return b
}

// Reset resizes the vector to n bits and clears every bit, reusing the
// existing storage when it is large enough (the per-selection-run
// relabel of Algorithm 1 line 2).
func (b *Bits) Reset(n int) {
	need := (n + wordBits - 1) / wordBits
	if cap(b.words) >= need {
		b.words = b.words[:need]
		clear(b.words)
	} else {
		b.words = make([]uint64, need)
	}
	b.n = n
}

// Len returns the vector length in bits.
func (b *Bits) Len() int { return b.n }

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i. Concurrent Sets are safe if and only if the callers
// are confined to disjoint word ranges (see WordIndex).
func (b *Bits) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Count returns the number of set bits (population count).
func (b *Bits) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// WordIndex returns the index of the storage word holding bit i. Two
// bits may be Set concurrently exactly when their word indexes differ.
func WordIndex(i int) int { return i / wordBits }

// Words returns the storage words (bit i is bit i%64 of word i/64), for
// kernels that test and set bits by arithmetic instead of a branch per
// bit. The slice aliases the vector until the next Reset.
func (b *Bits) Words() []uint64 { return b.words }
