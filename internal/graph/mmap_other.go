//go:build !unix

package graph

import (
	"fmt"
	"os"
)

// The mmap backend is Unix-only; other platforms get a typed failure at
// open time and can always fall back to -graph-backend mem, whose region
// internal/offheap then makes an ordinary heap slice.

func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, fmt.Errorf("graph: mmap backend not supported on this platform")
}

func unmapFile(data []byte) error { return nil }

func madviseRandom(data []byte) {}
