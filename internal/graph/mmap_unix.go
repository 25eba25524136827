//go:build unix

package graph

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared. The mapping stays
// valid after f is closed.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile releases a region from mmapFile.
func unmapFile(data []byte) error {
	return syscall.Munmap(data)
}

// madviseRandom hints that access will be random (disable readahead).
// Advice is best-effort; errors are ignored on platforms without it.
func madviseRandom(data []byte) {
	if len(data) == 0 {
		return
	}
	_ = syscall.Madvise(data, syscall.MADV_RANDOM)
}
