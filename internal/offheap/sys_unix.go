//go:build unix && !linux

package offheap

import "syscall"

func syscallPageSize() int { return syscall.Getpagesize() }

func sysMap(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// sysRemap has no mremap to call here: it maps the new size, copies and
// unmaps the old region.
func sysRemap(b []byte, size int) ([]byte, error) {
	nb, err := sysMap(size)
	if err != nil {
		return nil, err
	}
	copy(nb, b)
	if err := syscall.Munmap(b); err != nil {
		_ = syscall.Munmap(nb)
		return nil, err
	}
	return nb, nil
}

func sysUnmap(b []byte) error { return syscall.Munmap(b) }
