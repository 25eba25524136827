//go:build !unix

package offheap

// Without mmap every region is an ordinary heap slice: the callers' code
// paths stay the same, and the GC owns the memory.

func syscallPageSize() int { return 4096 }

func sysMap(size int) ([]byte, error) { return make([]byte, size), nil }

func sysRemap(b []byte, size int) ([]byte, error) {
	nb := make([]byte, size)
	copy(nb, b)
	return nb, nil
}

func sysUnmap(b []byte) error { return nil }
