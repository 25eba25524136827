// Package offheap allocates large flat arrays in private anonymous
// mappings outside the Go heap. The garbage collector neither scans such
// memory nor counts it toward its pacing target, so an array kept here
// costs its own size in RSS instead of that size plus GOGC headroom plus
// whatever spans the heap retains after it grew.
//
// Two owners use it: internal/graph, whose BackendMem CSR is one region
// copied from the .dsg file, and internal/rrset, whose RR-set member
// arenas and inverted-index postings are the θ-sized arrays of a run.
//
// Memory here is released by its owner, explicitly: a Region by Free.
// A Region dropped without Free is a leak. Its finalizer still unmaps it,
// so a leak stays bounded, and adds the bytes to Leaked, which tests
// hold to zero. Nothing waits for that finalizer: the GC cannot see
// garbage outside the heap, so it may run late or never.
//
// On Linux a region grows with mremap(MREMAP_MAYMOVE), which moves page
// table entries rather than bytes, so doubling an arena copies nothing.
// Other Unix systems grow by map, copy and unmap. Elsewhere every
// allocation falls back to an ordinary heap slice.
package offheap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MinBytes is the size below which callers keep an array on the Go heap:
// a mapping costs a system call and at least a page, and a small array's
// heap overhead is noise.
const MinBytes = 1 << 20

var (
	// mapped is the process-wide total of live mapped bytes (page-rounded).
	mapped atomic.Int64
	// leaked is the total of bytes a finalizer freed instead of an owner.
	leaked atomic.Int64
	// mu serializes map, remap and unmap. Beyond the counter, it gives
	// the race detector the order it needs: a release happens before any
	// later mapping that reuses its addresses, as with syscall.Mmap's own
	// lock.
	mu sync.Mutex
)

// Mapped returns how many bytes of anonymous memory this package holds
// mapped right now, across every owner.
func Mapped() int64 { return mapped.Load() }

// Leaked returns how many bytes finalizers freed because their owner
// was dropped without releasing them: zero if every owner releases.
func Leaked() int64 { return leaked.Load() }

// RecordLeak adds n bytes to Leaked, from the finalizer of an owner
// whose memory is not a Region (a file mapping, a raw Map).
func RecordLeak(n int) { leaked.Add(int64(n)) }

// pageRound rounds n up to a whole number of pages.
func pageRound(n int) int {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

var pageSize = syscallPageSize()

// Map returns size bytes of zeroed, writable memory outside the Go heap.
// The slice's capacity is the page-rounded mapping length. Release it
// with Unmap; off Unix it is a heap slice.
func Map(size int) ([]byte, error) {
	if size <= 0 {
		return nil, nil
	}
	mu.Lock()
	defer mu.Unlock()
	b, err := sysMap(pageRound(size))
	if err != nil {
		return nil, err
	}
	mapped.Add(int64(cap(b)))
	return b[:size], nil
}

// remap resizes a region from Map or remap to size bytes, keeping the
// first min(len(b), size) bytes; new bytes are zero. On success b must
// not be used again (the mapping may have moved); on error b is
// untouched and still the caller's to Unmap.
func remap(b []byte, size int) ([]byte, error) {
	if cap(b) == 0 {
		return Map(size)
	}
	mu.Lock()
	defer mu.Unlock()
	nb, err := sysRemap(b[:cap(b)], pageRound(size))
	if err != nil {
		return b, err
	}
	mapped.Add(int64(cap(nb) - cap(b)))
	return nb[:size], nil
}

// Unmap releases a region from Map: the whole page-rounded mapping,
// whatever b's length. On Linux it makes the raw system call, because
// syscall.Munmap refuses (EINVAL) any slice syscall.Mmap did not hand
// out itself, which includes every region mremap moved (Region.Resize).
func Unmap(b []byte) error {
	if cap(b) == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	if err := sysUnmap(b[:cap(b)]); err != nil {
		return err
	}
	mapped.Add(-int64(cap(b)))
	return nil
}

// Region is one owned mapping: the handle an owner keeps so it can free
// the memory explicitly. A Region dropped without Free is freed by its
// finalizer and counted in Leaked.
type Region struct {
	b []byte
}

// NewRegion maps a region of size bytes, or returns an error if the
// mapping fails (callers fall back to the heap).
func NewRegion(size int) (*Region, error) {
	b, err := Map(size)
	if err != nil {
		return nil, err
	}
	r := &Region{b: b}
	runtime.SetFinalizer(r, func(dropped *Region) { RecordLeak(cap(dropped.b)); dropped.Free() })
	return r, nil
}

// Bytes returns the region's memory; nil once freed.
func (r *Region) Bytes() []byte { return r.b }

// Resize grows or shrinks the region to size bytes, keeping its
// contents up to the smaller size. The memory may move: every slice
// previously taken from Bytes is invalid afterwards. On error the region
// is unchanged.
func (r *Region) Resize(size int) error {
	b, err := remap(r.b, size)
	if err != nil {
		return err
	}
	r.b = b
	return nil
}

// Free unmaps the region and cancels its finalizer. Idempotent, and a
// no-op on a nil Region; every slice taken from Bytes is invalid
// afterwards.
func (r *Region) Free() {
	if r == nil || r.b == nil {
		return
	}
	b := r.b
	r.b = nil
	runtime.SetFinalizer(r, nil)
	// munmap fails only for an address range that is not a mapping,
	// which a Region never holds; there is nothing to hand back.
	_ = Unmap(b)
}

// Uint32s views b as a []uint32 of len(b)/4 elements. Mappings are page
// aligned, so the view of a region is always aligned.
func Uint32s(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// Uint16s views b as a []uint16 of len(b)/2 elements, aligned for the
// same reason as Uint32s.
func Uint16s(b []byte) []uint16 {
	if len(b) < 2 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/2)
}
