// Package offheaptest is the leak check a package whose tests map
// memory runs after them: its TestMain is one call to Main. Only test
// files import it.
package offheaptest

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dimm/internal/offheap"
)

// expected is the bytes tests leak on purpose, announced by ExpectLeak.
var expected atomic.Int64

// Main runs the package's tests, waits for the finalizers of every
// dropped owner, and fails the package when offheap.Leaked exceeds what
// tests announced with ExpectLeak: a test dropped an owner without Close
// or Release.
func Main(m *testing.M) {
	code := m.Run()
	AwaitFinalizers()
	if n := offheap.Leaked() - expected.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d off-heap bytes leaked: a test dropped an owner without Close or Release\n", n)
		code = 1
	}
	os.Exit(code)
}

// ExpectLeak announces n bytes a test drops on purpose, to check that a
// dropped owner is freed and counted.
func ExpectLeak(n int64) { expected.Add(n) }

// AwaitFinalizers collects garbage until the finalizers of everything
// unreachable have run. Finalizers run one queued batch at a time, so
// once a sentinel queued after a first sentinel ran has run too, the
// batch the first collection queued is done.
func AwaitFinalizers() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(new([32]byte), func(*[32]byte) { close(done) })
		for ran := false; !ran; {
			runtime.GC()
			select {
			case <-done:
				ran = true
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}
