package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FaultConn wraps a Conn with scriptable fault injection for chaos
// testing the recovery layer: it can kill the connection permanently at
// a chosen call (simulating a worker process death mid-run), fail a
// prefix of calls transiently (a network blip), drop a single reply
// after the worker executed the request (a connection cut between
// request and response). Like ShapedConn it composes with any
// transport; unlike ShapedConn its purpose is to make calls fail, so it
// lives next to the recovery layer it exercises.
//
// All faults are transport-level errors — exactly what the wrapped
// transports produce on a real failure — so the cluster's failover path
// cannot tell an injected fault from a genuine one.
type FaultConn struct {
	inner Conn

	mu     sync.Mutex
	calls  int64
	killed bool

	killAt    int64 // the killAt'th call fails and the conn stays dead (0 = never)
	failFirst int64 // calls 1..failFirst fail transiently, the conn survives
	dropAt    int64 // the dropAt'th call executes but its reply is dropped (0 = never)

	faults atomic.Int64
}

// NewFaultConn wraps inner with no faults scripted; schedule them with
// KillAtCall, FailFirst and DropReplyAt before use.
func NewFaultConn(inner Conn) *FaultConn {
	return &FaultConn{inner: inner}
}

// KillAtCall schedules the n'th Call (1-based) to fail permanently: the
// wrapped conn is closed and every later Call fails too, as if the
// worker process died mid-call.
func (f *FaultConn) KillAtCall(n int64) *FaultConn {
	f.mu.Lock()
	f.killAt = n
	f.mu.Unlock()
	return f
}

// FailFirst makes the first n Calls fail with a transient transport
// error without reaching the worker; the conn works normally afterwards.
func (f *FaultConn) FailFirst(n int64) *FaultConn {
	f.mu.Lock()
	f.failFirst = n
	f.mu.Unlock()
	return f
}

// DropReplyAt lets the n'th Call (1-based) reach the worker and execute,
// then drops the reply — the ambiguous half-executed case a connection
// cut produces. Recovery must discard the worker rather than guess.
func (f *FaultConn) DropReplyAt(n int64) *FaultConn {
	f.mu.Lock()
	f.dropAt = n
	f.mu.Unlock()
	return f
}

// Faults returns how many injected faults have fired.
func (f *FaultConn) Faults() int64 { return f.faults.Load() }

// Calls returns how many Calls were attempted.
func (f *FaultConn) Calls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Call implements Conn, firing scripted faults by call index.
func (f *FaultConn) Call(req []byte) ([]byte, error) {
	f.mu.Lock()
	if f.killed {
		f.mu.Unlock()
		return nil, fmt.Errorf("fault: connection killed")
	}
	f.calls++
	call := f.calls
	if f.killAt > 0 && call >= f.killAt {
		f.killed = true
		_ = f.inner.Close()
		f.mu.Unlock()
		f.faults.Add(1)
		return nil, fmt.Errorf("fault: connection killed at call %d", call)
	}
	failFirst, dropAt := f.failFirst, f.dropAt
	f.mu.Unlock()
	if call <= failFirst {
		f.faults.Add(1)
		return nil, fmt.Errorf("fault: transient failure on call %d", call)
	}
	resp, err := f.inner.Call(req)
	if err == nil && dropAt > 0 && call == dropAt {
		f.faults.Add(1)
		return nil, fmt.Errorf("fault: reply dropped on call %d", call)
	}
	return resp, err
}

// Bytes implements Conn.
func (f *FaultConn) Bytes() (int64, int64) { return f.inner.Bytes() }

// Close implements Conn.
func (f *FaultConn) Close() error {
	f.mu.Lock()
	f.killed = true
	f.mu.Unlock()
	return f.inner.Close()
}
