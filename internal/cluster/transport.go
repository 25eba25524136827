package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimm/internal/checksum"
	"dimm/internal/sealed"
)

// Conn is a reliable, ordered request/response pipe to one worker. Call
// blocks until the reply arrives. A Conn serializes its own requests; the
// master achieves parallelism by calling several Conns concurrently.
type Conn interface {
	// Call sends one request frame and returns the worker's response frame.
	Call(req []byte) ([]byte, error)
	// Bytes returns the cumulative payload bytes sent and received.
	Bytes() (sent, received int64)
	// Close releases the connection; subsequent Calls fail.
	Close() error
}

// --- in-process transport ---------------------------------------------------

// localConn runs the worker in a dedicated goroutine and exchanges fully
// encoded frames over channels. The encode/decode work is identical to the
// TCP path, so serialized traffic volume is measured faithfully even when
// "machines" are goroutines on one server (the paper's multi-core setup).
type localConn struct {
	w      *Worker
	reqCh  chan []byte
	respCh chan []byte
	done   chan struct{}
	// mu guards the closed flag AND the send on reqCh: Call sends while
	// holding the read lock, Close flips the flag and closes reqCh under
	// the write lock. The historic atomic flag allowed Close to close
	// reqCh between Call's check and its send — a "send on closed
	// channel" panic under concurrent Call/Close (ISSUE 5 regression
	// test: TestLocalConnCallCloseRace).
	mu     sync.RWMutex
	closed bool
	sent   atomic.Int64
	recv   atomic.Int64
}

// NewLocalConn spawns worker w in its own goroutine and returns the
// master's handle to it. Closing the handle releases w's sample.
func NewLocalConn(w *Worker) Conn {
	c := &localConn{
		w:      w,
		reqCh:  make(chan []byte),
		respCh: make(chan []byte),
		done:   make(chan struct{}),
	}
	go func() {
		for req := range c.reqCh {
			c.respCh <- w.Handle(req)
		}
		w.release()
		close(c.done)
	}()
	return c
}

// ErrConnClosed is the typed error a Call on an explicitly closed
// connection returns. A closed conn is a dead worker from the caller's
// perspective, so the fault-tolerance layer treats it as retryable.
var ErrConnClosed = errors.New("cluster: call on closed connection")

func (c *localConn) Call(req []byte) ([]byte, error) {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrConnClosed
	}
	c.sent.Add(int64(len(req)))
	c.reqCh <- req
	// The send is in: the worker goroutine owns the request and will
	// produce exactly one reply, so the response read can happen outside
	// the lock (Close only closes reqCh, never respCh).
	c.mu.RUnlock()
	resp := <-c.respCh
	// Copy the frame: the worker may reuse its buffers on the next call.
	out := make([]byte, len(resp))
	copy(out, resp)
	c.recv.Add(int64(len(out)))
	return out, nil
}

func (c *localConn) Bytes() (int64, int64) { return c.sent.Load(), c.recv.Load() }

func (c *localConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.reqCh)
	c.mu.Unlock()
	<-c.done
	return nil
}

// --- TCP transport ----------------------------------------------------------

// Frames on the wire are length-prefixed: u32 little-endian payload length
// followed by the payload.

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame of at most maxSize payload bytes. A header
// is a claim, not a fact: frames up to frameChunk are read into one
// exact allocation, larger ones into frameChunk pieces joined once the
// last byte arrives, so a lying header costs at most what its sender
// actually sent (≤ 2 × bytes read + frameChunk).
func readFrame(r io.Reader, maxSize uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size > maxSize {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", size, maxSize)
	}
	if size <= frameChunk {
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	var chunks [][]byte
	for left := size; left > 0; left -= min(left, frameChunk) {
		chunk := make([]byte, min(left, frameChunk))
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk)
	}
	return bytes.Join(chunks, nil), nil
}

// frameChunk is the largest frame readFrame allocates on the header's
// word alone.
const frameChunk = 1 << 20

// maxFrameSize bounds a single message; delta vectors are at most ~8n
// bytes, so 1 GiB leaves ample headroom while stopping corrupt headers
// from triggering absurd allocations.
const maxFrameSize = 1 << 30

// CallTimeoutError reports a TCP worker call that exceeded its per-call
// deadline. The connection is unusable afterwards (the response frame
// boundary is lost), so subsequent Calls fail fast; detect the condition
// with errors.As and rebuild the session.
type CallTimeoutError struct {
	Addr  string
	After time.Duration // the per-call deadline that was exceeded
}

func (e *CallTimeoutError) Error() string {
	return fmt.Sprintf("cluster: call to worker %s exceeded the %v timeout", e.Addr, e.After)
}

// Timeout marks the error as a timeout for callers testing net.Error
// semantics generically.
func (e *CallTimeoutError) Timeout() bool { return true }

// ConnBrokenError reports a Call on a TCP connection whose frame stream
// was poisoned by an earlier failed call: a timed-out call's late reply,
// the unread payload behind a rejected header, or half a request frame
// may sit in the socket, so any further exchange could pair a stale
// frame with a new request. The only safe recovery is a fresh dial,
// which the cluster's failover makes.
type ConnBrokenError struct {
	Addr string
}

func (e *ConnBrokenError) Error() string {
	return fmt.Sprintf("cluster: connection to worker %s is broken after a failed call; redial to recover", e.Addr)
}

// tcpConn is the master's handle to a worker over a socket.
type tcpConn struct {
	nc      net.Conn
	addr    string
	timeout time.Duration // 0 = block forever
	broken  bool          // a failed call poisoned the frame stream
	sent    int64
	recv    int64
}

// DialWorker connects to a worker served by Serve at addr. Calls block
// until the worker replies; use DialWorkerTimeout to bound them.
func DialWorker(addr string) (Conn, error) {
	return DialWorkerTimeout(addr, 0)
}

// DialWorkerTimeout connects to a worker served by Serve at addr, with a
// per-call deadline covering each request/response round trip (0 means
// block forever, like DialWorker). A call that overruns the deadline
// returns a *CallTimeoutError instead of hanging the master on a wedged
// worker. Any failed call marks the connection broken.
func DialWorkerTimeout(addr string, callTimeout time.Duration) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing worker %s: %w", addr, err)
	}
	if t, ok := nc.(*net.TCPConn); ok {
		_ = t.SetNoDelay(true)
	}
	return &tcpConn{nc: nc, addr: addr, timeout: callTimeout}, nil
}

// DialCluster dials one TCP worker per address, each call bounded by
// callTimeout (0: none), and installs rec with a Respawn that redials
// the failed worker's address (rec's own Respawn is replaced). A worker
// whose connection fails (a timeout, a dimmd restart) is redialed and
// rebuilt from the replay journal; it is quarantined only after
// rec.Retries attempts fail. The caller owns the cluster and closes it.
func DialCluster(addrs []string, numItems int, callTimeout time.Duration, rec Recovery) (*Cluster, error) {
	addrs = slices.Clone(addrs)
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	rec.Respawn = func(i int) (Conn, error) { return DialWorkerTimeout(addrs[i], callTimeout) }
	return newRecovering(len(addrs), numItems, rec)
}

func closeAll(conns []Conn) {
	for _, c := range conns {
		_ = c.Close()
	}
}

func (c *tcpConn) Call(req []byte) ([]byte, error) {
	if c.broken {
		return nil, &ConnBrokenError{Addr: c.addr}
	}
	if c.timeout > 0 {
		if err := c.nc.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, fmt.Errorf("cluster: arming call deadline: %w", err)
		}
	}
	if err := writeFrame(c.nc, req); err != nil {
		return nil, c.callError("sending request", err)
	}
	c.sent += int64(len(req))
	resp, err := readFrame(c.nc, maxFrameSize)
	if err != nil {
		return nil, c.callError("reading response", err)
	}
	c.recv += int64(len(resp))
	if c.timeout > 0 {
		_ = c.nc.SetDeadline(time.Time{})
	}
	return resp, nil
}

// callError marks the connection broken and wraps a transport error,
// converting deadline overruns into the typed *CallTimeoutError.
func (c *tcpConn) callError(op string, err error) error {
	c.broken = true
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return &CallTimeoutError{Addr: c.addr, After: c.timeout}
	}
	return fmt.Errorf("cluster: %s: %w", op, err)
}

func (c *tcpConn) Bytes() (int64, int64) { return c.sent, c.recv }

func (c *tcpConn) Close() error { return c.nc.Close() }

// Serve accepts one master connection after another on lis and serves
// worker w's protocol until the listener is closed. Each accepted
// connection is handled to EOF before the next accept, matching the
// one-master model. newWorker is invoked per connection so state never
// leaks across masters.
func Serve(lis net.Listener, newWorker func() (*Worker, error)) error {
	return NewWorkerServer(lis, newWorker).Serve()
}

// WorkerServer serves the worker protocol with graceful shutdown: on
// Shutdown it stops accepting masters, lets the in-flight request finish
// and its response flush, then closes the connection. cmd/dimmd wires it
// to SIGINT/SIGTERM so a worker leaving a cluster never dies mid-frame.
type WorkerServer struct {
	lis       net.Listener
	newWorker func() (*Worker, error)

	mu       sync.Mutex
	active   net.Conn
	draining atomic.Bool
	done     chan struct{}
}

// NewWorkerServer wraps a listener; call Serve to start handling masters.
func NewWorkerServer(lis net.Listener, newWorker func() (*Worker, error)) *WorkerServer {
	return &WorkerServer{lis: lis, newWorker: newWorker, done: make(chan struct{})}
}

// Serve handles one master connection after another until the listener
// closes. It returns nil after a Shutdown-initiated stop, the accept
// error otherwise.
func (s *WorkerServer) Serve() error {
	defer close(s.done)
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		w, err := s.newWorker()
		if err != nil {
			nc.Close()
			return err
		}
		s.mu.Lock()
		s.active = nc
		drain := s.draining.Load()
		s.mu.Unlock()
		if drain { // Shutdown raced the accept: refuse the session
			nc.Close()
			return nil
		}
		s.serveConn(nc, w)
		s.mu.Lock()
		s.active = nil
		s.mu.Unlock()
		if s.draining.Load() {
			return nil
		}
	}
}

func (s *WorkerServer) serveConn(nc net.Conn, w *Worker) {
	defer nc.Close()
	defer w.release()
	for {
		req, err := readFrame(nc, maxFrameSize)
		if err != nil {
			return // EOF, broken pipe, or the drain deadline expired
		}
		if err := writeFrame(nc, w.Handle(req)); err != nil {
			return
		}
		if s.draining.Load() {
			return // in-flight frame answered; drain complete
		}
	}
}

// Shutdown stops accepting new masters and drains the in-flight request:
// the current frame (if any) is answered, then the connection closes. A
// session idle in readFrame is given at most grace to produce its next
// frame; past the deadline the connection is closed forcibly. Safe to
// call from a signal handler goroutine; returns once Serve has exited.
func (s *WorkerServer) Shutdown(grace time.Duration) error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.lis.Close()
	deadline := time.Now().Add(grace)
	s.mu.Lock()
	if s.active != nil {
		// Bound the wait for the *next* frame; the frame already being
		// handled still gets its response written.
		_ = s.active.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
	case <-time.After(grace + time.Second):
		// Backstop: a handler stuck past the grace period loses its
		// connection rather than wedging the process exit.
		s.mu.Lock()
		if s.active != nil {
			s.active.Close()
		}
		s.mu.Unlock()
		<-s.done
	}
	return nil
}

// StartLoopbackWorker is a convenience for tests, benchmarks and examples:
// it serves one worker on an ephemeral loopback TCP port and returns the
// listener together with a dialed master connection. Close both when done.
func StartLoopbackWorker(cfg WorkerConfig) (net.Listener, Conn, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() {
		_ = Serve(lis, func() (*Worker, error) { return NewWorker(cfg) })
	}()
	conn, err := DialWorker(lis.Addr().String())
	if err != nil {
		lis.Close()
		return nil, nil, err
	}
	return lis, conn, nil
}

// --- frame integrity --------------------------------------------------------

// framePayloadOffset is where a checksummed response's wire payload
// begins: 1 tag byte + 8 handler nanos + 4 declared length + 4 CRC32C.
const framePayloadOffset = 1 + 8 + 4 + 4

// frameError reports a checksummed frame whose integrity trailer does not
// match its payload (the declared length disagrees with the bytes on the
// wire, or the CRC32C does not: ErrTruncated, ErrChecksum) or whose
// verified payload does not decode (ErrFormat). The trailer guards the
// frame types the master cannot cross-check semantically — RR fetch
// payloads, where a flipped bit would silently skew the sample, and
// delta replies, where it would silently skew the greedy's degree
// vector. worker is the sending worker's index, -1 for a request from
// the master.
func frameError(worker int, cause error, format string, args ...any) *sealed.Error {
	peer := "master"
	if worker >= 0 {
		peer = fmt.Sprintf("worker %d", worker)
	}
	return sealed.Corrupt("frame", peer, cause, format, args...)
}

// verifyFramePayload validates a response's declared-length and CRC32C
// trailer (written by Worker.fetchRange and encodeDeltasResp) and
// returns the verified wire payload. rest is the frame after
// decodeRespHeader stripped the tag and handler nanos.
func verifyFramePayload(worker int, rest []byte) ([]byte, error) {
	if len(rest) < 8 {
		return nil, frameError(worker, sealed.ErrTruncated,
			"frame too short for the integrity trailer (%d bytes, want >= 8)", len(rest))
	}
	declared := binary.LittleEndian.Uint32(rest)
	wantCRC := binary.LittleEndian.Uint32(rest[4:])
	payload := rest[8:]
	if int(declared) != len(payload) {
		return nil, frameError(worker, sealed.ErrTruncated,
			"declared payload length %d, received %d bytes", declared, len(payload))
	}
	if got := checksum.Sum(payload); got != wantCRC {
		return nil, frameError(worker, sealed.ErrChecksum, "frame %#x, computed %#x", wantCRC, got)
	}
	return payload, nil
}
