package cluster

import (
	"testing"

	"dimm/internal/coverage"
	"dimm/internal/diffusion"
)

// corruptConn wraps a Conn and mangles responses after a configurable
// number of healthy calls, modeling a worker whose process or link went
// bad mid-run. The master must surface errors, never panic or hang.
type corruptConn struct {
	inner   Conn
	healthy int
	calls   int
	mode    string // "truncate" | "garbage" | "empty"
}

func (c *corruptConn) Call(req []byte) ([]byte, error) {
	resp, err := c.inner.Call(req)
	if err != nil {
		return nil, err
	}
	c.calls++
	if c.calls <= c.healthy {
		return resp, nil
	}
	return mangleFrame(c.mode, resp), nil
}

// mangleFrame applies one of corruptConn's gross mutations to a response.
func mangleFrame(mode string, resp []byte) []byte {
	switch mode {
	case "truncate":
		if len(resp) > 3 {
			return resp[:3]
		}
		return resp
	case "garbage":
		out := make([]byte, len(resp))
		for i := range out {
			out[i] = byte(i*131 + 7)
		}
		return out
	default:
		return nil
	}
}

func (c *corruptConn) Bytes() (int64, int64) { return c.inner.Bytes() }
func (c *corruptConn) Close() error          { return c.inner.Close() }

func TestMasterSurvivesCorruptResponses(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []string{"truncate", "garbage", "empty"} {
		t.Run(mode, func(t *testing.T) {
			conns := make([]Conn, 3)
			for i := range conns {
				w, err := NewWorker(WorkerConfig{Graph: g, Model: diffusion.IC, Seed: DeriveSeed(1, i)})
				if err != nil {
					t.Fatal(err)
				}
				var c Conn = NewLocalConn(w)
				if i == 1 {
					// Worker 1 goes bad after 2 healthy calls.
					c = &corruptConn{inner: c, healthy: 2, mode: mode}
				}
				conns[i] = c
			}
			cl, err := New(conns, g.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// First round is healthy...
			if _, err := cl.Generate(30); err != nil {
				t.Fatalf("healthy round failed: %v", err)
			}
			// ...then the corruption must surface as an error somewhere in
			// the next operations, without panics.
			sawErr := false
			if _, err := cl.Generate(30); err != nil {
				sawErr = true
			}
			if !sawErr {
				if _, err := coverage.RunGreedy(cl.Oracle(), 3); err != nil {
					sawErr = true
				}
			}
			if !sawErr {
				t.Fatal("corrupt worker went unnoticed")
			}
		})
	}
}
