package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dimm/internal/graph"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/seeds   {"k": 10, "eps": 0.2}        → Answer
//	POST /v1/update  {"seq": 1, "ops": [...]}     → UpdateResult (dynamic services)
//	GET  /v1/spread?seeds=1,2,3&rounds=10000      → spread estimate
//	GET  /healthz                                 → 200 "ok"
//	GET  /statsz                                  → Stats
//	GET  /metricsz                                → raw metric registry snapshot
//
// The two query endpoints sit behind admission control: at most
// Config.MaxInFlight requests run concurrently, the rest get 429 so a
// load spike degrades into fast rejections instead of a convoy on the
// sample locks.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/seeds", s.instrument("seeds", true, s.handleSeeds))
	mux.HandleFunc("POST /v1/update", s.instrument("update", true, s.handleUpdate))
	mux.HandleFunc("GET /v1/spread", s.instrument("spread", true, s.handleSpread))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, func(w http.ResponseWriter, r *http.Request) error {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return nil
	}))
	mux.HandleFunc("GET /statsz", s.instrument("statsz", false, func(w http.ResponseWriter, r *http.Request) error {
		writeJSON(w, http.StatusOK, s.Stats())
		return nil
	}))
	mux.HandleFunc("GET /metricsz", s.instrument("metricsz", false, func(w http.ResponseWriter, r *http.Request) error {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
		return nil
	}))
	return mux
}

// instrument wraps a handler with admission control (when gated) and the
// per-endpoint latency/error accounting behind /statsz. Handlers signal
// a client error by returning an *httpError or a serve.BadQueryError;
// anything else is a 500.
func (s *Service) instrument(name string, gated bool, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	ep := s.http.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if gated {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.http.rejected.Inc()
				// RFC 6585 says a 429 SHOULD tell the client when to come
				// back; admission-control rejections clear as soon as an
				// in-flight request finishes, so the minimum granularity.
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests,
					errBody{Error: "server at capacity, retry later"})
				return
			}
		}
		start := time.Now()
		err := h(w, r)
		ep.record(time.Since(start), err != nil)
		if err == nil {
			return
		}
		var he *httpError
		var bad *BadQueryError
		var deg *DegradedError
		switch {
		case errors.As(err, &he):
			writeJSON(w, he.status, errBody{Error: he.msg})
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, errBody{Error: bad.Error()})
		case errors.As(err, &deg):
			// Lost worker capacity: the service still answers whatever the
			// resident certificate covers, so tell clients when to retry
			// rather than treating this as a server bug.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(deg.RetryAfter/time.Second)))
			writeJSON(w, http.StatusServiceUnavailable, errBody{Error: deg.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errBody{Error: err.Error()})
		}
	}
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

type errBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type seedsRequest struct {
	K   int     `json:"k"`
	Eps float64 `json:"eps"`
}

// handleSeeds answers every seed query on the certified path; ?mode=fast
// is an accepted alias, and only an unknown mode is a 400.
func (s *Service) handleSeeds(w http.ResponseWriter, r *http.Request) error {
	if _, err := ParseMode(r.URL.Query().Get("mode")); err != nil {
		return err
	}
	var req seedsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	ans, err := s.Query(req.K, req.Eps)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, ans)
	return nil
}

// updateRequest is the POST /v1/update body. Seq zero asks the service
// to assign the next sequence number; clients that retry after a lost
// ACK or a 503 should send an explicit seq so the replay is idempotent.
type updateRequest struct {
	Seq uint64     `json:"seq"`
	Ops []updateOp `json:"ops"`
}

type updateOp struct {
	Op   string  `json:"op"` // "add" | "remove" | "reweight"
	From uint32  `json:"from"`
	To   uint32  `json:"to"`
	Prob float32 `json:"prob,omitempty"`
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request) error {
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	ops := make([]graph.EdgeUpdate, len(req.Ops))
	for i, op := range req.Ops {
		eu := graph.EdgeUpdate{From: op.From, To: op.To, Prob: op.Prob}
		switch op.Op {
		case "add":
			eu.Op = graph.OpAdd
		case "remove":
			eu.Op = graph.OpRemove
		case "reweight":
			eu.Op = graph.OpReweight
		default:
			return &httpError{http.StatusBadRequest,
				fmt.Sprintf("op %d has unknown kind %q (want add|remove|reweight)", i, op.Op)}
		}
		ops[i] = eu
	}
	res, err := s.Update(req.Seq, ops)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, res)
	return nil
}

type spreadResponse struct {
	Seeds  []uint32 `json:"seeds"`
	Mode   Mode     `json:"mode"`
	Rounds int64    `json:"rounds,omitempty"`
	Mean   float64  `json:"mean"`
	Stderr float64  `json:"stderr"`
	// RelStderr is set on fast-mode answers: the sketch estimator's
	// relative standard error ≈ 1/√(K−2) (the absolute Stderr field is
	// Mean·RelStderr, kept for client compatibility).
	RelStderr float64 `json:"rel_stderr,omitempty"`
}

func (s *Service) handleSpread(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	raw := q.Get("seeds")
	if raw == "" {
		return &httpError{http.StatusBadRequest, "missing seeds parameter (comma-separated node ids)"}
	}
	parts := strings.Split(raw, ",")
	seeds := make([]uint32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return &httpError{http.StatusBadRequest, "bad seed id " + strconv.Quote(p)}
		}
		seeds = append(seeds, uint32(v))
	}
	mode, err := ParseMode(q.Get("mode"))
	if err != nil {
		return err
	}
	if mode == ModeFast {
		// The fast tier answers from the resident sketches alone — no
		// Monte-Carlo rounds, no worker RPCs, no RR-sample lock.
		est, rel, err := s.SpreadSketch(seeds)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, spreadResponse{
			Seeds: seeds, Mode: ModeFast, Mean: est,
			Stderr: est * rel, RelStderr: rel,
		})
		return nil
	}
	rounds := int64(10_000)
	if rs := q.Get("rounds"); rs != "" {
		v, err := strconv.ParseInt(rs, 10, 64)
		if err != nil {
			return &httpError{http.StatusBadRequest, "bad rounds value " + strconv.Quote(rs)}
		}
		rounds = v
	}
	mean, stderr, err := s.Spread(seeds, rounds)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, spreadResponse{Seeds: seeds, Mode: ModeCertified, Rounds: rounds, Mean: mean, Stderr: stderr})
	return nil
}
