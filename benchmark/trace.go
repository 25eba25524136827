package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files only, around public calls into the
// system; they stay in memory until the run ends.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer's epoch
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// Span names. The layer is the part before the first dot.
const (
	spanRun           = "core.run"                       // one DIIMM run: cluster reset to seeds returned
	spanReset         = "cluster.reset"                  // Cluster.Reset
	spanGenerate      = "cluster.generate"               // Cluster.Generate
	spanGreedy        = "coverage.run_greedy"            // coverage.RunGreedy; self time is the master reduce
	spanInitDeg       = "cluster.oracle_initial_degrees" // Oracle.InitialDegrees
	spanSelect        = "cluster.oracle_select"          // Oracle.Select
	spanStats         = "cluster.stats"                  // Cluster.Stats
	spanRPC           = "cluster.rpc"                    // one Conn.Call
	spanGraphOpen     = "graph.open"                     // graph.LoadAny
	spanWarm          = "serve.warm"                     // Service.Warm
	spanClient        = "bench.request"                  // one HTTP request as the client sees it
	spanHandler       = "serve.handler"                  // Service.Handler() on a read, as the middleware sees it
	spanHandlerUpdate = "serve.handler_update"           // the same on POST /v1/update
)

// tracer collects spans. A nil tracer, or one switched off, records
// nothing and costs one atomic load per boundary, so the same wrappers
// stay installed in the untraced run.
type tracer struct {
	on       atomic.Bool
	nextID   atomic.Int64
	rep      atomic.Int64
	epoch    time.Time
	workload string

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, on bool) *tracer {
	t := &tracer{epoch: time.Now(), workload: workload}
	t.on.Store(on)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// active is an open span; the zero value is inert.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span. parent is the id of the span that caused this
// one when the caller knows it, else 0: the parent is then resolved by
// time containment when the trace is finished (see resolveParents).
func (t *tracer) begin(name string, parent int64) active {
	if !t.enabled() {
		return active{}
	}
	return active{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	end := time.Now()
	s := span{
		ID: a.id, Parent: a.parent, Name: a.name,
		StartNS: a.start.Sub(a.t.epoch).Nanoseconds(), EndNS: end.Sub(a.t.epoch).Nanoseconds(),
		Workload: a.t.workload, Rep: int(a.t.rep.Load()),
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// finish returns the recorded spans with every parent resolved.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	resolveParents(spans)
	return spans
}

// resolveParents gives every span recorded without a parent the
// smallest span that contains it in time. The master side of a DIIMM
// run is one goroutine and traced serving uses one client per stream,
// so containment is unambiguous there; spans nothing contains stay
// roots. The RPC spans of one broadcast run concurrently, one per
// worker, and may contain each other by accident: they are leaves and
// never adopt.
func resolveParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.StartNS != y.StartNS {
			return x.StartNS < y.StartNS
		}
		return x.EndNS > y.EndNS
	})
	var open []int // indexes of spans still running at the sweep point
	for _, i := range order {
		s := &spans[i]
		keep := open[:0]
		for _, j := range open {
			if spans[j].EndNS >= s.StartNS {
				keep = append(keep, j)
			}
		}
		open = keep
		if s.Parent == 0 {
			best := -1
			for _, j := range open {
				if spans[j].Name != spanRPC && spans[j].EndNS >= s.EndNS && (best < 0 || spans[j].dur() < spans[best].dur()) {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			}
		}
		open = append(open, i)
	}
}

// covered returns how many nanoseconds of [lo, hi] the given intervals
// cover (their union, clipped).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// traceSummary is the per-name budget derived from a finished trace.
type traceSummary struct {
	total map[string]int64 // summed span duration per name
	self  map[string]int64 // summed self time per name: duration minus the part children cover
	count map[string]int64
	// childCover maps a span id to the share of it that child spans cover.
	childCover map[int64]float64
}

func summarize(spans []span) traceSummary {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	sum := traceSummary{
		total: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{},
		childCover: map[int64]float64{},
	}
	for _, s := range spans {
		cov := covered(s.StartNS, s.EndNS, children[s.ID])
		sum.total[s.Name] += s.dur()
		sum.self[s.Name] += s.dur() - cov
		sum.count[s.Name]++
		if s.dur() > 0 {
			sum.childCover[s.ID] = float64(cov) / float64(s.dur())
		}
	}
	return sum
}

// writeTrace stores the spans as one JSON array.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
