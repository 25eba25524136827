package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// EnvelopeSchema versions the BENCH_*.json layout. Bump it when a field
// changes meaning; the regression differ refuses to compare envelopes
// of different schema versions rather than comparing apples to oranges.
const EnvelopeSchema = 1

// MetricClass tells the regression differ how to compare a metric.
type MetricClass string

const (
	// ClassExact metrics are deterministic functions of the seed and the
	// algorithm — set counts, byte totals, coverage, digest agreement.
	// Any mean drift between runs is a regression (or a deliberate
	// change that must bless a new baseline).
	ClassExact MetricClass = "exact"
	// ClassTime metrics are lower-better wall measurements (seconds,
	// latencies, bytes-per-op). They carry noise, so the differ applies
	// the tolerance and requires both the mean and the min to regress.
	ClassTime MetricClass = "time"
	// ClassRate metrics are higher-better throughputs (sets/s, QPS).
	// Symmetric to ClassTime with the max as the tiebreak.
	ClassRate MetricClass = "rate"
	// ClassInfo metrics are recorded for humans and never compared.
	ClassInfo MetricClass = "info"
)

// HostInfo records what the numbers were measured on. Timing classes
// are only comparable same-host; the differ treats a GOMAXPROCS or CPU
// count mismatch as advisory, not as a regression.
type HostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() HostInfo {
	return HostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// EnvelopeMetric is one metric's aggregate over the sweep's repeats.
// All three figures are recorded (not just the historical fastest-run
// value) so the differ can compare means with the min/max as the noise
// tiebreak, and so a reader can judge the spread.
type EnvelopeMetric struct {
	Class MetricClass `json:"class"`
	Unit  string      `json:"unit,omitempty"`
	// TolScale widens this metric's share of the diff tolerance
	// (0 or 1 = the plain tolerance): a metric such as a tail latency
	// legitimately swings harder than a mean on a busy one-box sweep.
	TolScale float64 `json:"tol_scale,omitempty"`
	Min      float64 `json:"min"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
}

// Envelope is the common machine-readable record every BENCH_*.json now
// carries: run metadata, host info, the per-metric min/mean/max
// aggregates the regression differ consumes, and the bench's raw legacy
// report (from the final repeat) for human inspection.
type Envelope struct {
	Schema  int                       `json:"schema"`
	Bench   string                    `json:"bench"`
	Profile string                    `json:"profile"`
	Host    HostInfo                  `json:"host"`
	Params  map[string]any            `json:"params"`
	Repeats int                       `json:"repeats"`
	Metrics map[string]EnvelopeMetric `json:"metrics"`
	Report  json.RawMessage           `json:"report"`
}

// WriteJSON writes the envelope, indented, to path.
func (e *Envelope) WriteJSON(path string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadEnvelope loads an envelope written by WriteJSON.
func ReadEnvelope(path string) (*Envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if e.Schema == 0 {
		return nil, fmt.Errorf("bench: %s is not an envelope (schema field missing — a pre-envelope raw report?)", path)
	}
	return &e, nil
}

// envelopeBuilder accumulates per-repeat metric observations and
// finalizes them into an Envelope.
type envelopeBuilder struct {
	bench   string
	profile string
	params  map[string]any
	// handicap > 0 inflates time-class observations by (1+h) and
	// deflates rate-class ones by the same factor. It exists solely so
	// the harness can prove its own regression diff fails a genuinely
	// slowed run (`-sweep-handicap`); it is never set in real sweeps.
	handicap float64
	order    []string
	series   map[string]*metricSeries
}

type metricSeries struct {
	class    MetricClass
	unit     string
	tolScale float64
	vals     []float64
}

func newEnvelopeBuilder(bench, profile string, params map[string]any, handicap float64) *envelopeBuilder {
	return &envelopeBuilder{
		bench:    bench,
		profile:  profile,
		params:   params,
		handicap: handicap,
		series:   map[string]*metricSeries{},
	}
}

// observe records one repeat's value for a metric. The class and unit
// must not change across observations of the same name.
func (b *envelopeBuilder) observe(name string, class MetricClass, unit string, v float64) {
	switch class {
	case ClassTime:
		v *= 1 + b.handicap
	case ClassRate:
		v /= 1 + b.handicap
	}
	s, ok := b.series[name]
	if !ok {
		s = &metricSeries{class: class, unit: unit}
		b.series[name] = s
		b.order = append(b.order, name)
	} else if s.class != class {
		panic(fmt.Sprintf("bench: metric %q observed as %s and %s", name, s.class, class))
	}
	s.vals = append(s.vals, v)
}

// setTolScale marks an already-observed metric as carrying a wider
// per-metric noise tolerance (the differ multiplies the sweep tolerance
// by this factor). Use for tail-latency metrics whose run-to-run spread
// is legitimately larger than a mean's.
func (b *envelopeBuilder) setTolScale(name string, scale float64) {
	s, ok := b.series[name]
	if !ok {
		panic(fmt.Sprintf("bench: setTolScale(%q) before any observation", name))
	}
	s.tolScale = scale
}

func (b *envelopeBuilder) observeBool(name string, class MetricClass, v bool) {
	f := 0.0
	if v {
		f = 1
	}
	b.observe(name, class, "bool", f)
}

// finish assembles the envelope: min/mean/max per metric over the
// recorded repeats, plus the raw report of the last repeat.
func (b *envelopeBuilder) finish(repeats int, report any) (*Envelope, error) {
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	metrics := make(map[string]EnvelopeMetric, len(b.series))
	for name, s := range b.series {
		if len(s.vals) == 0 {
			continue
		}
		m := EnvelopeMetric{Class: s.class, Unit: s.unit, TolScale: s.tolScale, Min: s.vals[0], Max: s.vals[0]}
		var sum float64
		for _, v := range s.vals {
			sum += v
			m.Min = math.Min(m.Min, v)
			m.Max = math.Max(m.Max, v)
		}
		m.Mean = sum / float64(len(s.vals))
		metrics[name] = m
	}
	return &Envelope{
		Schema:  EnvelopeSchema,
		Bench:   b.bench,
		Profile: b.profile,
		Host:    hostInfo(),
		Params:  b.params,
		Repeats: repeats,
		Metrics: metrics,
		Report:  raw,
	}, nil
}

// Regression is one metric the differ judged worse than the baseline.
type Regression struct {
	Bench  string
	Metric string
	Detail string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s: %s", r.Bench, r.Metric, r.Detail)
}

// DiffEnvelopes compares a fresh envelope against a blessed baseline
// and returns every regression found.
//
// Comparison is per metric class. Exact metrics must match to the bit —
// they are deterministic functions of the seed, so any drift is a real
// behavior change. Time metrics (lower better) regress when the new
// mean exceeds the baseline mean by more than tol (a fraction, e.g.
// 0.25 = 25%) AND the new min exceeds the baseline min by the same
// margin — requiring both keeps one noisy repeat from failing the
// check, while a genuine slowdown moves the whole distribution. Rate
// metrics are symmetric with the max as the tiebreak. Info metrics are
// never compared. A metric's baseline TolScale multiplies tol — the
// per-metric noise allowance for figures (tail latencies) whose honest
// spread exceeds the global tolerance.
//
// tol < 0 selects exact-only mode: timing classes are skipped entirely.
// That is the cross-machine setting (CI runners measure different
// hardware than the blessed baseline; their wall clocks are not
// comparable, their deterministic counters are).
//
// A metric present in the baseline but missing from the fresh envelope
// is a regression (the bench silently stopped measuring it); a new
// metric absent from the baseline is not.
func DiffEnvelopes(base, cur *Envelope, tol float64) []Regression {
	var regs []Regression
	add := func(metric, format string, args ...any) {
		regs = append(regs, Regression{Bench: cur.Bench, Metric: metric, Detail: fmt.Sprintf(format, args...)})
	}
	if base.Schema != cur.Schema {
		add("schema", "baseline schema %d vs current %d — regenerate the baseline", base.Schema, cur.Schema)
		return regs
	}
	exactOnly := tol < 0

	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Metrics[name]
		if b.Class == ClassInfo {
			continue
		}
		if exactOnly && b.Class != ClassExact {
			continue
		}
		c, ok := cur.Metrics[name]
		if !ok {
			add(name, "metric missing from the new run (baseline %s=%g)", b.Class, b.Mean)
			continue
		}
		if c.Class != b.Class {
			add(name, "class changed %s -> %s — regenerate the baseline", b.Class, c.Class)
			continue
		}
		mtol := tol
		if b.TolScale > 1 {
			mtol *= b.TolScale
		}
		switch b.Class {
		case ClassExact:
			if c.Mean != b.Mean || c.Min != b.Min || c.Max != b.Max {
				add(name, "exact metric drifted: %g -> %g", b.Mean, c.Mean)
			}
		case ClassTime:
			if c.Mean > b.Mean*(1+mtol) && c.Min > b.Min*(1+mtol) {
				add(name, "slower: mean %.4g -> %.4g %s (min %.4g -> %.4g, tol %.0f%%)",
					b.Mean, c.Mean, b.Unit, b.Min, c.Min, 100*mtol)
			}
		case ClassRate:
			if c.Mean*(1+mtol) < b.Mean && c.Max*(1+mtol) < b.Max {
				add(name, "lower throughput: mean %.4g -> %.4g %s (max %.4g -> %.4g, tol %.0f%%)",
					b.Mean, c.Mean, b.Unit, b.Max, c.Max, 100*mtol)
			}
		}
	}
	return regs
}
