// Command benchmark is the repository's one benchmark: it drives the
// real system from outside through public functions, checks its
// outputs, and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) named in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dimm/internal/diffusion"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	outDir   string
	cacheDir string
	// shapeRPC delays every RPC on connections the benchmark builds
	// (environment BENCH_SHAPE_RPC_MS; the gate-must-gate check).
	shapeRPC time.Duration
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value float64
	N     int
}

// phaseReport is the failure accounting of one phase.
type phaseReport struct {
	Name                      string
	Sent, OK, Failed, Refused int
}

// outcome collects what a workload measured.
type outcome struct {
	vals     map[string]measured
	phases   []phaseReport
	problems []string
}

func (o *outcome) set(name string, v float64, n int) { o.vals[name] = measured{v, n} }

func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	logf("CHECK FAILED: %s", msg)
}

// phase records and prints one phase's sent / ok / failed / refused.
func (o *outcome) phase(name string, sent, ok, failed, refused int) {
	o.phases = append(o.phases, phaseReport{name, sent, ok, failed, refused})
	logf("phase %-22s sent %6d  ok %6d  failed %4d  refused %4d", name, sent, ok, failed, refused)
}

// env is what a workload runs in.
type env struct {
	cfg runConfig
	sc  scaleParams
	tr  *tracer
	out *outcome
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	var cfg runConfig
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: query mixes, update batches and the DIIMM base seed derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measuring window of one run in seconds (0 = the scale's default)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "tiny|full; tiny is a smoke test whose numbers are not comparable")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "out"), "directory for results.json and trace-<workload>.json")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.cacheDir = filepath.Join(".bench_build", "prep")
	if ms := os.Getenv("BENCH_SHAPE_RPC_MS"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil || v < 0 {
			fatal(fmt.Errorf("BENCH_SHAPE_RPC_MS=%q is not a delay in milliseconds", ms))
		}
		cfg.shapeRPC = time.Duration(v * float64(time.Millisecond))
	}

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[cfg.scale]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q (want tiny|full)", cfg.scale))
	}
	if cfg.seconds <= 0 {
		cfg.seconds = sc.Seconds
	}
	if cfg.scale == "tiny" {
		logf("*** scale tiny: a smoke test; these numbers are NOT comparable with any other run ***")
	}
	if cfg.workload == "all" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(cfg, sc)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process and assembles the
// contract result: the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func runWorkload(cfg runConfig, sc scaleParams) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, sc: sc, tr: newTracer(cfg.workload, cfg.trace), out: &outcome{vals: map[string]measured{}}}
	host := readHost()
	logf("workload %s seed %d scale %s window %.0fs traced %v | %d cpus, GOMAXPROCS %d, %s, LLC %s, %s",
		cfg.workload, cfg.seed, cfg.scale, cfg.seconds, cfg.trace, host.NumCPU, host.GOMAXPROCS, host.CPUModel, host.LLC, host.GoVersion)

	var err error
	switch cfg.workload {
	case "diimm_ic":
		err = runDIIMM(e, diimmWorkload{model: diffusion.IC, k: sc.ICK, eps: sc.ICEps})
	case "diimm_lt_tcp":
		err = runDIIMM(e, diimmWorkload{model: diffusion.LT, tcp: true, k: sc.LTK, eps: sc.LTEps})
	case "serve_certified":
		err = runServe(e, false)
	case "serve_update":
		err = runServe(e, true)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		spans := e.tr.finish()
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := writeTrace(path, spans); err != nil {
			return nil, err
		}
		logf("trace: %d spans written to %s", len(spans), path)
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, p := range e.out.phases {
		res.Attempted += int64(p.Sent)
		res.Failed += int64(p.Failed + p.Refused)
	}
	res.Correct = res.Failed == 0 && len(e.out.problems) == 0 && res.Attempted > 0
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	logf("%-36s %16s %-8s %8s %6s", "metric", "value", "unit", "samples", "bound")
	for _, s := range specs {
		m, ok := e.out.vals[s.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", cfg.workload, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: m.Value, Unit: s.Unit}
		bound := "-"
		if !cfg.trace {
			bound = strconv.FormatFloat(s.Bound, 'g', -1, 64)
		}
		logf("%-36s %16.6g %-8s %8d %6s", s.Name, m.Value, s.Unit, m.N, bound)
	}
	logf("fail_share %d/%d", res.Failed, res.Attempted)
	return res, nil
}

// runRecord is one child run as stored in results.json.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Scale    string    `json:"scale"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Host     hostFacts `json:"host"`
	Result   result    `json:"result"`
}

// runAll runs every workload in its own child process, first untraced
// and then traced, and appends the results to <out>/results.json, so
// repeated invocations with other seeds build up one result set.
func runAll(cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	records, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	host := readHost()
	failed := false
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-scale", cfg.scale, "-out", cfg.outDir, "-trace", strconv.Itoa(b2i(traced)),
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return fmt.Errorf("workload %s: no result line (%v)", w.Name, errors.Join(err, jerr))
			}
			if !res.Correct {
				failed = true
			}
			records = append(records, runRecord{w.Name, cfg.seed, cfg.scale, cfg.seconds, traced, host, res})
		}
	}
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("results appended to %s (%d runs)", path, len(records))
	if failed {
		return errors.New("at least one workload failed its output checks")
	}
	return nil
}

func readRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []runRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}
