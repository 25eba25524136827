package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/rrset"
	"dimm/internal/rss"
)

// OOCOptions configures the out-of-core sampling benchmark: RR-set
// generation straight off a segmented (.dsg) graph file, contrasting the
// mmap backend (CSR served from the page cache, resident only where
// sampling touched it) against the mem backend (a verified private copy
// of the whole file, always resident).
type OOCOptions struct {
	GraphPath string // segmented graph file (required)
	Model     diffusion.Model
	Subset    bool // SUBSIM subset sampling
	Seed      uint64
	Count     int64 // RR sets generated per batch level (default 100_000)
	Bs        []int // frontier-batch width sweep (default 1, 64, 256)
	Backends  []graph.Backend
	// ColdSets sizes the mmap backend's cold-start phase: the file is
	// evicted from the page cache (EvictFileCache) and ColdSets RR sets
	// are sampled at B=64 while every miss refaults from disk — the
	// genuinely out-of-core regime, where the residency watcher easily
	// holds peak RSS near the budget because regrowth is storage-bound.
	// The warm sweep that follows (after a sequential re-warm read)
	// measures throughput with the page cache hot. 0 defaults to 2_000;
	// negative skips the cold phase.
	ColdSets int64
	// RSSBudget bounds the mmap run's residency: a watcher samples VmRSS
	// and calls DropResidency when it crosses the budget, returning the
	// mapped pages to the page cache. 0 defaults to CSRBytes/16.
	//
	// How tightly the budget holds depends on the cache regime. Cold
	// (the ColdSets phase, file evicted): every miss is a disk read, so
	// regrowth is storage-bound and the peak sits near the budget. Warm
	// (the batch sweep on a box with the file fully cached): RSS is
	// shared clean page-cache pages, and every random fault maps a
	// fault-around cluster of surrounding cached pages (~64 KiB), so
	// the sampler re-PTEs tens of GB/s — faster than a polling madvise
	// can shed; the warm peak settles at a drop/refault equilibrium
	// above the budget (20–45% of CSR across runs on a 1-CPU box) that
	// the budget setting does not directly control. Negative disables
	// the watcher.
	RSSBudget int64
}

func (o OOCOptions) withDefaults() OOCOptions {
	if o.Seed == 0 {
		o.Seed = 20220501
	}
	if o.Count == 0 {
		o.Count = 100_000
	}
	if len(o.Bs) == 0 {
		o.Bs = []int{1, 64, 256}
	}
	if o.ColdSets == 0 {
		o.ColdSets = 2_000
	}
	if len(o.Backends) == 0 {
		// Mmap first: its residency figure is only honest while nothing
		// else is resident. The mem backend's copy is unmapped when its
		// run closes the graph, but the run's sample arenas (freed by Go,
		// not promptly returned to the OS) would sit under the mmap
		// run's RSS.
		o.Backends = []graph.Backend{graph.BackendMmap, graph.BackendMem}
	}
	return o
}

// OOCLevel is one frontier-batch-width level of a backend's run.
type OOCLevel struct {
	Batch        int     `json:"batch"`
	Sets         int64   `json:"sets"`
	TotalSize    int64   `json:"total_size"`
	Probes       int64   `json:"probes"`
	Seconds      float64 `json:"seconds"`
	SetsPerSec   float64 `json:"sets_per_sec"`
	ProbesPerSec float64 `json:"probes_per_sec"`
	// PeakRSS is this level's own high-water mark (the per-phase reset
	// lets a run see which batch width forms the backend's peak).
	PeakRSS int64 `json:"peak_rss_bytes"`
	// Digest fingerprints the sampled collection (every member of every
	// set, in order). Identical digests across backends and batch widths
	// are the bit-identity guarantee measured, not assumed.
	Digest string `json:"digest"`
}

// OOCBackendResult is one backend's pass over the batch sweep.
//
// PeakRSS covers the whole pass, warm sweep included — on a warm page
// cache it reflects shared clean file pages that the kernel's
// fault-around repopulates faster than madvise can shed them. ColdStart
// (mmap only) is the out-of-core figure: sampling with the file evicted
// from the page cache, where its PeakRSS is genuinely bounded by the
// residency budget.
type OOCBackendResult struct {
	Backend         string     `json:"backend"`
	OpenSeconds     float64    `json:"open_seconds"`
	OpenRSS         int64      `json:"open_rss_bytes"`
	PeakRSS         int64      `json:"peak_rss_bytes"`
	PeakRSSFrac     float64    `json:"peak_rss_frac_of_csr"`
	Drops           int64      `json:"residency_drops"`
	ColdStart       *OOCLevel  `json:"cold_start,omitempty"`
	ColdPeakRSSFrac float64    `json:"cold_peak_rss_frac_of_csr,omitempty"`
	Levels          []OOCLevel `json:"levels"`
}

// OOCReport is the machine-readable record written to BENCH_OOC.json.
// PeakResettable=false means the kernel refused /proc/self/clear_refs
// and every PeakRSS is the whole-process high-water mark instead of a
// per-backend one.
type OOCReport struct {
	GOMAXPROCS     int                `json:"gomaxprocs"`
	NumCPU         int                `json:"num_cpu"`
	GraphPath      string             `json:"graph_path"`
	Nodes          int64              `json:"nodes"`
	Edges          int64              `json:"edges"`
	CSRBytes       int64              `json:"csr_bytes"`
	FileBytes      int64              `json:"file_bytes"`
	WeightTag      string             `json:"weight_tag"`
	Model          string             `json:"model"`
	Subset         bool               `json:"subset"`
	Seed           uint64             `json:"seed"`
	Count          int64              `json:"count"`
	ColdSets       int64              `json:"cold_sets"`
	RSSBudget      int64              `json:"rss_budget_bytes"`
	PeakResettable bool               `json:"peak_resettable"`
	DigestsMatch   bool               `json:"digests_match"`
	Backends       []OOCBackendResult `json:"backends"`
}

// collectionDigest hashes every set's length and members in collection
// order — a full-content fingerprint, cheap next to generating the sets.
func collectionDigest(coll *rrset.Collection) string {
	h := sha256.New()
	var buf [4]byte
	for i := 0; i < coll.Count(); i++ {
		set := coll.Set(i)
		binary.LittleEndian.PutUint32(buf[:], uint32(len(set)))
		h.Write(buf[:])
		for _, v := range set {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// residencyWatcher polls VmRSS and sheds the graph's mapped pages
// whenever the process crosses budget. MADV_DONTNEED on a read-only
// file mapping drops page-table entries, not page-cache contents, so a
// drop costs re-faults (minor, usually) rather than re-reads.
//
// One drop per poll is not enough: the sampler re-PTEs tens of GB/s on
// a warm page cache (every random fault maps a fault-around cluster of
// surrounding cached pages), and it keeps faulting pages back in behind
// the madvise cursor while a drop is in flight. So on crossing the
// budget the watcher spins drops back-to-back until residency is below
// half the budget — on a saturated box the spinning watcher also steals
// cycles from the faulting sampler, a negative-feedback throttle that
// holds the peak instead of chasing it. The spin bails once a full drop
// stops reducing RSS: what remains is heap, which madvise cannot shed.
type residencyWatcher struct {
	stop  chan struct{}
	done  chan struct{}
	drops int64
}

func watchResidency(g *graph.Graph, budget int64) *residencyWatcher {
	w := &residencyWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				prev := rss.Current()
				if prev <= budget {
					continue
				}
				for spins := 0; spins < 64; spins++ {
					if g.DropResidency() != nil {
						return
					}
					w.drops++
					cur := rss.Current()
					if cur <= budget/2 || cur >= prev-(1<<20) {
						break
					}
					prev = cur
				}
			}
		}
	}()
	return w
}

func (w *residencyWatcher) halt() int64 {
	close(w.stop)
	<-w.done
	return w.drops
}

// RunOOC runs the out-of-core benchmark: for each backend, open the
// segmented graph, sweep the frontier-batch widths at parallelism 1
// (the sweep measures the storage substrate, not core scaling), and
// record throughput, residency and the sampled collection's digest.
func RunOOC(opt OOCOptions) (*OOCReport, error) {
	opt = opt.withDefaults()
	if opt.GraphPath == "" {
		return nil, fmt.Errorf("bench: ooc needs a segmented graph path")
	}
	info, err := graph.StatSegmented(opt.GraphPath)
	if err != nil {
		return nil, err
	}
	rep := &OOCReport{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GraphPath:      opt.GraphPath,
		Nodes:          info.Nodes,
		Edges:          info.Edges,
		CSRBytes:       info.CSRBytes,
		FileBytes:      info.FileBytes,
		WeightTag:      info.WeightTag,
		Model:          opt.Model.String(),
		Subset:         opt.Subset,
		Seed:           opt.Seed,
		Count:          opt.Count,
		ColdSets:       opt.ColdSets,
		RSSBudget:      opt.RSSBudget,
		PeakResettable: true,
		DigestsMatch:   true,
	}
	if rep.RSSBudget == 0 {
		rep.RSSBudget = info.CSRBytes / 16
	}
	var wantDigest string
	var digestOnce sync.Once
	for _, backend := range opt.Backends {
		if !rss.ResetPeak() {
			rep.PeakResettable = false
		}
		res, err := runOOCBackend(opt, backend, rep.RSSBudget)
		if err != nil {
			return nil, err
		}
		if info.CSRBytes > 0 {
			res.PeakRSSFrac = float64(res.PeakRSS) / float64(info.CSRBytes)
			if res.ColdStart != nil {
				res.ColdPeakRSSFrac = float64(res.ColdStart.PeakRSS) / float64(info.CSRBytes)
			}
		}
		for _, lv := range res.Levels {
			digestOnce.Do(func() { wantDigest = lv.Digest })
			if lv.Digest != wantDigest {
				rep.DigestsMatch = false
			}
		}
		rep.Backends = append(rep.Backends, *res)
	}
	return rep, nil
}

func runOOCBackend(opt OOCOptions, backend graph.Backend, budget int64) (*OOCBackendResult, error) {
	start := time.Now()
	g, err := graph.OpenSegmented(opt.GraphPath, backend)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	res := &OOCBackendResult{
		Backend:     backend.String(),
		OpenSeconds: time.Since(start).Seconds(),
		OpenRSS:     rss.Current(),
	}
	res.PeakRSS = rss.Peak()
	var watcher *residencyWatcher
	if backend == graph.BackendMmap && budget > 0 {
		watcher = watchResidency(g, budget)
	}
	runLevel := func(bw int, count int64) (OOCLevel, error) {
		s, err := rrset.NewShardedSamplerBatch(g, opt.Model, opt.Seed, opt.Subset, 1, bw)
		if err != nil {
			return OOCLevel{}, err
		}
		coll := rrset.NewCollection(1 << 16)
		rss.ResetPeak()
		t := time.Now()
		s.SampleManyInto(coll, count)
		secs := time.Since(t).Seconds()
		return OOCLevel{
			Batch:        bw,
			Sets:         int64(coll.Count()),
			TotalSize:    coll.TotalSize(),
			Probes:       coll.EdgesExamined(),
			Seconds:      secs,
			SetsPerSec:   float64(coll.Count()) / secs,
			ProbesPerSec: float64(coll.EdgesExamined()) / secs,
			PeakRSS:      rss.Peak(),
			Digest:       collectionDigest(coll),
		}, nil
	}
	if backend == graph.BackendMmap && opt.ColdSets > 0 {
		if err := g.EvictFileCache(); err != nil {
			return nil, fmt.Errorf("bench: evicting %s from page cache: %w", opt.GraphPath, err)
		}
		lv, err := runLevel(64, opt.ColdSets)
		if err != nil {
			return nil, err
		}
		res.ColdStart = &lv
		if lv.PeakRSS > res.PeakRSS {
			res.PeakRSS = lv.PeakRSS
		}
		// Re-warm the cache with one sequential pass (plain reads, no
		// mapping, so RSS stays flat) — otherwise the first warm level
		// would pay the cold phase's eviction back in random disk reads.
		if err := rewarmFile(opt.GraphPath); err != nil {
			return nil, err
		}
	}
	for _, bw := range opt.Bs {
		lv, err := runLevel(bw, opt.Count)
		if err != nil {
			return nil, err
		}
		if lv.PeakRSS > res.PeakRSS {
			res.PeakRSS = lv.PeakRSS
		}
		res.Levels = append(res.Levels, lv)
	}
	if watcher != nil {
		res.Drops = watcher.halt()
	}
	return res, nil
}

// rewarmFile streams the whole file through the page cache once.
func rewarmFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	var off int64
	for {
		n, err := f.ReadAt(buf, off)
		off += int64(n)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("bench: re-warming %s: %w", path, err)
		}
	}
}

// WriteJSON writes the report, indented, to path.
func (r *OOCReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// OOC runs the out-of-core benchmark, prints a table, and — when
// jsonPath is non-empty — records the report (BENCH_OOC.json). Zero
// option fields take the sweep defaults; Seed defaults to the harness
// seed.
func (c Config) OOC(opt OOCOptions, jsonPath string) (*OOCReport, error) {
	if opt.Seed == 0 {
		opt.Seed = c.Seed
	}
	rep, err := RunOOC(opt)
	if err != nil {
		return nil, err
	}
	c.printf("\n== out-of-core RR generation (%s: %s nodes / %s edges, CSR %s, budget %s) ==\n",
		rep.GraphPath, fmtCount(rep.Nodes), fmtCount(rep.Edges),
		fmtBytes(rep.CSRBytes), fmtBytes(rep.RSSBudget))
	c.printf("%-6s %5s %12s %12s %14s %12s %10s %7s\n",
		"back", "B", "sets", "sets/s", "probes/s", "peak RSS", "of CSR", "drops")
	for _, b := range rep.Backends {
		if cs := b.ColdStart; cs != nil {
			c.printf("%-6s cold-start (page cache evicted): %s sets @ B=%d in %.1fs, peak RSS %s (%.1f%% of CSR)\n",
				b.Backend, fmtCount(cs.Sets), cs.Batch, cs.Seconds,
				fmtBytes(cs.PeakRSS), 100*b.ColdPeakRSSFrac)
		}
		for i, lv := range b.Levels {
			peak, frac, drops := "", "", ""
			if i == len(b.Levels)-1 {
				peak = fmtBytes(b.PeakRSS)
				frac = fmt.Sprintf("%.1f%%", 100*b.PeakRSSFrac)
				drops = fmt.Sprintf("%d", b.Drops)
			}
			c.printf("%-6s %5d %12s %12.0f %14.0f %12s %10s %7s\n",
				b.Backend, lv.Batch, fmtCount(lv.Sets), lv.SetsPerSec, lv.ProbesPerSec,
				peak, frac, drops)
		}
	}
	if !rep.PeakResettable {
		c.printf("warning: /proc/self/clear_refs rejected the peak reset; peak RSS is per-process, not per-backend\n")
	}
	if rep.DigestsMatch {
		c.printf("collection digests identical across backends and batch widths\n")
	} else {
		c.printf("WARNING: collection digests diverged across backends (this should never happen)\n")
	}
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return nil, fmt.Errorf("bench: writing %s: %w", jsonPath, err)
		}
		c.printf("wrote %s\n", jsonPath)
	}
	return rep, nil
}
