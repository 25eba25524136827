package bench

import (
	"fmt"
	"net"
	"time"

	"dimm/internal/cluster"
	"dimm/internal/core"
	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/workload"
)

// IMRow is one (dataset, ℓ) cell of Figs. 5–9.
type IMRow struct {
	Dataset   string
	Machines  int
	Wall      time.Duration // raw master wall time on this box
	Critical  time.Duration // modeled ℓ-machine wall time (see DESIGN.md)
	Gen       time.Duration // critical-path generation time
	Compute   time.Duration // critical-path selection + master compute
	Comm      time.Duration // transport + codec time
	Bytes     int64         // total payload bytes both directions
	Rounds    int64         // broadcast rounds the run accounted
	Theta     int64         // RR sets generated
	TotalSize int64         // Σ |R|
	// MaxShare is the busiest machine's share of TotalSize: 1/ℓ when the
	// sampling work is perfectly balanced (Corollary 1), and unlike the
	// time columns independent of how many cores this box has.
	MaxShare  float64
	EstSpread float64
}

// Speedup returns base.Critical / r.Critical.
func (r IMRow) Speedup(base IMRow) float64 {
	if r.Critical <= 0 {
		return 0
	}
	return float64(base.Critical) / float64(r.Critical)
}

// runOne executes a DIIMM cell c.Repeats times and keeps the fastest
// measurement (by modeled cluster time). dial, when non-nil, provides a
// fresh set of worker connections per repeat so per-run byte counters
// start from zero.
func (c Config) runOne(spec workload.Spec, g *graph.Graph, machines int, model diffusion.Model, subset bool, dial func() ([]cluster.Conn, func(), error)) (IMRow, error) {
	runRep := func() (IMRow, error) {
		var conns []cluster.Conn
		if dial != nil {
			var shutdown func()
			var err error
			conns, shutdown, err = dial()
			if err != nil {
				return IMRow{}, err
			}
			defer shutdown()
		}
		return c.runOnce(spec, g, machines, model, subset, conns)
	}
	best, err := runRep()
	if err != nil {
		return IMRow{}, err
	}
	for rep := 1; rep < c.Repeats; rep++ {
		row, err := runRep()
		if err != nil {
			return IMRow{}, err
		}
		if row.Critical < best.Critical {
			best = row
		}
	}
	return best, nil
}

// runOnce executes a single DIIMM run and flattens it into an IMRow.
func (c Config) runOnce(spec workload.Spec, g *graph.Graph, machines int, model diffusion.Model, subset bool, conns []cluster.Conn) (IMRow, error) {
	opt := core.Options{
		K:           c.K,
		Eps:         c.Eps,
		Delta:       c.Delta,
		Machines:    machines,
		Model:       model,
		Subset:      subset,
		Seed:        c.Seed,
		Parallelism: c.Parallelism,
		Batch:       c.Batch,
	}
	var (
		res *core.Result
		err error
	)
	if conns == nil {
		res, err = core.RunDIIMM(g, opt)
	} else {
		var cl *cluster.Cluster
		cl, err = cluster.New(conns, g.NumNodes())
		if err != nil {
			return IMRow{}, err
		}
		// Model the paper's switched network analytically (see
		// Cluster.SetLinkModel): links transfer in parallel, so the
		// modeled delay is per-round RTT plus the slowest link's bytes.
		cl.SetLinkModel(c.LinkRTT, c.LinkBandwidth)
		res, err = core.RunDIIMMOnCluster(g.NumNodes(), cl, opt)
	}
	if err != nil {
		return IMRow{}, fmt.Errorf("bench: %s ℓ=%d: %w", spec.Name, machines, err)
	}
	m := res.Metrics
	var maxSize int64
	for _, w := range res.Workers {
		maxSize = max(maxSize, w.TotalSize)
	}
	return IMRow{
		Dataset:   spec.Name,
		Machines:  machines,
		Wall:      res.Wall,
		Critical:  m.CriticalPath(),
		Gen:       m.GenCritical,
		Compute:   m.SelCritical + m.MasterCompute,
		Comm:      m.Comm,
		Bytes:     m.BytesSent + m.BytesReceived,
		Rounds:    m.Rounds,
		Theta:     res.Theta,
		TotalSize: res.Stats.TotalSize,
		MaxShare:  float64(maxSize) / float64(res.Stats.TotalSize),
		EstSpread: res.EstSpread,
	}, nil
}

// printIMHeader emits the figure's column header.
func (c Config) printIMHeader(title string) {
	c.printf("\n== %s ==\n", title)
	c.printf("%-16s %4s  %10s %10s %10s %10s %10s %8s %9s %7s\n",
		"dataset", "l", "cluster", "gen", "compute", "comm", "wall(1core)", "traffic", "theta", "speedup")
}

func (c Config) printIMRow(r IMRow, base IMRow) {
	c.printf("%-16s %4d  %10s %10s %10s %10s %10s %8s %9s %6.1fx\n",
		r.Dataset, r.Machines,
		fmtDur(r.Critical), fmtDur(r.Gen), fmtDur(r.Compute), fmtDur(r.Comm), fmtDur(r.Wall),
		fmtCount(r.Bytes), fmtCount(r.Theta), r.Speedup(base))
}

// multiCoreFigure runs a Figs. 6/7/9-style sweep on the in-process
// transport and returns all rows.
func (c Config) multiCoreFigure(title string, model diffusion.Model, subset bool, counts []int) ([]IMRow, error) {
	c.printIMHeader(title)
	var rows []IMRow
	for _, spec := range c.specs() {
		g, err := spec.Build()
		if err != nil {
			return nil, err
		}
		var base IMRow
		for i, l := range counts {
			row, err := c.runOne(spec, g, l, model, subset, nil)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = row
			}
			rows = append(rows, row)
			c.printIMRow(row, base)
		}
	}
	return rows, nil
}

// dialer returns a fresh-worker dial closure for the TCP figures.
func (c Config) dialer(g *graph.Graph, model diffusion.Model, l int) func() ([]cluster.Conn, func(), error) {
	return func() ([]cluster.Conn, func(), error) {
		return c.dialTCPWorkers(g, model, l)
	}
}

// Fig6 reproduces Fig. 6: DIIMM under IC on a multi-core server.
func (c Config) Fig6() ([]IMRow, error) {
	return c.multiCoreFigure("Fig 6: DIIMM running time, IC model, multi-core server", diffusion.IC, false, c.CoreCounts)
}

// Fig7 reproduces Fig. 7: distributed SUBSIM under IC, multi-core.
func (c Config) Fig7() ([]IMRow, error) {
	return c.multiCoreFigure("Fig 7: distributed SUBSIM running time, IC model, multi-core server", diffusion.IC, true, c.CoreCounts)
}

// Fig9 reproduces Fig. 9: DIIMM under LT, multi-core.
func (c Config) Fig9() ([]IMRow, error) {
	return c.multiCoreFigure("Fig 9: DIIMM running time, LT model, multi-core server", diffusion.LT, false, c.CoreCounts)
}

// clusterFigure runs a Figs. 5/8-style sweep over real TCP loopback
// workers (one goroutine-served socket per machine, mirroring the paper's
// 17-node cluster with a 1-master/ℓ-slave layout).
func (c Config) clusterFigure(title string, model diffusion.Model, counts []int) ([]IMRow, error) {
	c.printIMHeader(title)
	var rows []IMRow
	for _, spec := range c.specs() {
		g, err := spec.Build()
		if err != nil {
			return nil, err
		}
		var base IMRow
		for i, l := range counts {
			row, err := c.runOne(spec, g, l, model, false, c.dialer(g, model, l))
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = row
			}
			rows = append(rows, row)
			c.printIMRow(row, base)
		}
	}
	return rows, nil
}

// dialTCPWorkers starts l loopback TCP workers over g and dials them.
func (c Config) dialTCPWorkers(g *graph.Graph, model diffusion.Model, l int) ([]cluster.Conn, func(), error) {
	conns := make([]cluster.Conn, 0, l)
	listeners := make([]net.Listener, 0, l)
	shutdown := func() {
		for _, conn := range conns {
			conn.Close()
		}
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for i := 0; i < l; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		listeners = append(listeners, lis)
		seed := cluster.DeriveSeed(c.Seed, i)
		par := core.ResolveParallelism(c.Parallelism, l)
		go func() {
			_ = cluster.Serve(lis, func() (*cluster.Worker, error) {
				return cluster.NewWorker(cluster.WorkerConfig{Graph: g, Model: model, Seed: seed, Parallelism: par, Batch: c.Batch})
			})
		}()
		conn, err := cluster.DialWorker(lis.Addr().String())
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		conns = append(conns, conn)
	}
	return conns, shutdown, nil
}

// Fig5 reproduces Fig. 5: DIIMM under IC over a cluster of machines (TCP).
func (c Config) Fig5() ([]IMRow, error) {
	return c.clusterFigure("Fig 5: DIIMM running time, IC model, TCP cluster", diffusion.IC, c.ClusterSizes)
}

// Fig8 reproduces Fig. 8: DIIMM under LT over a cluster of machines (TCP).
func (c Config) Fig8() ([]IMRow, error) {
	return c.clusterFigure("Fig 8: DIIMM running time, LT model, TCP cluster", diffusion.LT, c.ClusterSizes)
}

// TableIVRow is one dataset row of Table IV.
type TableIVRow struct {
	Dataset   string
	Theta     int64
	TotalSize int64
}

// TableIV reproduces Table IV: the number and total size of RR sets DIIMM
// generates under the IC model per dataset.
func (c Config) TableIV() ([]TableIVRow, error) {
	c.printf("\n== Table IV: the size of RR sets under the IC model ==\n")
	c.printf("%-16s %12s %12s %12s\n", "dataset", "#RR sets", "total size", "avg |R|")
	var rows []TableIVRow
	for _, spec := range c.specs() {
		g, err := spec.Build()
		if err != nil {
			return nil, err
		}
		row, err := c.runOne(spec, g, 4, diffusion.IC, false, nil)
		if err != nil {
			return nil, err
		}
		out := TableIVRow{Dataset: spec.Name, Theta: row.Theta, TotalSize: row.TotalSize}
		rows = append(rows, out)
		c.printf("%-16s %12s %12s %12.2f\n", out.Dataset, fmtCount(out.Theta), fmtCount(out.TotalSize),
			float64(out.TotalSize)/float64(out.Theta))
	}
	return rows, nil
}

// TableIII reproduces Table III: dataset statistics, side by side with the
// paper's original numbers.
func (c Config) TableIII() error {
	c.printf("\n== Table III: datasets (synthetic stand-ins vs paper originals) ==\n")
	c.printf("%-16s %9s %9s %11s %8s   %s\n", "dataset", "#nodes", "#edges", "type", "avgdeg", "paper: nodes/edges/avgdeg")
	for _, spec := range c.specs() {
		g, err := spec.Build()
		if err != nil {
			return err
		}
		c.printf("%-16s %9s %9s %11s %8.1f   %s / %s / %.1f\n",
			spec.Name, fmtCount(int64(g.NumNodes())), fmtCount(g.NumEdges()),
			spec.TypeString(), g.AvgDegree(),
			spec.PaperNodes, spec.PaperEdges, spec.PaperAvgDegree)
	}
	return nil
}
