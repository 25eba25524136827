package core

import (
	"time"

	"dimm/internal/cluster"
	"dimm/internal/coverage"
)

// MaxCoverResult reports a distributed maximum-coverage run (Fig. 10).
type MaxCoverResult struct {
	Seeds    []uint32
	Coverage int64
	Metrics  cluster.Metrics
	Wall     time.Duration
}

// NewGreeDiMaxCoverage runs the NEWGREEDI algorithm over a cluster for a
// standalone maximum-coverage instance: the elements are partitioned
// across machines (element e to machine e mod ℓ) and shipped once during
// setup; selection then follows Algorithm 1 over the wire. Setup traffic
// is excluded from the returned Wall, mirroring the paper's methodology
// (the data is *generated* in place in the influence-maximization use;
// here it must be dealt once because the instance pre-exists).
func NewGreeDiMaxCoverage(sys *coverage.SetSystem, k, machines int) (*MaxCoverResult, error) {
	cl, err := cluster.NewLocal(cluster.WorkerConfig{}, machines, sys.NumSets(), cluster.Recovery{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Invert the set system: element e -> covering sets. Partition the
	// non-empty inverted lists round-robin by element id.
	lists := make([][]uint32, sys.NumElements())
	for s := 0; s < sys.NumSets(); s++ {
		for _, e := range sys.Set(s) {
			lists[e] = append(lists[e], uint32(s))
		}
	}
	shards := make([][][]uint32, machines)
	for e, l := range lists {
		if len(l) == 0 {
			continue
		}
		m := e % machines
		shards[m] = append(shards[m], l)
	}
	for m, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		if err := cl.Ingest(m, shard); err != nil {
			return nil, err
		}
	}

	setup := cl.Metrics()
	start := time.Now()
	res, err := coverage.RunGreedy(cl.Oracle(), k)
	if err != nil {
		return nil, err
	}
	m := cl.Metrics()
	m.SelCritical -= setup.SelCritical
	m.SelTotal -= setup.SelTotal
	m.MasterCompute -= setup.MasterCompute
	m.Comm -= setup.Comm
	m.BytesSent -= setup.BytesSent
	m.BytesReceived -= setup.BytesReceived
	m.Rounds -= setup.Rounds
	return &MaxCoverResult{
		Seeds:    res.Seeds,
		Coverage: res.Coverage,
		Metrics:  m,
		Wall:     time.Since(start),
	}, nil
}
