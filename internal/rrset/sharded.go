package rrset

import (
	"fmt"
	"sync"

	"dimm/internal/diffusion"
	"dimm/internal/graph"
	"dimm/internal/xrand"
)

// shardSampler is the per-shard generation engine: either a scalar
// Sampler or a frontier-batched BatchSampler. Both sample the same
// stream for the same seed, byte for byte, so the choice is purely a
// performance knob.
type shardSampler interface {
	SampleManyInto(c *Collection, count int64)
	setRoots(a *xrand.Alias)
	batchStats() BatchStats
	// laneState exposes (stream seed, lifetime set counter) so the lane
	// seeds of upcoming sets can be computed without sampling them — the
	// per-set provenance a dynamic-graph worker journals for repair.
	laneState() (base, setCtr uint64)
}

func (s *Sampler) setRoots(a *xrand.Alias)          { s.roots = a }
func (s *Sampler) batchStats() BatchStats           { return BatchStats{} }
func (s *Sampler) laneState() (uint64, uint64)      { return s.base, s.setCtr }
func (s *BatchSampler) setRoots(a *xrand.Alias)     { s.roots = a }
func (s *BatchSampler) batchStats() BatchStats      { return s.Stats() }
func (s *BatchSampler) laneState() (uint64, uint64) { return s.base, s.setCtr }

// ShardedSampler fans RR-set generation across P shard samplers, each a
// private sampler with its own RNG stream and scratch state, generating
// into a private arena Collection. It parallelizes the per-machine share
// of distributed RIS (Corollary 1 concentrates that share at total/ℓ;
// intra-worker shards split it again by P) the way gIM and the Intel
// optimized-parallel-IM implementations do, adapted to Go: the arenas
// stay flat and per-shard, so the GC-pressure invariant of DESIGN.md key
// choice #1 survives parallelism.
//
// Determinism: shard s samples the stream xrand.MachineSeed(seed, s), a
// request for N sets is split as N/P (+1 for the first N%P shards), and
// shard outputs are merged in ascending shard order — so a fixed
// (seed, P) yields a byte-identical collection regardless of goroutine
// scheduling. P = 1 runs the seed's stream directly on the caller's
// goroutine and is bit-identical to a plain Sampler. The frontier-batch
// width (batching *within* each shard) never changes output bytes, so it
// is not part of the determinism fingerprint.
type ShardedSampler struct {
	g      *graph.Graph
	shards []shardSampler
	bufs   []*Collection // per-shard merge buffers, reused across rounds
	batch  int
}

// NewShardedSampler returns a sampler running parallelism scalar shard
// streams. Values below 1 are treated as 1 (sequential).
func NewShardedSampler(g *graph.Graph, model diffusion.Model, seed uint64, subset bool, parallelism int) (*ShardedSampler, error) {
	return NewShardedSamplerBatch(g, model, seed, subset, parallelism, 1)
}

// NewShardedSamplerBatch is NewShardedSampler with a frontier-batch
// width: each shard keeps up to batch RR traversals in flight (see
// BatchSampler). batch ≤ 1 selects the scalar kernel; output bytes are
// identical either way.
func NewShardedSamplerBatch(g *graph.Graph, model diffusion.Model, seed uint64, subset bool, parallelism, batch int) (*ShardedSampler, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	if batch < 1 {
		batch = 1
	}
	if g.MutationEnabled() {
		// The frontier-batched kernel does not scan overlay adjacency;
		// dynamic graphs run the scalar kernel. Batch width is not part
		// of stream identity, so coercion never changes output bytes.
		batch = 1
	}
	ss := &ShardedSampler{
		g:      g,
		shards: make([]shardSampler, parallelism),
		bufs:   make([]*Collection, parallelism),
		batch:  batch,
	}
	for i := range ss.shards {
		shardSeed := seed
		if parallelism > 1 {
			shardSeed = xrand.MachineSeed(seed, i)
		}
		var s shardSampler
		var err error
		if batch > 1 {
			s, err = NewBatchSampler(g, model, shardSeed, subset, batch)
		} else {
			s, err = NewSampler(g, model, shardSeed, subset)
		}
		if err != nil {
			return nil, err
		}
		ss.shards[i] = s
		ss.bufs[i] = NewCollection(1 << 12)
	}
	return ss, nil
}

// Parallelism returns P, the number of shard streams.
func (ss *ShardedSampler) Parallelism() int { return len(ss.shards) }

// Batch returns the frontier-batch width each shard runs at (1 = scalar).
func (ss *ShardedSampler) Batch() int { return ss.batch }

// BatchStats returns the summed batching counters across shards. All
// zeros when the scalar kernel is selected.
func (ss *ShardedSampler) BatchStats() BatchStats {
	var total BatchStats
	for _, s := range ss.shards {
		total.Add(s.batchStats())
	}
	return total
}

// SetRootWeights switches every shard to targeted mode (weighted RR-set
// roots). The alias table is built once and shared read-only across
// shards. Pass nil to return to uniform roots.
func (ss *ShardedSampler) SetRootWeights(weights []float64) error {
	if weights == nil {
		for _, s := range ss.shards {
			s.setRoots(nil)
		}
		return nil
	}
	if len(weights) != ss.g.NumNodes() {
		return fmt.Errorf("rrset: %d root weights for %d nodes", len(weights), ss.g.NumNodes())
	}
	a, err := xrand.NewAlias(weights)
	if err != nil {
		return err
	}
	for _, s := range ss.shards {
		s.setRoots(a)
	}
	return nil
}

// AppendLaneSeeds appends the lane seeds of the next count sets this
// sampler would generate, in merge order, without sampling anything or
// advancing any stream. Because a request for count sets is always split
// per/extra across shards in shard order, set j of the upcoming round
// maps deterministically to (shard, local offset); the lane seed is then
// xrand.LaneSeed(shard stream seed, shard set counter + offset). Callers
// that journal per-set provenance (dynamic-graph repair) call this
// immediately before SampleManyInto with the same count.
func (ss *ShardedSampler) AppendLaneSeeds(dst []uint64, count int64) []uint64 {
	if count <= 0 {
		return dst
	}
	p := int64(len(ss.shards))
	per, extra := count/p, count%p
	for i, s := range ss.shards {
		n := per
		if int64(i) < extra {
			n++
		}
		base, ctr := s.laneState()
		for j := int64(0); j < n; j++ {
			dst = append(dst, xrand.LaneSeed(base, ctr+uint64(j)))
		}
	}
	return dst
}

// SampleManyInto generates count RR sets into c: each shard samples its
// deterministic share concurrently into a private arena, then the arenas
// are merged into c in shard order.
func (ss *ShardedSampler) SampleManyInto(c *Collection, count int64) {
	if count <= 0 {
		return
	}
	p := int64(len(ss.shards))
	if p == 1 {
		ss.shards[0].SampleManyInto(c, count)
		return
	}
	per, extra := count/p, count%p
	var wg sync.WaitGroup
	for i := range ss.shards {
		n := per
		if int64(i) < extra {
			n++
		}
		buf := ss.bufs[i]
		buf.Reset()
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(s shardSampler, buf *Collection, n int64) {
			defer wg.Done()
			s.SampleManyInto(buf, n)
		}(ss.shards[i], buf, n)
	}
	wg.Wait()
	// One exact reservation for the whole merge, not one regrow per shard.
	var sets int
	var members int64
	for _, buf := range ss.bufs {
		sets += buf.Count()
		members += buf.TotalSize()
	}
	c.Reserve(sets, members)
	for _, buf := range ss.bufs {
		c.AppendCollection(buf)
	}
}
