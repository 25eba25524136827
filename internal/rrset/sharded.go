package rrset

import (
	"fmt"
	"slices"
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
	// seek positions the sampler at set t of its stream.
	seek(t uint64)
}

func (s *Sampler) setRoots(a *xrand.Alias)      { s.roots = a }
func (s *Sampler) batchStats() BatchStats       { return BatchStats{} }
func (s *Sampler) seek(t uint64)                { s.setCtr = t }
func (s *BatchSampler) setRoots(a *xrand.Alias) { s.roots = a }
func (s *BatchSampler) batchStats() BatchStats  { return s.Stats() }
func (s *BatchSampler) seek(t uint64)           { s.setCtr = t }

// ShardedSampler fans RR-set generation across P shard samplers, each a
// private sampler with its own scratch state, generating into a private
// arena Collection. It parallelizes the per-machine share
// of distributed RIS (Corollary 1 concentrates that share at total/ℓ;
// intra-worker shards split it again by P) the way gIM and the Intel
// optimized-parallel-IM implementations do, adapted to Go: the arenas
// stay flat and per-shard, so the GC-pressure invariant of DESIGN.md key
// choice #1 survives parallelism.
//
// Determinism: every shard samples the one stream seed. A request for N
// sets is split as N/P (+1 for the first N%P shards), shard s takes the
// next contiguous range of set ordinals, and shard outputs are merged in
// shard order, which is ordinal order. The collection is therefore the
// stream's sets next..next+N-1 for every P and every goroutine schedule,
// byte-identical to a plain Sampler on seed; P = 1 runs on the caller's
// goroutine. Neither P nor the frontier-batch width (batching *within*
// each shard) is part of the stream identity: both are speed knobs.
type ShardedSampler struct {
	g      *graph.Graph
	seed   uint64
	next   uint64 // ordinal of the next set to generate
	shards []shardSampler
	bufs   []*Collection // per-shard merge buffers, reused across rounds
	batch  int
}

// NewShardedSampler returns a sampler running parallelism scalar shards.
// Values below 1 are treated as 1 (sequential).
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
		seed:   seed,
		shards: make([]shardSampler, parallelism),
		bufs:   make([]*Collection, parallelism),
		batch:  batch,
	}
	for i := range ss.shards {
		var s shardSampler
		var err error
		if batch > 1 {
			s, err = NewBatchSampler(g, model, seed, subset, batch)
		} else {
			s, err = NewSampler(g, model, seed, subset)
		}
		if err != nil {
			return nil, err
		}
		ss.shards[i] = s
		ss.bufs[i] = NewCollection(1 << 12)
	}
	return ss, nil
}

// Release frees the shards' merge buffers, which live off the heap once
// a round is large. The sampler stays usable; its next round regrows
// them.
func (ss *ShardedSampler) Release() {
	for _, buf := range ss.bufs {
		buf.Release()
	}
}

// Parallelism returns P, the number of shards.
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
// sampler would generate, in merge order, without sampling anything:
// set j of the upcoming round is ordinal next+j of the stream, so its
// lane seed is xrand.LaneSeed(seed, next+j). A caller that wants the
// seeds themselves calls this immediately before SampleManyInto with the
// same count; one that journals provenance compactly records Stream
// instead. It grows dst at most once.
func (ss *ShardedSampler) AppendLaneSeeds(dst []uint64, count int64) []uint64 {
	dst = slices.Grow(dst, int(count))
	for j := int64(0); j < count; j++ {
		dst = append(dst, xrand.LaneSeed(ss.seed, ss.next+uint64(j)))
	}
	return dst
}

// Stream returns the stream seed and the ordinal of the next set this
// sampler generates: the next count sets' lane seeds are
// xrand.LaneSeed(seed, next+j) for j < count, which is what
// AppendLaneSeeds appends.
func (ss *ShardedSampler) Stream() (seed, next uint64) { return ss.seed, ss.next }

// Seek positions the stream at set ordinal t: the next set generated is
// the stream's t-th, exactly as if t sets had been generated before. O(1):
// every set is a pure function of (seed, ordinal).
func (ss *ShardedSampler) Seek(t uint64) { ss.next = t }

// SampleManyInto generates the stream's next count RR sets into c: each
// shard samples its contiguous ordinal range concurrently into a private
// arena, then the arenas are merged into c in shard order.
func (ss *ShardedSampler) SampleManyInto(c *Collection, count int64) {
	if count <= 0 {
		return
	}
	p := int64(len(ss.shards))
	if p == 1 {
		ss.shards[0].seek(ss.next)
		ss.shards[0].SampleManyInto(c, count)
		ss.next += uint64(count)
		return
	}
	per, extra := count/p, count%p
	var wg sync.WaitGroup
	for i, s := range ss.shards {
		n := per
		if int64(i) < extra {
			n++
		}
		buf := ss.bufs[i]
		buf.Reset()
		if n == 0 {
			continue
		}
		s.seek(ss.next)
		ss.next += uint64(n)
		wg.Add(1)
		go func(s shardSampler, buf *Collection, n int64) {
			defer wg.Done()
			s.SampleManyInto(buf, n)
		}(s, buf, n)
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
