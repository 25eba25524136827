package coverage

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dimm/internal/rrset"
	"dimm/internal/xrand"
)

// bucketLists builds the vector D of Algorithm 1 over initial degrees
// deg the way RunGreedy once did: intrusive singly-linked bucket lists,
// head[d] the first node in bucket d (+1, 0 = empty) and next[v]
// chaining nodes within one bucket, at first by ascending node id.
func bucketLists(deg []int64, next []int32) (head []int32, err error) {
	var dMax int64
	for v, d := range deg {
		if d < 0 {
			return nil, fmt.Errorf("coverage: oracle returned negative initial degree %d for item %d", d, v)
		}
		dMax = max(dMax, d)
	}
	head = make([]int32, dMax+1)
	for v := len(deg) - 1; v >= 0; v-- {
		next[v] = head[deg[v]]
		head[deg[v]] = int32(v) + 1
	}
	return head, nil
}

// referenceGreedy is the bucket-list scan RunGreedy replaced: every
// degree from InitialDegrees, linked bucket lists with re-insertion at
// the head, and a selected flag per node. It is the specification of
// RunGreedy's pop order, on both the recount and the delta path.
func referenceGreedy(o Oracle, k int) (*Result, error) {
	n := o.NumItems()
	deg, err := o.InitialDegrees()
	if err != nil {
		return nil, err
	}
	next, selected := make([]int32, n), make([]bool, n)
	head, err := bucketLists(deg, next)
	if err != nil {
		return nil, err
	}
	cnt, recount := o.(Counter)
	res := &Result{}
	for d := int64(len(head) - 1); d >= 0; d-- {
		for head[d] != 0 {
			v := head[d] - 1
			head[d] = next[v]
			if selected[v] {
				continue
			}
			if recount {
				deg[v] = cnt.Marginal(uint32(v))
			}
			if cur := deg[v]; cur < d {
				next[v] = head[cur]
				head[cur] = v + 1
				continue
			}
			u := uint32(v)
			selected[v] = true
			res.Seeds = append(res.Seeds, u)
			res.Marginals = append(res.Marginals, deg[v])
			res.Coverage += deg[v]
			if len(res.Seeds) == k {
				return res, nil
			}
			if recount {
				cnt.Cover(u)
				continue
			}
			deltas, err := o.Select(u)
			if err != nil {
				return nil, err
			}
			for _, dl := range deltas {
				deg[dl.Node] -= int64(dl.Dec)
			}
		}
	}
	return nil, fmt.Errorf("coverage: bucket scan exhausted after %d of %d selections", len(res.Seeds), k)
}

// tieShapes returns index shapes over n nodes whose degrees are small
// integers, so most buckets hold many tied nodes and a fifth of the
// nodes hold no posting at all: a fresh build, a 3-segment grown index,
// a patched one (tombstones plus an overlay) and one that patches forced
// to compact.
func tieShapes(seed uint64, n int) []indexShape {
	randomSet := func(r *xrand.Rand, buf []uint32) []uint32 {
		buf = buf[:0]
		for sz := 1 + r.Intn(3); len(buf) < sz; {
			if v := uint32(r.Intn(n * 4 / 5)); !slices.Contains(buf, v) {
				buf = append(buf, v)
			}
		}
		return buf
	}
	sample := func(t *testing.T, r *xrand.Rand, sets int) (*rrset.Collection, *rrset.Index) {
		c := rrset.NewCollection(sets)
		t.Cleanup(c.Release)
		var buf []uint32
		for i := 0; i < sets; i++ {
			buf = randomSet(r, buf)
			c.Append(buf, 0)
		}
		idx, err := rrset.BuildIndex(c, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Release)
		return c, idx
	}
	patch := func(t *testing.T, r *xrand.Rand, c *rrset.Collection, idx *rrset.Index, every int) {
		var patches []rrset.Patch
		for pos := r.Intn(every); pos < c.Count(); pos += every {
			patches = append(patches, rrset.Patch{Pos: pos, Members: randomSet(r, nil)})
		}
		if err := idx.ApplyPatches(c, patches); err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyPatches(patches); err != nil {
			t.Fatal(err)
		}
	}
	sets := 2 * n
	return []indexShape{
		{"fresh", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			return sample(t, xrand.New(seed), sets)
		}},
		{"3-segment", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			r := xrand.New(seed + 1)
			c, idx := sample(t, r, sets/3)
			var buf []uint32
			for grow := 0; grow < 2; grow++ {
				from := c.Count()
				for i := 0; i < sets/3; i++ {
					buf = randomSet(r, buf)
					c.Append(buf, 0)
				}
				if err := idx.AppendFrom(c, from); err != nil {
					t.Fatal(err)
				}
			}
			if idx.FullBuilds() != 1 {
				t.Fatalf("growth rebuilt the index (%d full builds)", idx.FullBuilds())
			}
			return c, idx
		}},
		{"patched", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			r := xrand.New(seed + 2)
			c, idx := sample(t, r, sets)
			patch(t, r, c, idx, 7)
			if idx.FullBuilds() != 1 {
				t.Fatalf("patches compacted the index (%d full builds)", idx.FullBuilds())
			}
			return c, idx
		}},
		{"compacted", func(t *testing.T) (*rrset.Collection, *rrset.Index) {
			r := xrand.New(seed + 3)
			c, idx := sample(t, r, sets)
			for i := 0; i < 3; i++ {
				patch(t, r, c, idx, 2)
			}
			if idx.FullBuilds() == 1 {
				t.Fatal("heavy patching never compacted the index")
			}
			return c, idx
		}},
	}
}

// greedyPaths wraps a fresh LocalOracle for each way RunGreedy can learn
// a marginal: the recount over the index's cached order, the recount
// over a counting sort of InitialDegrees (a Counter that is not a
// *LocalOracle), and the delta path.
var greedyPaths = []struct {
	name string
	wrap func(*LocalOracle) Oracle
}{
	{"recount", func(o *LocalOracle) Oracle { return o }},
	{"recount-sorted", func(o *LocalOracle) Oracle { return &countingCounter{LocalOracle: o} }},
	{"delta", func(o *LocalOracle) Oracle { return deltaOnly{o} }},
}

// TestRunGreedyMatchesBucketLists: RunGreedy's scan over a degree order
// pops exactly what the linked bucket lists popped, so on instances full
// of ties it returns the reference's seeds and marginals, over every
// index shape, at k ∈ {1, 10, n} (k = n picks every node, the last ones
// at degree 0), on every path. RunGreedyUntil stops at the reference's
// first prefix that reaches its target, and at the first zero marginal
// when the target is out of reach.
func TestRunGreedyMatchesBucketLists(t *testing.T) {
	const n = 150
	for _, seed := range []uint64{1, 2, 3} {
		for _, shape := range tieShapes(seed*10, n) {
			c, idx := shape.build(t)
			oracle := func() *LocalOracle {
				o, err := NewLocalOracle(c, idx, n)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			full, err := referenceGreedy(deltaOnly{oracle()}, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range greedyPaths {
				name := fmt.Sprintf("seed %d %s %s", seed, shape.name, path.name)
				for _, k := range []int{1, 10, n} {
					want, err := referenceGreedy(path.wrap(oracle()), k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunGreedy(path.wrap(oracle()), k)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(want.Seeds, got.Seeds) || !slices.Equal(want.Marginals, got.Marginals) || want.Coverage != got.Coverage {
						t.Fatalf("%s k=%d: RunGreedy diverges from the bucket lists:\n  lists: %v %v\n  scan:  %v %v", name, k, want.Seeds, want.Marginals, got.Seeds, got.Marginals)
					}
					if k == n && got.Marginals[n-1] != 0 {
						t.Fatalf("%s: k = n never reached a degree-0 pick", name)
					}
				}
				target := full.Marginals[0] + full.Marginals[1] + full.Marginals[2]
				for _, tc := range []struct {
					target int64
					seeds  int
				}{
					{target, 3},
					{full.Coverage + 1, slices.Index(full.Marginals, 0)},
				} {
					got, err := RunGreedyUntil(path.wrap(oracle()), n, tc.target)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Seeds, full.Seeds[:tc.seeds]) {
						t.Fatalf("%s: RunGreedyUntil(target %d) picked %v, want the reference's first %d seeds %v", name, tc.target, got.Seeds, tc.seeds, full.Seeds[:tc.seeds])
					}
				}
			}
		}
	}
}

// TestConcurrentQueriesShareDegreeOrder: queries that start together
// over an index that has just changed all read its degree order, which
// the first of them builds; each must get the answer of a query run
// alone. Under -race this checks that building and reading the cached
// order is safe with shared (read-only) access to the index.
func TestConcurrentQueriesShareDegreeOrder(t *testing.T) {
	const n, queries = 400, 8
	c, idx := kernelSample(t, 0xD0, n, 4000, 3)
	r := xrand.New(9)
	run := func(t *testing.T, change string) {
		want := make([]*Result, queries)
		for q := range want {
			o, err := NewLocalOracle(c, idx, n)
			if err != nil {
				t.Fatal(err)
			}
			// The delta path never reads the degree order, so the queries
			// below meet it unbuilt.
			if want[q], err = RunGreedy(deltaOnly{o}, 1+q*7); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]*Result, queries)
		errs := make([]error, queries)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for q := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				o, err := NewLocalOracle(c, idx, n)
				if err == nil {
					got[q], err = RunGreedy(o, 1+q*7)
				}
				errs[q] = err
			}()
		}
		close(start)
		wg.Wait()
		for q := range got {
			if errs[q] != nil {
				t.Fatal(errs[q])
			}
			if !reflect.DeepEqual(want[q], got[q]) {
				t.Fatalf("after %s, concurrent query %d (k = %d) diverges from a query run alone", change, q, 1+q*7)
			}
		}
	}
	from := c.Count()
	members := make([]uint32, 0, 4)
	for i := 0; i < 3000; i++ {
		members = append(members[:0], uint32(r.Intn(n)), uint32(n-1-r.Intn(n/2)))
		if members[0] == members[1] {
			members = members[:1]
		}
		c.Append(members, 0)
	}
	if err := idx.AppendFrom(c, from); err != nil {
		t.Fatal(err)
	}
	run(t, "growth")
	var patches []rrset.Patch
	for pos := 0; pos < c.Count(); pos += 11 {
		patches = append(patches, rrset.Patch{Pos: pos, Members: []uint32{uint32(r.Intn(n))}})
	}
	if err := idx.ApplyPatches(c, patches); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyPatches(patches); err != nil {
		t.Fatal(err)
	}
	run(t, "a patch")
}
