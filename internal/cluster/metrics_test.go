package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dimm/internal/diffusion"
	"dimm/internal/metrics"
)

// TestCommAttributionOverlap is the ISSUE 10 headline regression test:
// a concurrent 2-worker round whose handlers genuinely overlap
// (wall < sum of handler times) must still attribute wall − max to
// communication. The historic wall − sum attribution clamps to zero
// here — this test fails on it.
func TestCommAttributionOverlap(t *testing.T) {
	reg := metrics.NewRegistry()
	met := newClusterMetrics(reg)

	// Two workers running in parallel: the round took 100ms of wall
	// clock, the slower worker computed for 90ms, so 10ms was spent on
	// transport — even though the handlers' summed time (170ms) exceeds
	// the wall clock.
	wall := 100 * time.Millisecond
	handlers := []time.Duration{80 * time.Millisecond, 90 * time.Millisecond}
	met.add("gen", wall, handlers, false)

	if got, want := met.comm.Duration(), 10*time.Millisecond; got != want {
		t.Errorf("concurrent overlapping round: comm = %v, want %v (wall - max)", got, want)
	}
	if got, want := met.genCritical.Duration(), 90*time.Millisecond; got != want {
		t.Errorf("genCritical = %v, want %v", got, want)
	}
	if got, want := met.genTotal.Duration(), 170*time.Millisecond; got != want {
		t.Errorf("genTotal = %v, want %v", got, want)
	}
}

// TestCommAttributionModes pins the mode split: concurrent rounds
// charge wall − max (the critical-path model CriticalPath() adds up),
// sequential rounds charge wall − sum (workers ran back to back, so
// their summed compute really elapsed on the wall clock).
func TestCommAttributionModes(t *testing.T) {
	handlers := []time.Duration{80 * time.Millisecond, 90 * time.Millisecond}

	// Concurrent, no overlap pressure: wall 200ms, max 90ms → comm 110ms.
	reg := metrics.NewRegistry()
	met := newClusterMetrics(reg)
	met.add("sel", 200*time.Millisecond, handlers, false)
	if got, want := met.comm.Duration(), 110*time.Millisecond; got != want {
		t.Errorf("concurrent round: comm = %v, want %v", got, want)
	}

	// Sequential: wall 180ms, sum 170ms → comm 10ms (wall − max would
	// wrongly charge 90ms of real worker compute to the network).
	reg = metrics.NewRegistry()
	met = newClusterMetrics(reg)
	met.add("sel", 180*time.Millisecond, handlers, true)
	if got, want := met.comm.Duration(), 10*time.Millisecond; got != want {
		t.Errorf("sequential round: comm = %v, want %v", got, want)
	}

	// Clamp: timer skew can make wall dip below the busy time; comm
	// must clamp at zero, not go negative.
	reg = metrics.NewRegistry()
	met = newClusterMetrics(reg)
	met.add("sel", 85*time.Millisecond, handlers, false)
	if got := met.comm.Duration(); got != 0 {
		t.Errorf("wall < max round: comm = %v, want 0", got)
	}
}

// TestCommAttributionThroughAccount drives the same overlapping round
// through the cluster-level account path on a real 2-worker cluster in
// concurrent-broadcast mode and reads the result back through the
// Metrics() snapshot view.
func TestCommAttributionThroughAccount(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 2, diffusion.IC, 99)
	cl.SetSequentialBroadcast(false)
	base := cl.Metrics().Comm
	cl.account("gen", 100*time.Millisecond, []time.Duration{80 * time.Millisecond, 90 * time.Millisecond})
	if got, want := cl.Metrics().Comm-base, 10*time.Millisecond; got != want {
		t.Errorf("account on overlapping round added comm %v, want %v", got, want)
	}
}

// TestMetricsSnapshotRace hammers Metrics(), MetricsSnapshot() and
// Health() from reader goroutines while the master goroutine runs
// generate/fetch/select rounds. Run under -race: the historic
// Cluster.Metrics() read conns, batchLast and the retired counters with
// no synchronization against the failover path and non-atomic metric
// fields against in-flight rounds.
func TestMetricsSnapshotRace(t *testing.T) {
	g := testGraph(t)
	cl := localCluster(t, g, 3, diffusion.IC, 77)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := cl.Metrics()
				if m.Rounds < 0 || m.BytesSent < 0 {
					t.Error("implausible snapshot")
					return
				}
				_ = cl.MetricsSnapshot()
				_ = cl.Health()
			}
		}()
	}
	if err := driveWorkRounds(cl); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	m := cl.Metrics()
	if m.Rounds == 0 || m.GenCalls == 0 {
		t.Fatalf("no rounds recorded: %+v", m)
	}
}

func driveWorkRounds(cl *Cluster) error {
	for i := 0; i < 4; i++ {
		if _, err := cl.Generate(200); err != nil {
			return err
		}
		if _, err := cl.Stats(); err != nil {
			return err
		}
	}
	return nil
}

// TestFailoverBatchStatsNoDoubleCount asserts the retired-worker merge
// does not double count: a run with a mid-run kill recovered by replay
// failover must report exactly the frontier-batch counters of the
// fault-free run at the same seed (the replacement replays the same
// deterministic streams, and its next report overwrites — not adds to —
// the victim's batchLast slot).
func TestFailoverBatchStatsNoDoubleCount(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 3, 1, 55

	clean := localCluster(t, g, machines, diffusion.IC, seed)
	if err := driveWorkRounds(clean); err != nil {
		t.Fatal(err)
	}
	want := clean.Metrics().Batch

	faulted, fc := faultyCluster(t, g, machines, victim, seed)
	fc.KillAtCall(3) // mid-run, after the victim has reported batch counters
	if err := driveWorkRounds(faulted); err != nil {
		t.Fatal(err)
	}
	got := faulted.Metrics().Batch
	if got != want {
		t.Errorf("batch counters after replay failover = %+v, want fault-free %+v", got, want)
	}
}

// TestQuarantineBatchStatsPreserved asserts a quarantined worker's
// already-reported batch counters survive into the cumulative totals
// (folded once into retiredBatch, slot zeroed — not dropped and not
// counted twice): the faulted run's totals must be at least the
// fault-free totals (rebalance regenerates the lost share on survivors,
// adding waves) and strictly less than double them.
func TestQuarantineBatchStatsPreserved(t *testing.T) {
	g := testGraph(t)
	const machines, victim, seed = 3, 2, 55

	clean := localCluster(t, g, machines, diffusion.IC, seed)
	if _, err := clean.Generate(300); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Stats(); err != nil {
		t.Fatal(err)
	}
	want := clean.Metrics().Batch

	faulted, fc := quarantineCluster(t, g, machines, victim, seed)
	fc.KillAtCall(3) // after the victim reported its generate-round counters
	if _, err := faulted.Generate(300); err != nil {
		t.Fatal(err)
	}
	if _, err := faulted.Stats(); err != nil {
		t.Fatal(err)
	}
	got := faulted.Metrics().Batch
	if got.Waves < want.Waves {
		t.Errorf("quarantine dropped batch counters: waves %d < fault-free %d", got.Waves, want.Waves)
	}
	if got.Waves >= 2*want.Waves {
		t.Errorf("quarantine double-counted batch counters: waves %d vs fault-free %d", got.Waves, want.Waves)
	}
}

// TestMetricsAddEveryField: Add sums every field of Metrics, the nested
// batch counters included, so a merged view (core.RunDOPIMC's R1 + R2
// clusters) drops nothing. A field added to Metrics without its line in
// Add fails here.
func TestMetricsAddEveryField(t *testing.T) {
	var a, b Metrics
	next := int64(0)
	var fill func(v reflect.Value, step int64)
	fill = func(v reflect.Value, step int64) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f, step)
			case reflect.Int64:
				next += step
				f.SetInt(next)
			default:
				t.Fatalf("field %s of kind %s: extend this test", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&a).Elem(), 1)
	fill(reflect.ValueOf(&b).Elem(), 1000)
	sum := a
	sum.Add(b)
	var check func(path string, got, x, y reflect.Value)
	check = func(path string, got, x, y reflect.Value) {
		for i := 0; i < got.NumField(); i++ {
			name := path + "." + got.Type().Field(i).Name
			if got.Field(i).Kind() == reflect.Struct {
				check(name, got.Field(i), x.Field(i), y.Field(i))
				continue
			}
			if g, want := got.Field(i).Int(), x.Field(i).Int()+y.Field(i).Int(); g != want {
				t.Errorf("%s = %d, want %d + %d", name, g, x.Field(i).Int(), y.Field(i).Int())
			}
		}
	}
	check("Metrics", reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b))
}
