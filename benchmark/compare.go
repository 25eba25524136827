package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one workload × end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// compareRow is one row of a comparison: A is the parent, B the change.
type compareRow struct {
	Workload, Metric   string
	NA, NB             int
	MedA, Q1A, Q3A     float64
	MedB, Q1B, Q3B     float64
	Delta, Spread      float64 // shares of A's median; Delta > 0 means B is worse
	Bound              float64
	Verdict            string
	FailedA, AttemptA  int64
	FailedB, AttemptB  int64
	HigherFailureShare bool
}

// judge compares two samples of one metric. The change is worse (or
// better) when its median moved against (or with) the metric's
// direction by more than both the bound and the run-to-run spread, the
// wider of the two sides' interquartile ranges. A smaller move is
// unchanged only if the spread itself fits inside the bound; otherwise
// the runs cannot tell, and the row is unresolved. Fewer than two runs
// on a side give no spread and are unresolved as well.
func judge(spec metricSpec, a, b []float64) compareRow {
	row := compareRow{Metric: spec.Name, NA: len(a), NB: len(b), Bound: spec.Bound, Verdict: verdictUnresolved}
	row.MedA, row.MedB = median(a), median(b)
	if len(a) < 2 || len(b) < 2 || row.MedA == 0 {
		row.Spread = math.NaN()
		return row
	}
	row.Q1A, row.Q3A = quartiles(a)
	row.Q1B, row.Q3B = quartiles(b)
	row.Spread = math.Max(row.Q3A-row.Q1A, row.Q3B-row.Q1B) / math.Abs(row.MedA)
	row.Delta = (row.MedB - row.MedA) / math.Abs(row.MedA)
	if spec.Better == "higher" {
		row.Delta = -row.Delta
	}
	threshold := math.Max(spec.Bound, row.Spread)
	switch {
	case row.Delta > threshold:
		row.Verdict = verdictWorse
	case row.Delta < -threshold:
		row.Verdict = verdictBetter
	case row.Spread <= spec.Bound:
		row.Verdict = verdictUnchanged
	}
	return row
}

// compareSets builds one row per workload × end-to-end metric from the
// untraced runs of two result sets.
func compareSets(a, b []runRecord) []compareRow {
	type side struct {
		vals              map[string][]float64
		failed, attempted int64
	}
	collect := func(records []runRecord) map[string]*side {
		out := map[string]*side{}
		for _, r := range records {
			if r.Traced {
				continue
			}
			s := out[r.Workload]
			if s == nil {
				s = &side{vals: map[string][]float64{}}
				out[r.Workload] = s
			}
			s.failed += r.Result.Failed
			s.attempted += r.Result.Attempted
			for name, m := range r.Result.Metrics {
				s.vals[name] = append(s.vals[name], m.Value)
			}
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	var rows []compareRow
	for _, w := range workloads {
		x, y := sa[w.Name], sb[w.Name]
		if x == nil || y == nil {
			continue
		}
		for _, spec := range endToEnd {
			row := judge(spec, x.vals[spec.Name], y.vals[spec.Name])
			row.Workload = w.Name
			row.FailedA, row.AttemptA, row.FailedB, row.AttemptB = x.failed, x.attempted, y.failed, y.attempted
			if x.attempted > 0 && y.attempted > 0 {
				row.HigherFailureShare = float64(y.failed)/float64(y.attempted) > float64(x.failed)/float64(x.attempted)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the comparison of two results.json files and
// reports whether any row is worse or any workload fails more often.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	rows := compareSets(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	if len(a) > 0 && len(b) > 0 && a[0].Host != b[0].Host {
		fmt.Fprintf(w, "note: the two sets were recorded on different hosts (%+v vs %+v)\n", a[0].Host, b[0].Host)
	}
	fmt.Fprintf(w, "%-16s %-13s %3s %12s %25s %3s %12s %25s %8s %7s %6s  %s\n",
		"workload", "metric", "nA", "median A", "quartiles A", "nB", "median B", "quartiles B", "delta", "spread", "bound", "verdict")
	bad := false
	lastWorkload := ""
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-13s %3d %12.5g %25s %3d %12.5g %25s %+7.1f%% %6.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.NA, r.MedA, fmt.Sprintf("[%.5g, %.5g]", r.Q1A, r.Q3A),
			r.NB, r.MedB, fmt.Sprintf("[%.5g, %.5g]", r.Q1B, r.Q3B), 100*r.Delta, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			bad = true
		}
		if r.HigherFailureShare && r.Workload != lastWorkload {
			fmt.Fprintf(w, "%-16s fail_share rose: %d/%d -> %d/%d\n", r.Workload, r.FailedA, r.AttemptA, r.FailedB, r.AttemptB)
			bad = true
		}
		lastWorkload = r.Workload
	}
	compared, differ := compareExact(w, a, b)
	fmt.Fprintf(w, "exact-class layer metrics: %d compared on traced runs of the same workload and seed, %d differ\n", compared, differ)
	return bad, nil
}

// compareExact checks the seed-deterministic counts of the traced runs
// both sets hold for the same workload, seed, scale and window: on one
// commit they must repeat bitwise; across commits a difference is a
// fact to explain, not a verdict, so it is printed and not failed.
func compareExact(w io.Writer, a, b []runRecord) (compared, differ int) {
	type key struct {
		workload, scale string
		seed            uint64
		seconds         float64
	}
	first := map[key]runRecord{}
	for _, r := range a {
		if k := (key{r.Workload, r.Scale, r.Seed, r.Seconds}); r.Traced {
			if _, ok := first[k]; !ok {
				first[k] = r
			}
		}
	}
	done := map[key]bool{}
	for _, r := range b {
		k := key{r.Workload, r.Scale, r.Seed, r.Seconds}
		ra, ok := first[k]
		if !r.Traced || !ok || done[k] {
			continue
		}
		done[k] = true
		for _, spec := range perLayer {
			if !spec.Exact {
				continue
			}
			compared++
			if va, vb := ra.Result.Metrics[spec.Name].Value, r.Result.Metrics[spec.Name].Value; va != vb {
				differ++
				fmt.Fprintf(w, "%-16s seed %d: %s %v -> %v\n", r.Workload, r.Seed, spec.Name, va, vb)
			}
		}
	}
	return compared, differ
}
