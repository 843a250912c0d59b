package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric's definition: for end-to-end metrics, Bound
// is the share of the baseline median by which it may get worse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of a comparison row.
const (
	same       = "same"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// row compares one (metric, workload) pair across two sets of runs.
type row struct {
	metric, workload string
	base, cand       float64 // medians
	change           float64 // (cand - base) / base
	spread           float64 // the baseline's quartile distance / its median
	bound            float64
	verdict          string
}

// judge applies the benchmark's rule to one pair. A metric is worse when
// its median moved the wrong way by more than its bound; better when it
// moved the right way by more than the baseline's own quartile distance
// and won at least nine in ten of the runs paired by index. Where the
// baseline's spread exceeds the bound the pair is unresolved, unless the
// runs do not overlap: every new run beating every baseline run is
// better, every baseline run beating every new run by more than the
// bound at the medians is worse.
func judge(ms metricSpec, a, b []float64) row {
	r := row{metric: ms.Name, bound: ms.Bound, verdict: unresolved,
		base: median(a), cand: median(b)}
	q1, _, q3, err := quartiles(a)
	if err != nil || len(b) == 0 || r.base == 0 {
		return r
	}
	iqr := q3 - q1
	r.change = (r.cand - r.base) / r.base
	r.spread = iqr / math.Abs(r.base)
	higher := ms.Better == "higher"
	lost := r.change // relative move in the worse direction
	if higher {
		lost = -lost
	}
	switch {
	case r.spread > ms.Bound:
		if allBetter(a, b, higher) {
			r.verdict = better
		} else if allBetter(b, a, higher) && lost > ms.Bound {
			r.verdict = worse
		}
	case lost > ms.Bound:
		r.verdict = worse
	case -lost*math.Abs(r.base) > iqr && pairWins(a, b, higher) >= 0.9:
		r.verdict = better
	default:
		r.verdict = same
	}
	return r
}

func beats(x, y float64, higher bool) bool {
	if higher {
		return x > y
	}
	return x < y
}

// allBetter reports whether every run in b beats every run in a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !beats(x, y, higher) {
				return false
			}
		}
	}
	return true
}

// pairWins is the share of index-paired runs in which b beats a; ties
// count for neither side.
func pairWins(a, b []float64, higher bool) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if beats(b[i], a[i], higher) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// compareRuns judges every end-to-end metric on every workload of the
// spec, from the untraced runs in each set.
func compareRuns(spec *benchSpec, base, cand []*result) []row {
	values := func(rs []*result, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []row
	for _, ms := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			r := judge(ms, values(base, w.Name, ms.Name), values(cand, w.Name, ms.Name))
			r.workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// runCompare prints one row per (metric, workload) and exits non-zero
// when any is worse.
func runCompare(specPath, basePath, candPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hbbp-bench:", err)
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	base, err := loadResults(basePath)
	if err != nil {
		return fail(err)
	}
	cand, err := loadResults(candPath)
	if err != nil {
		return fail(err)
	}
	return printRows(stdout, compareRuns(spec, base, cand))
}

func printRows(w io.Writer, rows []row) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-17s %12s %12s %8s %8s %6s  %s\n",
		"metric", "workload", "base", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-17s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.metric, r.workload, r.base, r.cand, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == worse {
			status = 1
		}
	}
	return status
}
