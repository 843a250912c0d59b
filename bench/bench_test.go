package main

import (
	"fmt"
	"slices"
	"testing"
)

// TestEveryWorkloadReportsEveryMetric runs each workload briefly through
// the runner, untraced and traced, and checks the reported metrics
// against BENCHMARK.json, so the definition and the code cannot drift
// apart. The paper workloads are scaled down so that about a second
// still completes enough ops for each percentile. A traced run fails
// when its offline replay folds no window, so every traced subtest also
// checks that the replay measured a fold.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w, trace), func(t *testing.T) {
				seconds := 1.0
				if w == fleetMixed {
					// The traced half needs 200 writer batches at 100/s for the
					// generator's p95, and enough trend scans for their p50.
					seconds = 5
				}
				if raceEnabled {
					if w == paperSuite || w == paperShortblock {
						t.Skip("one load goroutine, and too slow under the race detector to complete its percentiles")
					}
					seconds *= 5
				}
				res, err := runWorkload(config{workload: w, seed: 1, seconds: seconds, trace: trace,
					traceDir: t.TempDir(), scale: 0.05})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d, errors %q", res.Attempted, res.Failed, res.Errors)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, ms := range want {
					if m, ok := res.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
						t.Errorf("%s: reported %+v (present %t), want unit %q", ms.Name, m, ok, ms.Unit)
					}
				}
				for _, name := range []string{"bench.paper_op_coverage_pct", "bench.query_coverage_pct"} {
					if m, ok := res.Metrics[name]; trace && (!ok || m.Value < 95) {
						t.Errorf("%s = %v, want the stage spans to cover >= 95%%", name, m.Value)
					}
				}
			})
		}
	}
}

// The paper's own outputs are deterministic for a seed, so the traced
// run's accuracy figures repeat exactly and compare exactly.
func TestAccuracyRepeatsExactly(t *testing.T) {
	var got []accuracy
	for i := 0; i < 2; i++ {
		pp, err := newPaperPath(shortblockNames, 5, 0.05, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pp.accuracy()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if got[0] != got[1] {
		t.Errorf("accuracy differs between identical passes: %+v vs %+v", got[0], got[1])
	}
}
