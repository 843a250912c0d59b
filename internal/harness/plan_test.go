package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// runAllPlanned renders every experiment through one planned Runner.
func runAllPlanned(t *testing.T, parallelism int) (string, *Runner) {
	t.Helper()
	var buf bytes.Buffer
	cfg := goldenConfig(parallelism)
	cfg.Out = &buf
	r := New(cfg)
	if err := r.RunAll(); err != nil {
		t.Fatalf("planned RunAll (parallelism %d): %v", parallelism, err)
	}
	return buf.String(), r
}

// runAllPerExperiment renders every experiment the pre-planner way: a
// fresh Runner per experiment, no sharing of anything, concatenated in
// the RunAll layout (a blank line after every experiment). This is the
// frozen reference the planner must match byte for byte.
func runAllPerExperiment(t *testing.T, parallelism int) string {
	t.Helper()
	var out strings.Builder
	for _, name := range ExperimentNames() {
		var buf bytes.Buffer
		cfg := goldenConfig(parallelism)
		cfg.Out = &buf
		r := New(cfg)
		if err := r.Run(name); err != nil {
			t.Fatalf("per-experiment %s (parallelism %d): %v", name, parallelism, err)
		}
		out.WriteString(buf.String())
		out.WriteString("\n")
	}
	return out.String()
}

// TestPlannedRunAllBitIdentical proves the one-pass planner changes
// which run produces the bytes, never the bytes: RunAll through the
// shared collection plan must equal rendering each experiment on its
// own isolated Runner, at sequential and parallel pool widths.
func TestPlannedRunAllBitIdentical(t *testing.T) {
	want := runAllPerExperiment(t, 1)
	for _, parallelism := range []int{1, 4} {
		got, _ := runAllPlanned(t, parallelism)
		if got != want {
			t.Errorf("parallelism %d: planned RunAll drifted from the per-experiment reference\ngot:\n%s\nwant:\n%s",
				parallelism, got, want)
		}
	}
	// The per-experiment reference itself must also be
	// parallelism-independent, or the comparison above proves less
	// than it claims.
	if ref4 := runAllPerExperiment(t, 4); ref4 != want {
		t.Errorf("per-experiment reference differs between parallelism 1 and 4")
	}
}

// TestPlanCollectsExactlyOnce proves the run cache's core guarantee
// with the collection tally recorded at the actual collection sites:
// after RunAll, every (workload, config) pair — each corpus run and
// each evaluated workload — was collected exactly once, at any
// parallelism, and running the full set again on the same Runner
// collects nothing new and is served from the cache.
func TestPlanCollectsExactlyOnce(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		_, r := runAllPlanned(t, parallelism)
		counts := r.CollectionCounts()
		if len(counts) == 0 {
			t.Fatalf("parallelism %d: no collections recorded", parallelism)
		}
		for key, n := range counts {
			if n != 1 {
				t.Errorf("parallelism %d: %s collected %d times, want exactly 1", parallelism, key, n)
			}
		}
		// A second full pass on the same Runner must be pure cache.
		rep, err := r.RunPlan(ExperimentNames()...)
		if err != nil {
			t.Fatalf("parallelism %d: second RunAll: %v", parallelism, err)
		}
		for key, n := range r.CollectionCounts() {
			if n != 1 {
				t.Errorf("parallelism %d: %s collected %d times after second RunAll, want 1", parallelism, key, n)
			}
		}
		if rep.Collected != 0 || rep.Reused == 0 {
			t.Errorf("parallelism %d: second RunAll collected %d and reused %d, want 0 collected and some reused",
				parallelism, rep.Collected, rep.Reused)
		}
	}
}

// TestRunPlanUnknownName checks that an unknown name is rejected with
// the frozen error text before anything is collected, even when the
// known names around it need runs.
func TestRunPlanUnknownName(t *testing.T) {
	r := New(goldenConfig(2))
	rep, err := r.RunPlan("table5", "table9")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment returned %v, want errors.Is(ErrUnknownExperiment)", err)
	}
	want := fmt.Sprintf("harness: unknown experiment %q (known: %v)", "table9", ExperimentNames())
	if err.Error() != want {
		t.Errorf("unknown-name error = %q, want %q", err, want)
	}
	if rep != nil && rep.Collected != 0 {
		t.Errorf("rejected call collected %d runs, want 0", rep.Collected)
	}
	if counts := r.CollectionCounts(); len(counts) != 0 {
		t.Errorf("rejected call collected %v, want nothing", counts)
	}
}

// TestRunPlanReport checks the report the façade and cmd/experiments
// surface: one render timing per requested experiment in request
// order, and a second overlapping plan on the same Runner served
// mostly from cache.
func TestRunPlanReport(t *testing.T) {
	cfg := goldenConfig(4)
	r := New(cfg)
	rep, err := r.RunPlan("table5", "table2", "figure3")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tm := range rep.Renders {
		names = append(names, tm.Name)
	}
	if want := []string{"table5", "table2", "figure3"}; !reflect.DeepEqual(names, want) {
		t.Errorf("render order = %v, want %v", names, want)
	}
	// 16 corpus runs plus the shared test40 evaluation.
	if rep.Collected == 0 {
		t.Errorf("first plan collected nothing")
	}
	if rep.Reused != 1 {
		// table5 and figure3 both read test40: one of them collects
		// it, the other is served from the cache.
		t.Errorf("first plan Reused = %d, want 1", rep.Reused)
	}
	rep2, err := r.RunPlan("table5", "figure4")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Collected != 0 {
		t.Errorf("overlapping second plan collected %d new runs, want 0", rep2.Collected)
	}
	if rep2.Reused == 0 {
		t.Errorf("overlapping second plan reused nothing")
	}
}
