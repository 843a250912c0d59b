package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		ms   metricSpec
		a, b []float64
		want string
	}{
		{"within noise", lower, base, scale(base, 1.01), same},
		{"slower past the bound", lower, base, scale(base, 1.2), worse},
		{"faster past the spread", lower, base, scale(base, 0.8), better},
		{"faster but inside the spread", lower, base, scale(base, 0.99), same},
		{"higher is better: rate fell", higher, base, scale(base, 0.85), worse},
		{"higher is better: rate rose", higher, base, scale(base, 1.2), better},
		{"spread wider than the bound", lower, []float64{5, 10, 15, 20, 8, 12}, []float64{6, 11, 14, 19, 9, 13}, unresolved},
		{"wide spread, every new run better", lower, []float64{5, 10, 15, 20, 8, 12}, []float64{1, 2, 3}, better},
		{"wide spread, every new run worse", lower, []float64{5, 10, 15, 20, 8, 12}, []float64{30, 40, 50}, worse},
		{"wide spread, every new run worse but within the bound", metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25},
			[]float64{100, 80, 120, 90, 110}, []float64{79, 78.5, 78}, unresolved},
		{"one baseline run", lower, []float64{10}, []float64{10}, unresolved},
	} {
		if got := judge(tc.ms, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeNeedsNineInTenPairs(t *testing.T) {
	ms := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.5}
	a := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{5, 5, 5, 5, 5, 5, 5, 5, 11, 11} // median far better, but wins only 8 of 10 pairs
	if got := judge(ms, a, b).verdict; got != same {
		t.Errorf("verdict %s, want %s", got, same)
	}
}

func TestCompareRunsFromFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...*result) string {
		path := filepath.Join(dir, name)
		for _, r := range runs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(workload string, trace bool, p50 float64) *result {
		return &result{Workload: workload, Trace: trace, Correct: true, Attempted: 1,
			Metrics: map[string]metric{"op_ms_p50": {p50, "ms"}}}
	}
	base := write("base.jsonl", run("w1", false, 10), run("w1", false, 10.1), run("w1", false, 9.9),
		run("w2", false, 5), run("w2", false, 5.1), run("w2", false, 4.9))
	cand := write("new.jsonl", run("w1", false, 10.05), run("w1", false, 10), run("w1", true, 99),
		run("w2", false, 7), run("w2", false, 7.1))
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w1"},{"name":"w2"}],
		"end_to_end":[{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(spec, base, cand, &out, &errOut); code != 1 {
		t.Errorf("exit %d, want 1 for a worse row; stderr %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[1], same) || !strings.HasSuffix(lines[2], worse) {
		t.Errorf("rows:\n%s", out.String())
	}
	if code := runCompare(spec, base, base, &out, &errOut); code != 0 {
		t.Errorf("a set against itself exits %d, want 0", code)
	}
}
