package core

import (
	"testing"

	"hbbp/internal/collector"
	"hbbp/internal/workloads"
)

// BenchmarkAnalyze times Analyze over the six short-block workloads'
// collections, made once beforehand: the serial tail an analysis adds
// after a run, now that the LBR estimator and the bias statistics are
// credited while the run executes.
func BenchmarkAnalyze(b *testing.B) {
	type run struct {
		w   *workloads.Workload
		res *collector.Result
	}
	var runs []run
	for _, name := range shortblockNames {
		w := buildWorkload(b, name)
		res, err := collector.Collect(w.Prog, w.Entry, collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: 1, Repeat: w.Repeat, Layout: w.Layout})
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run{w, res})
	}
	model := DefaultModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if _, err := Analyze(r.w.Prog, model, r.res, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}
