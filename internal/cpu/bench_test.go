package cpu_test

import (
	"testing"

	"hbbp/internal/cpu"
	"hbbp/internal/workloads"
)

// BenchmarkRunClean measures the execution layer alone on one suite
// workload (bzip2, whose inner loops hold about a third of its blocks):
// a clean run with no listener, where every branch-free loop
// fast-forwards as far as its trip allows, and the same run observed
// by a CountingListener, which pays one dispatch per block outside
// bulk steps.
func BenchmarkRunClean(b *testing.B) {
	w, err := workloads.Default().Build("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cpu.Config{Seed: 1, Repeat: w.Repeat, Layout: w.Layout}
	b.Run("none", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Run(w.Prog, w.Entry, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting", func(b *testing.B) {
		count := cpu.NewCountingListener(w.Prog)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Run(w.Prog, w.Entry, cfg, count); err != nil {
				b.Fatal(err)
			}
		}
	})
}
