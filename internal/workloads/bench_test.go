package workloads

import (
	"runtime"
	"sync"
	"testing"
)

// benchConstruction builds every registered workload — program
// compilation plus calibration dry runs — on a fresh registry, with
// the given worker count. The sequential/parallel pair documents what
// moving construction into the harness worker pool buys: the old
// package-cache design forced workers to construct sequentially in
// the caller; the registry's per-entry memoized calibration lets any
// number of workers build concurrently.
func benchConstruction(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry()
		for _, spec := range builtinSpecs() {
			if err := reg.Register(spec); err != nil {
				b.Fatal(err)
			}
		}
		names := reg.Names()
		if workers <= 1 {
			for _, name := range names {
				if _, err := reg.Build(name); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		idx := make(chan string)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name := range idx {
					if _, err := reg.Build(name); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		for _, name := range names {
			idx <- name
		}
		close(idx)
		wg.Wait()
	}
}

// BenchmarkWorkloadConstructionSequential builds the full registry one
// workload at a time — the pre-refactor constraint.
func BenchmarkWorkloadConstructionSequential(b *testing.B) { benchConstruction(b, 1) }

// BenchmarkWorkloadConstructionParallel builds the full registry on
// all cores.
func BenchmarkWorkloadConstructionParallel(b *testing.B) {
	benchConstruction(b, runtime.GOMAXPROCS(0))
}

// BenchmarkBuildMemoized measures the steady-state cost of
// building one workload from an already-compiled, already-calibrated
// registry entry — the path the planner leans on. No synthesis, no
// calibration, no table derivation: a Build is a memo read plus one
// Workload allocation.
func BenchmarkBuildMemoized(b *testing.B) {
	reg := NewRegistry()
	for _, spec := range builtinSpecs() {
		if err := reg.Register(spec); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := reg.Build("test40"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Build("test40"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadConstructionWarm builds every workload from an
// already-calibrated registry — the steady state harness workers see
// after the first build of each entry. The delta against the cold
// benchmarks is the memoized calibration: the old constructors paid a
// dry run on every call.
func BenchmarkWorkloadConstructionWarm(b *testing.B) {
	reg := NewRegistry()
	for _, spec := range builtinSpecs() {
		if err := reg.Register(spec); err != nil {
			b.Fatal(err)
		}
	}
	names := reg.Names()
	for _, name := range names {
		if _, err := reg.Build(name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := reg.Build(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
