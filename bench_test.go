// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B target per experiment. The benchmarks run
// the harness in fast mode (reduced repeats); use cmd/experiments for
// full-fidelity numbers.
package hbbp

import (
	"testing"

	"hbbp/internal/harness"
)

// benchRunner builds a fresh fast runner. Each benchmark constructs its
// own so b.N iterations don't hit the runner's internal caches.
func benchRunner() *harness.Runner {
	return harness.New(harness.Config{Fast: true, FastFactor: 0.1, Seed: 1})
}

// benchExperiment measures one full experiment regeneration.
func benchExperiment(b *testing.B, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if err := r.Run(name); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (clean vs SDE wall-clock).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2 (PMU event support matrix).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table 3 (per-block BBECs on Fitter SSE).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table 4 (sampling periods).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table 5 (Test40 evaluation).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table 6 (Fitter expected vs measured).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7 regenerates Table 7 (kernel-mode mix).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8 regenerates Table 8 (CLForward packing view).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkFigure1 regenerates Figure 1 (the learned decision tree).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkFigure2 regenerates Figure 2 (SPEC suite overheads+errors).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure3 regenerates Figure 3 (Test40 top-20 counts+errors).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates Figure 4 (Test40 per-mnemonic errors).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkRunAllExperiments regenerates every experiment on one fresh
// runner: all builders at once over one run cache, within one run
// budget. Compare against the sum of the per-experiment benchmarks
// above: the shared cache collects every required run exactly once
// where the per-experiment path re-collects the corpus and overlapping
// workloads for every table.
func BenchmarkRunAllExperiments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if err := r.RunAll(); err != nil {
			b.Fatalf("RunAll: %v", err)
		}
	}
}
