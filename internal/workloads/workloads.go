// Package workloads provides deterministic synthetic workload
// generators standing in for the paper's benchmark suite, organised as
// a declarative shape-spec registry.
//
// The paper's evaluation characterises workloads purely by *shape*:
// basic-block length distributions, branch and call densities,
// ISA-class mixes, and total retirement volume. Each workload here is
// a [ShapeSpec] — plain data carrying those dimensions — compiled by
// one generic generator ([Synthesize]) into a program, or by a bespoke
// CFG builder for the case studies whose structure the paper spells
// out. A [Registry] owns the specs and their calibration (memoized
// dry runs), so workload construction is concurrency-safe and the
// harness builds workloads inside its worker pool.
//
// The built-in table ([Default]) covers:
//
//   - The SPEC CPU2006 stand-ins of Figure 2 and Table 1 (29 specs).
//   - The paper's case studies: the Geant4-based Test40, the Fitter
//     variants (x87/SSE/AVX, including the broken-inlining AVX build
//     of Table 6), the CLForward vectorization study (Table 8), the
//     Hydro-post benchmark (Table 1), and the user+kernel prime
//     search of Table 7.
//   - The training corpus of Section IV.B (train01..train10 and the
//     tight-loop trainloop01..trainloop06 programs).
//   - Four extra scenario families probing shapes the paper's suite
//     does not isolate: pointer-chase (memory-bound load chains),
//     phase-alternating (vectorized and scalar phases in one image),
//     megamorphic-branchy (dense data-dependent branching over a wide
//     callee set) and callgraph-deep (deep call chains of tiny
//     functions).
//
// None of the real codes can run here (no x86 binaries, no Pin, no
// hardware PMU), but the evaluation never depends on their semantics —
// only on their shape, reproduced with fixed seeds so every run is
// deterministic.
package workloads

import (
	"fmt"

	"hbbp/internal/collector"
	"hbbp/internal/cpu"
	"hbbp/internal/program"
	"hbbp/internal/sde"
)

// Workload is a runnable benchmark: a program, its entry point and its
// execution scaling. Obtain one from a [Registry].
type Workload struct {
	// Name identifies the workload (e.g. "povray", "test40").
	Name string
	// Prog is the static program. Every build of one registry entry
	// shares one immutable image; runs never mutate a finished
	// program, so sharing is safe at any concurrency.
	Prog *program.Program
	// Entry is the function invoked Repeat times per run.
	Entry *program.Function
	// Layout is Prog's precomputed execution dispatch table (see
	// cpu.NewLayout). Registry builds and BuildSpec both set it; it is
	// nil only on a hand-assembled Workload, whose runs then derive
	// their own.
	Layout *cpu.Layout
	// SDE is Prog's precomputed instrumentation profile table (see
	// sde.NewStatic), set and shared like Layout.
	SDE *sde.Static
	// Repeat is the calibrated invocation count for a full run.
	Repeat int
	// Class selects the Table 4 sampling periods.
	Class collector.RuntimeClass
	// Scale maps simulated retirements to real ones: the real workload
	// retired Scale times more instructions than the simulator does.
	Scale uint64
	// SDEBug marks workloads for which the reference tool produces
	// corrupt results (the paper's x264ref footnote); they are excluded
	// from error aggregation.
	SDEBug bool
	// Description summarises what the workload models.
	Description string
}

// String returns the workload name.
func (w *Workload) String() string { return w.Name }

// calibrationMaxRetired guards calibration dry runs against runaway
// specs: built-in workloads retire ~10^5 instructions per invocation,
// so the bound leaves three orders of magnitude of headroom while
// keeping a misauthored custom spec from spinning forever.
const calibrationMaxRetired = 200_000_000

// InstructionsPerRun returns the retirements of a single entry
// invocation, measured by a dry run. The result is deterministic.
// Failures wrap [ErrBuild] and keep their cause on the unwrap chain —
// a runaway program reports cpu.ErrRetireLimit under errors.Is.
func (w *Workload) InstructionsPerRun() (uint64, error) {
	stats, err := cpu.Run(w.Prog, w.Entry, cpu.Config{
		Seed: 1, Repeat: 1, MaxRetired: calibrationMaxRetired,
		Layout: w.Layout,
	})
	if err != nil {
		return 0, fmt.Errorf("%w: %s dry run: %w", ErrBuild, w.Name, err)
	}
	return stats.Retired, nil
}

// Scaled returns a copy of the workload with Repeat multiplied by
// factor (0 < factor <= 1), for fast test runs. Sampling statistics
// shrink proportionally; Repeat never drops below 1.
func (w *Workload) Scaled(factor float64) *Workload {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("workloads: bad scale factor %g", factor))
	}
	out := *w
	out.Repeat = int(float64(w.Repeat) * factor)
	if out.Repeat < 1 {
		out.Repeat = 1
	}
	return &out
}

// mustFinish panics on builder errors: generator bugs are programming
// errors, not runtime conditions.
func mustFinish(b *program.Builder, name string) *program.Program {
	p, err := b.Finish()
	if err != nil {
		panic(fmt.Sprintf("workloads: building %s: %v", name, err))
	}
	return p
}
