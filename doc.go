// Package hbbp is a Go reproduction of "Low-Overhead Dynamic
// Instruction Mix Generation using Hybrid Basic Block Profiling"
// (Nowak, Yasin, Szostek, Zwaenepoel — ISPASS 2018), exposed as a
// library.
//
// The repository implements the paper's contribution — HBBP, a
// PMU-based method that produces dynamic instruction mixes by choosing
// per basic block between Event Based Sampling and Last Branch Record
// estimates with a learned classification-tree rule — together with
// every substrate the evaluation needs, simulated in pure Go: a
// synthetic x86-flavoured ISA and disassembler, a trace-driven CPU with
// user/kernel rings dispatching retirements at block granularity, a
// PMU model with skid, shadowing and the LBR entry[0] bias anomaly, a
// software-instrumentation reference, a perf.data-like collection
// format with a streaming sink pipeline, CART decision trees, a
// pivot-table analyzer, the benchmark workloads, and a harness
// regenerating every table and figure of the paper on a deterministic
// parallel scheduler.
//
// # The public surface
//
// This root package is the library: everything under internal/ is an
// implementation detail, and the commands and examples consume only
// what is exported here (an import-boundary test enforces that). The
// entry point is a [Session], configured once with functional options
// and then used for any number of runs:
//
//	s, err := hbbp.New(hbbp.WithSeed(42))
//	...
//	prof, err := s.Profile(ctx, hbbp.Test40())
//
// [Session.Profile] runs a workload under the simulated PMU and
// returns a [Profile] with the hybrid per-block execution counts,
// both raw estimates and the per-block choices. [Session.Train]
// learns the classification-tree model on the training corpus
// (Figure 1's pipeline). [Session.Replay] re-analyzes a serialized
// collection stream written earlier via [WithRawOutput]. Experiment
// regeneration ([Session.RunExperiment], [Session.RunAllExperiments])
// reproduces the paper's tables and figures.
//
// All entry points take a [context.Context]; cancelling it stops
// collection runs, replay passes and the experiment worker pool
// promptly, returning an error that wraps ctx.Err(). A run that
// completes under a context is bit-identical to one run without:
// cancellation polls never perturb the simulation.
//
// Results are analyzed with [InstructionMix], [BuildPivot] and the
// view helpers ([TopMnemonics], [ExtBreakdown], ...), and scored with
// [AvgWeightedError] against a [NewInstrumenter] reference attached
// to the same run. Workloads live in a declarative registry:
// [Workloads] enumerates it with descriptions, [LookupWorkload]
// builds any entry by name (the named constructors [Test40],
// [KernelPrime], [Fitter], ... remain as shorthands), and callers
// author their own purely as data — a [ShapeSpec] compiled with
// [NewWorkload] or added to the registry with [RegisterWorkload].
//
// The fleet layer scales consumption past a single run: a profile
// captures into a mergeable [StoredProfile] ([CaptureProfile]) that
// persists in a versioned binary format ([SaveProfile], [LoadProfile]),
// merges exactly in any order or sharding ([MergeProfiles], or the
// concurrent [Aggregator] with consistent snapshots), and
// compares across fleet mixes with [DiffProfiles], which flags per-op
// share regressions. [StoredPivot], [StoredBlockPivot] and [StoredMix]
// bring the standard views and metrics to merged fleet profiles.
//
// The ingest tier moves stored profiles across real networks: [Serve]
// runs the wire-protocol server (cmd/hbbpd is its deployable form) and
// [Dial] returns a retrying [FleetClient] whose sends are exactly-once
// despite resets, re-dials and duplicate deliveries. Overload degrades
// into counted refusals ([ErrOverloaded], per-tenant shed counters in
// [FleetServerStats]) — the server's aggregate always equals an
// offline [MergeProfiles] of exactly the acked profiles.
// [NewFlakyConn] and [NewFlakyListener] inject transport faults for
// testing; examples/fleet shows the whole loop under fire.
//
// The time axis makes that fleet history queryable without unbounded
// state: a [ProfileSeries] stores merged profiles per epoch, a
// [RetentionPolicy] ladder folds old epochs into coarser windows
// (losslessly — merging is exact, so any re-grouping equals the flat
// merge bit for bit), windowed queries merge any epoch range, and
// [ProfileSeries.Trend] flags ops and functions whose retirement share
// moves monotonically across consecutive windows. Servers roll each
// tenant's completed epochs into its series (folded by
// FleetServerConfig.Retention); [OpenSeries] reloads a saved series.
//
// The telemetry layer watches all of the above at production cost:
// every instrumented subsystem — ingest server and client, merge
// kernel, series store, experiment harness — counts into a [Telemetry]
// registry whose update paths are allocation-free atomics, cheap
// enough to leave on (the paper's premise, applied to the observer).
// [TelemetrySnapshot] reads it programmatically, [RenderTelemetry]
// formats the summary the bundled programs print on exit,
// [WriteMetricsText] emits the Prometheus text format served by
// hbbpd's opt-in -http admin endpoint (/metrics, /healthz with
// drain-aware 503s, /slowops, net/http/pprof), and [SlowOps] /
// [SetSlowOpThreshold] expose the threshold-gated slow-operation log.
// Embedders running several servers give each its own registry via
// [NewTelemetry] and FleetServerConfig.Telemetry.
//
// Determinism is the library's backbone: the same seed yields the same
// samples, the same trained model and the same rendered tables, at any
// parallelism, on the block-granularity fast path or the
// per-instruction reference path, live or replayed from disk — and the
// same ingested profiles yield the same merged fleet profile at any
// ingestion parallelism.
//
// Start at examples/quickstart for the library's happy path (the same
// flow is verified as Example functions in this package), cmd/hbbp to
// profile a workload from the command line, and cmd/experiments to
// regenerate the evaluation. DESIGN.md maps the paper to the code;
// EXPERIMENTS.md records paper-vs-measured values.
package hbbp
