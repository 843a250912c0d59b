package hbbp

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"hbbp/internal/collector"
	"hbbp/internal/core"
	"hbbp/internal/harness"
)

// Session is the library's entry point: a fixed configuration plus an
// active profiling model, usable for any number of runs. Construct one
// with [New]; the zero value is not usable.
//
// A session owns one experiment run cache for its whole life: the
// corpus-trained model and every workload evaluation that
// [Session.Train] and the experiment calls need are collected at most
// once per session and shared by all later calls, concurrent ones
// included. Running an experiment never changes the model
// [Session.Profile] uses; only Train installs it.
//
// A Session is safe for concurrent use — [Session.Profile] calls may
// run in parallel (each run owns its machine and PMU state) — with
// three caveats. [Session.Train] installs the learned model for
// subsequent calls, so profiles racing with a Train may use either
// model. The session-level option targets are shared across runs: a
// [WithRawOutput] writer receives the interleaved streams of
// concurrent runs (useless for replay — serialize profiles, or give
// each run its own session), and [WithSinks] implementations observe
// concurrent Sample calls and must be safe for that themselves. And
// concurrent experiment calls render to the one [WithExperimentOutput]
// writer, so their tables interleave.
type Session struct {
	cfg config
	// exp is the experiment harness and its run cache; each call runs
	// on a view carrying that call's context.
	exp *harness.Runner

	mu    sync.Mutex
	model *Model
}

// New builds a Session from functional options. Defaults: seed 1, all
// cores, each workload's own runtime class, full-fidelity runs, the
// shipped default model, no sinks, no raw output.
func New(opts ...Option) (*Session, error) {
	cfg := config{seed: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	exp := harness.New(harness.Config{
		Out:            cfg.expOut,
		Fast:           cfg.fastFactor > 0,
		FastFactor:     cfg.fastFactor,
		Seed:           cfg.seed,
		Parallelism:    cfg.parallelism,
		PerInstruction: cfg.perInstruction,
	})
	return &Session{cfg: cfg, exp: exp, model: cfg.model}, nil
}

// currentModel resolves the active model: installed by option or
// Train, else the shipped default rule.
func (s *Session) currentModel() *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.model != nil {
		return s.model
	}
	return core.DefaultModel()
}

// coreOptions resolves the session configuration and a workload into
// the internal options structs — the single place the public options
// surface maps onto the internal plumbing.
func (s *Session) coreOptions(ctx context.Context, w *Workload) core.Options {
	class := w.Class
	if s.cfg.classSet {
		class = s.cfg.class
	}
	return core.Options{
		Collector: collector.Options{
			Class:          class,
			Scale:          w.Scale,
			Seed:           s.cfg.seed,
			Repeat:         w.Repeat,
			Sinks:          s.cfg.sinks,
			RawOut:         s.cfg.rawOut,
			PerInstruction: s.cfg.perInstruction,
			Layout:         w.Layout,
			Context:        ctx,
		},
		KernelLivePatched: true,
	}
}

// Profile runs one workload under the simulated PMU: one collection
// pass, both estimators, bias detection, then the per-block hybrid
// choice with the session's model. Extra listeners observe the
// identical execution (the evaluation attaches the [Instrumenter]
// reference this way). Cancelling ctx aborts the run promptly with an
// error wrapping ctx.Err().
func (s *Session) Profile(ctx context.Context, w *Workload, extra ...Listener) (*Profile, error) {
	if w == nil {
		return nil, fmt.Errorf("hbbp: Profile of a nil workload")
	}
	if s.cfg.workloadScale > 0 && s.cfg.workloadScale < 1 {
		w = w.Scaled(s.cfg.workloadScale)
	}
	return core.Run(w.Prog, w.Entry, s.currentModel(), s.coreOptions(ctx, w), extra...)
}

// Replay re-analyzes a serialized collection stream (written earlier
// by a [WithRawOutput] session) for the given workload: records stream
// through the same sinks a live run dispatches to, then the session's
// model makes the per-block choices. The workload must be the one the
// stream was collected from — the file records samples, not
// configuration, so the program image, sampling periods and scale are
// resolved from it. Run statistics (cycles, PMI counts) are not in the
// file; the replayed profile's overhead model reports a clean factor
// of 1.
//
// Malformed streams return errors matching [ErrBadMagic],
// [ErrTruncatedRecord] or [ErrUnsupportedVersion] under errors.Is.
func (s *Session) Replay(ctx context.Context, w *Workload, r io.Reader) (*Profile, error) {
	if w == nil {
		return nil, fmt.Errorf("hbbp: Replay of a nil workload")
	}
	opts := s.coreOptions(ctx, w)
	// Collection-time retention options do not apply to a replay pass.
	opts.Collector.RawOut = nil
	return core.AnalyzeReplay(w.Prog, s.currentModel(), r, opts)
}

// Train learns the classification-tree model on the training corpus —
// the paper's Figure 1 pipeline — and installs it as the session's
// active model for subsequent Profile and Replay calls. The corpus
// runs execute within the session's run budget ([WithParallelism]);
// the dataset and the learned tree are identical at any parallelism. The model comes from
// the session's run cache, so it is trained at most once per session
// and is the very model the session's experiments use. Cancelling ctx
// stops the corpus collection promptly.
func (s *Session) Train(ctx context.Context) (*Model, error) {
	m, err := s.exp.WithContext(ctx).Model()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.model = m
	s.mu.Unlock()
	return m, nil
}

// ExperimentNames lists every regenerable experiment: the paper's
// evaluation in paper order (table1..table8, figure1..figure4), then
// the reproduction's fleet-scale profile-store experiment ("fleet").
func ExperimentNames() []string { return harness.ExperimentNames() }

// ExperimentTiming records one experiment's wall time within a
// [Session.RunExperiments] call: building it, the runs it waited for
// included, and rendering it.
type ExperimentTiming struct {
	Name string
	Wall time.Duration
}

// ExperimentReport summarises a [Session.RunExperiments] call: how
// long the build phase and each experiment took, and how many
// collection runs the call executed versus served from the run cache.
// The rendered tables themselves go to the [WithExperimentOutput]
// writer, identically to running each experiment on its own.
type ExperimentReport struct {
	// Experiments holds per-experiment timings, in request order. The
	// experiments build at once, so the timings overlap and do not add
	// up to CollectWall. A failed call reports none.
	Experiments []ExperimentTiming
	// CollectWall is the wall time of the build phase, in which every
	// requested experiment builds at once and each (workload,
	// configuration) run they need is collected exactly once.
	CollectWall time.Duration
	// RunsCollected counts collection runs this call executed;
	// RunsReused counts this call's requests the run cache satisfied
	// without collecting again. A concurrent call's runs are counted
	// in its own report, not this one.
	RunsCollected, RunsReused int
}

// RunExperiment regenerates one table or figure of the paper,
// rendering it to the [WithExperimentOutput] writer. Unknown names
// return an error matching [ErrUnknownExperiment]. Cancelling ctx
// stops the call's waiting and in-flight collections promptly.
func (s *Session) RunExperiment(ctx context.Context, name string) error {
	_, err := s.RunExperiments(ctx, name)
	return err
}

// RunExperiments regenerates the named experiments. Unknown names
// return an error matching [ErrUnknownExperiment] before any
// collection starts. Every requested experiment then builds at once,
// each asking the session's run cache for the (workload,
// configuration) runs it reads; the cache collects each run exactly
// once, within the session's run budget ([WithParallelism]), and
// lives as long as the session, so a run any earlier or concurrent
// call collected is not collected again. Once every build succeeds,
// the experiments render in request order (a multi-experiment batch
// separates renders with a blank line, the
// [Session.RunAllExperiments] layout), byte-identical to running them
// individually at any parallelism. If a build fails, nothing is
// written and the first failing experiment in request order names the
// error. Cancelling ctx stops the call's waiting and in-flight
// collections promptly; a cancelled call keeps the runs it completed
// and caches nothing it did not, and its report still counts the runs
// collected before the cancellation.
func (s *Session) RunExperiments(ctx context.Context, names ...string) (*ExperimentReport, error) {
	rep, err := s.exp.WithContext(ctx).RunPlan(names...)
	if rep == nil {
		return nil, err
	}
	out := &ExperimentReport{CollectWall: rep.CollectWall, RunsCollected: rep.Collected, RunsReused: rep.Reused}
	for _, t := range rep.Renders {
		out.Experiments = append(out.Experiments, ExperimentTiming{Name: t.Name, Wall: t.Wall})
	}
	return out, err
}

// RunAllExperiments regenerates every experiment in paper order
// ([Session.RunExperiments] over [ExperimentNames]), so every required
// run is collected exactly once across all tables and figures; the
// whole result set stays in the session's run cache for its later
// experiment and Train calls.
func (s *Session) RunAllExperiments(ctx context.Context) error {
	_, err := s.RunExperiments(ctx, ExperimentNames()...)
	return err
}
