// Package harness regenerates every table and figure of the paper's
// evaluation (Section VIII). Each experiment has a structured result
// type (so tests and benchmarks can assert on shapes) and a renderer
// that prints rows mirroring the paper's layout.
//
// Absolute values differ from the paper — the substrate is a simulator,
// not the authors' Ivy Bridge testbed — but the shapes the paper argues
// from are reproduced: instrumentation costs multiples while HBBP costs
// percents; EBS degrades on short-block code and LBR on biased/long
// blocks; the hybrid tracks the better of the two everywhere.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"hbbp/internal/analyzer"
	"hbbp/internal/collector"
	"hbbp/internal/core"
	"hbbp/internal/metrics"
	"hbbp/internal/sde"
	"hbbp/internal/workloads"
)

// ClockHz converts simulated cycles to wall-clock seconds. The value
// models the paper's fixed-frequency Xeon E5-2695 v2 with an effective
// superscalar throughput folded in.
const ClockHz = 6.0e9

// Config parameterises a Runner.
type Config struct {
	// Out receives rendered experiment output. Nil discards it.
	Out io.Writer
	// Fast scales workload repeats down (by FastFactor) for quick test
	// and benchmark runs. Sampling statistics shrink accordingly.
	Fast bool
	// FastFactor is the repeat multiplier used when Fast is set.
	// Zero means 0.25.
	FastFactor float64
	// Seed is the base seed for all runs.
	Seed int64
	// Parallelism is the run budget: how many collection runs
	// (training corpus runs and workload evaluations) execute at once
	// across the Runner and every view of it, whichever calls ask for
	// them. Zero means GOMAXPROCS; 1 runs one collection at a time.
	// Every run carries its own derived seed and results are assembled
	// in workload order, so the outputs are identical at any setting.
	Parallelism int
	// PerInstruction runs every collection on the CPU's per-instruction
	// reference dispatch instead of the block-granularity fast path.
	// Outputs are identical either way; the model/table parity tests
	// flip this flag to prove it.
	PerInstruction bool
}

// Runner executes experiments through a keyed run cache: the trained
// model and every workload evaluation (the SPEC suite's included) are
// collected at most once per cache and shared by all experiments that
// request them, and at most Config.Parallelism collections run at
// once. A Runner returned by New carries no context; the views
// WithContext returns share its cache, run budget and collection tally
// and carry one call's context each. A Runner and its views are safe
// for concurrent use.
type Runner struct {
	*runCache
	// ctx, when non-nil, cancels this view's work in flight: no new
	// run starts, a wait for the run budget gives up, and every running
	// collection aborts at its next context poll, so a method returns
	// promptly with an error wrapping ctx.Err(). A run that completes
	// under a context is bit-identical to one without.
	ctx context.Context
	// call, when non-nil, counts this view's own collection activity
	// beside the shared tally, so a RunPlan report leaves out what
	// concurrent calls on other views did.
	call *callTally
}

// callTally counts the collection runs one call executed and the
// requests it served from the cache.
type callTally struct{ collected, reused atomic.Int64 }

// runCache is the state every view of one Runner shares.
type runCache struct {
	cfg Config
	out io.Writer

	model memo[*core.Model]

	// evals is the keyed run cache: one entry per workload name. The
	// per-run seed is name-independent, so a cached evaluation is
	// bit-identical to a fresh one.
	evalMu sync.Mutex
	evals  map[string]*memo[*WorkloadEval]

	// slots is the run budget: a slot is held around exactly one
	// collection run. Capacity is Config.Parallelism.
	slots chan struct{}

	// statsMu guards collectCounts, which tallies per key how many
	// collection runs actually executed (evaluations under their
	// workload name, training runs under "corpus/<name>").
	statsMu       sync.Mutex
	collectCounts map[string]int
}

// memo caches one result. A successful computation is kept for the
// cache's lifetime; a failed one is dropped, so the next caller
// computes afresh and a cancelled call never poisons a later one.
type memo[T any] struct {
	mu   sync.Mutex
	done atomic.Bool
	val  T
}

// get returns the cached value or computes it with fn. Callers of one
// memo wait while a computation runs, even a caller whose own context
// is cancelled, and take its result when it succeeds; after a failure
// the next waiter computes afresh. fresh reports whether this call
// computed the value.
func (m *memo[T]) get(fn func() (T, error)) (v T, fresh bool, err error) {
	if m.done.Load() {
		return m.val, false, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done.Load() {
		return m.val, false, nil
	}
	if v, err = fn(); err != nil {
		return v, false, err
	}
	m.val = v
	m.done.Store(true)
	return v, true, nil
}

// noteCollected records one executed collection run under key.
func (r *Runner) noteCollected(key string) {
	runcacheMisses.Inc()
	r.statsMu.Lock()
	r.collectCounts[key]++
	r.statsMu.Unlock()
	if r.call != nil {
		r.call.collected.Add(1)
	}
}

// noteReused records one request served from the cache.
func (r *Runner) noteReused() {
	runcacheHits.Inc()
	if r.call != nil {
		r.call.reused.Add(1)
	}
}

// CollectionCounts returns a copy of the per-key collection tally:
// workload evaluations under their name, training corpus runs under
// "corpus/<name>". The run cache's exactly-once guarantee means every
// value is 1 after any sequence of experiments, concurrent ones
// included, on one Runner and its views.
func (r *Runner) CollectionCounts() map[string]int {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	out := make(map[string]int, len(r.collectCounts))
	for k, v := range r.collectCounts {
		out[k] = v
	}
	return out
}

// New returns a Runner.
func New(cfg Config) *Runner {
	if cfg.FastFactor == 0 {
		cfg.FastFactor = 0.25
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	budget := cfg.Parallelism
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	return &Runner{runCache: &runCache{
		cfg:           cfg,
		out:           out,
		evals:         map[string]*memo[*WorkloadEval]{},
		slots:         make(chan struct{}, budget),
		collectCounts: map[string]int{},
	}}
}

// WithContext returns a view of r that shares its run cache, run
// budget and collection tally and runs under ctx: cancelling ctx stops
// the view's waiting and running collections. Results a view completes
// stay cached for every other view; a cancelled or failed run caches
// nothing.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{runCache: r.runCache, ctx: ctx}
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// scaled applies the fast factor.
func (r *Runner) scaled(w *workloads.Workload) *workloads.Workload {
	if r.cfg.Fast {
		return w.Scaled(r.cfg.FastFactor)
	}
	return w
}

// workload compiles one registry workload with the fast factor
// applied. Construction is concurrency-safe (the registry memoizes
// calibration behind per-entry synchronization), so concurrent runs
// call this under their own budget slots.
func (r *Runner) workload(name string) (*workloads.Workload, error) {
	w, err := workloads.Default().Build(name)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return r.scaled(w), nil
}

// ctxErr reports the view's cancellation error, wrapped for
// attribution; nil when the view has no context or it is still live.
func (r *Runner) ctxErr() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// forEach runs fn(i) for every i in [0, n) at once — item 0 on the
// calling goroutine, every other item on its own — and returns the
// lowest-index error. Callers communicate results by writing to
// per-index slots, so assembly order — and therefore every rendered
// table — is independent of scheduling. How many collections run at
// once is bounded by the run budget, not here. Once the view's context
// is cancelled, items not yet started are skipped; items already
// running abort at their own context polls.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	do := func(i int) {
		if errs[i] = r.ctxErr(); errs[i] == nil {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i)
		}()
	}
	if n > 0 {
		do(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run holds one run-budget slot around fn, which performs exactly one
// collection run. A view waiting for a slot gives up when its context
// is cancelled. fn must not wait on a memo of the run cache: a run
// holding a slot that waits for a computation needing slots could wait
// on itself once the budget is full.
func (r *Runner) run(fn func() error) error {
	if err := r.ctxErr(); err != nil {
		return err
	}
	var done <-chan struct{}
	if r.ctx != nil {
		done = r.ctx.Done()
	}
	select {
	case r.slots <- struct{}{}:
	case <-done:
		return r.ctxErr()
	}
	defer func() { <-r.slots }()
	return fn()
}

// Model returns the HBBP model used across experiments, training it on
// the corpus on first use (the Figure 1 pipeline). The corpus runs are
// collected concurrently within the run budget — each carries its own
// derived seed, so the dataset and the learned tree are identical to a
// sequential pass.
func (r *Runner) Model() (*core.Model, error) {
	m, _, err := r.model.get(r.train)
	return m, err
}

// train collects the training corpus and learns the model.
func (r *Runner) train() (*core.Model, error) {
	names := workloads.TrainingNames()
	runs := make([]*core.TrainingRun, len(names))
	err := r.forEach(len(names), func(i int) error {
		return r.run(func() error {
			w, err := r.workload(names[i])
			if err != nil {
				return err
			}
			run, err := core.CollectTrainingRun(w.Prog, w.Entry, collector.Options{
				// Training samples at the same class-based periods used
				// in production, so the learned rule internalises the
				// sampling noise the estimators actually carry at
				// analysis time.
				Class: w.Class,
				Scale: w.Scale, Seed: r.cfg.Seed + int64(100+i),
				Repeat:         w.Repeat,
				PerInstruction: r.cfg.PerInstruction,
				Context:        r.ctx,
				Layout:         w.Layout,
			})
			if err != nil {
				return err
			}
			r.noteCollected("corpus/" + names[i])
			runs[i] = run
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return core.Train(runs, core.TrainParams{})
}

// WorkloadEval is one workload's full evaluation: runtime model plus
// accuracy of every method, scored per Section VI.
type WorkloadEval struct {
	Name string
	// Scale is the evaluated workload's retirement scaling, carried so
	// the table renderers need not rebuild the workload.
	Scale uint64
	// CleanSeconds is the modelled uninstrumented runtime.
	CleanSeconds float64
	// SDESeconds is the modelled runtime under software
	// instrumentation; SDEFactor = SDESeconds / CleanSeconds.
	SDESeconds float64
	SDEFactor  float64
	// HBBPSeconds and HBBPOverhead model the collection cost.
	HBBPSeconds  float64
	HBBPOverhead float64 // fraction, e.g. 0.005 = 0.5%
	// ErrHBBP, ErrEBS and ErrLBR are average weighted errors against
	// the instrumentation reference (user-mode mixes).
	ErrHBBP, ErrEBS, ErrLBR float64
	// SDEBug marks workloads excluded from error aggregation because
	// the reference tool is known to miscount them.
	SDEBug bool
	// Profile carries the HBBP run for further inspection.
	Profile *core.Profile
	// RefMix is the reference (instrumentation) user-mode mix.
	RefMix metrics.Mix

	// refBBECs holds the reference per-block counts (user mode only,
	// like the real SDE) for block-level tables.
	refBBECs []float64
}

// evalWorkload runs one already-scaled workload once under model with
// both the PMU collection and the instrumentation reference attached
// and scores every method.
func (r *Runner) evalWorkload(w *workloads.Workload, model *core.Model) (*WorkloadEval, error) {
	ref := sde.NewFromStatic(w.SDE)
	prof, err := core.Run(w.Prog, w.Entry, model, core.Options{
		Collector: collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: r.cfg.Seed + 7,
			Repeat:         w.Repeat,
			PerInstruction: r.cfg.PerInstruction,
			Context:        r.ctx,
			Layout:         w.Layout,
		},
		KernelLivePatched: true,
	}, ref)
	if err != nil {
		return nil, err
	}
	r.noteCollected(w.Name)

	stats := prof.Collection.Stats
	clean := float64(stats.Cycles) * float64(w.Scale) / ClockHz
	sdeFactor := ref.SlowdownFactor(stats.Cycles)
	overhead := prof.Collection.OverheadFactor() - 1

	// Accuracy is scored on user-mode mixes, like the paper's
	// comparisons ("except in Section VIII.D, our accuracy comparisons
	// consider only user mode instructions").
	refMix := analyzer.ToMix(ref.Mnemonics())
	opts := analyzer.Options{Scope: analyzer.ScopeUser, LiveText: true}
	ev := &WorkloadEval{
		Name:         w.Name,
		Scale:        w.Scale,
		CleanSeconds: clean,
		SDESeconds:   clean * sdeFactor,
		SDEFactor:    sdeFactor,
		HBBPSeconds:  clean * (1 + overhead),
		HBBPOverhead: overhead,
		ErrHBBP:      metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.BBECs, opts)),
		ErrEBS:       metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.EBS, opts)),
		ErrLBR:       metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.LBR, opts)),
		SDEBug:       w.SDEBug,
		Profile:      prof,
		RefMix:       refMix,
	}
	ev.refBBECs = make([]float64, w.Prog.NumBlocks())
	for id := range ev.refBBECs {
		ev.refBBECs[id] = float64(ref.BlockExec(id))
	}
	return ev, nil
}

// eval returns the named workload's evaluation through the keyed run
// cache, collecting it at most once per cache. Concurrent requesters
// of one name share a single collection; because every evaluation run
// derives the same seed from the config alone, a cached result is
// bit-identical to a fresh one — caching changes which run produced
// the bytes, never the bytes. The model is resolved before the run
// takes its budget slot, so a full budget never waits on training.
func (r *Runner) eval(name string) (*WorkloadEval, error) {
	r.evalMu.Lock()
	m := r.evals[name]
	if m == nil {
		m = &memo[*WorkloadEval]{}
		r.evals[name] = m
	}
	r.evalMu.Unlock()
	ev, fresh, err := m.get(func() (ev *WorkloadEval, err error) {
		model, err := r.Model()
		if err != nil {
			return nil, err
		}
		err = r.run(func() error {
			w, err := r.workload(name)
			if err != nil {
				return err
			}
			if ev, err = r.evalWorkload(w, model); err != nil {
				return fmt.Errorf("harness: evaluating %s: %w", name, err)
			}
			return nil
		})
		return ev, err
	})
	if err == nil && !fresh {
		r.noteReused()
	}
	return ev, err
}

// evalNamed evaluates registry workloads by name concurrently,
// returning results in input order. Each evaluation goes through the
// keyed run cache, so names an earlier experiment already collected
// are served without another run; every run carries the same derived
// seed, so results are bit-identical at any parallelism.
func (r *Runner) evalNamed(names []string) ([]*WorkloadEval, error) {
	evs := make([]*WorkloadEval, len(names))
	err := r.forEach(len(names), func(i int) error {
		ev, err := r.eval(names[i])
		if err != nil {
			return err
		}
		evs[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evs, nil
}

// SuiteEvals evaluates the full SPEC-like suite through the keyed run
// cache, in suite order regardless of scheduling.
func (r *Runner) SuiteEvals() ([]*WorkloadEval, error) {
	return r.evalNamed(workloads.SPECNames())
}

// ExperimentNames lists every regenerable experiment: the paper's
// tables and figures in paper order, then the reproduction's own
// fleet-scale experiment. The list is derived from the experiment
// registry, the same source of truth Run uses.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}
