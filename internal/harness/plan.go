package harness

import (
	"errors"
	"fmt"
	"time"

	"hbbp/internal/telemetry"
)

// experiment is one row of the experiment registry: a name and the
// builder that regenerates the experiment as rendered text. The
// builder is the only statement of what an experiment collects: it
// asks the run cache for the runs it reads, and the cache collects
// each at most once whoever asks.
type experiment struct {
	name  string
	build func(r *Runner) (string, error)
}

// renderer is any experiment result.
type renderer interface{ Render() string }

// row makes a registry row from a builder method expression such as
// (*Runner).Table1.
func row[T renderer](name string, build func(*Runner) (T, error)) experiment {
	return experiment{name, func(r *Runner) (string, error) {
		res, err := build(r)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}}
}

// staticRow makes a registry row from a builder that collects nothing.
func staticRow[T renderer](name string, build func() T) experiment {
	return experiment{name, func(*Runner) (string, error) { return build().Render(), nil }}
}

// experiments is the registry, in paper order (then the fleet
// experiment). It is the single source of truth behind
// ExperimentNames and Run — adding an experiment means adding a row.
var experiments = []experiment{
	row("table1", (*Runner).Table1),
	staticRow("table2", Table2),
	row("table3", (*Runner).Table3),
	staticRow("table4", Table4),
	row("table5", (*Runner).Table5),
	row("table6", (*Runner).Table6),
	row("table7", (*Runner).Table7),
	row("table8", (*Runner).Table8),
	row("figure1", (*Runner).Figure1),
	row("figure2", (*Runner).Figure2),
	row("figure3", (*Runner).Figure3),
	row("figure4", (*Runner).Figure4),
	row("fleet", (*Runner).Fleet),
}

// experimentByName looks a registry row up.
func experimentByName(name string) (*experiment, bool) {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i], true
		}
	}
	return nil, false
}

// ErrUnknownExperiment reports an experiment name the registry does
// not know.
var ErrUnknownExperiment = errors.New("harness: unknown experiment")

// ExperimentTiming records one experiment's build-plus-render wall
// time within a RunPlan call.
type ExperimentTiming struct {
	Name string
	Wall time.Duration
}

// Report summarises one RunPlan call: how many runs it collected, how
// many requests the run cache served, and how long the builds took.
// The rendered bytes themselves go to the runner's output writer and
// are bit-identical to rendering each experiment on its own runner.
type Report struct {
	// Collected is the number of (workload, config) collection runs
	// this call executed; Reused counts this call's requests served
	// from the keyed run cache instead of collecting again. Runs a
	// concurrent call on the same cache executes count there, not
	// here.
	Collected, Reused int
	// CollectWall is the wall time of the build phase, in which every
	// requested experiment builds at once.
	CollectWall time.Duration
	// Renders records each experiment's build-plus-render wall time,
	// in request order. The builds overlap, so the timings do not add
	// up to CollectWall.
	Renders []ExperimentTiming
}

// Run executes one or more experiments by name (see RunPlan).
func (r *Runner) Run(names ...string) error {
	_, err := r.RunPlan(names...)
	return err
}

// RunPlan builds the named experiments and renders them in request
// order. Unknown names fail first, before anything is collected, with
// an error wrapping ErrUnknownExperiment. Every requested experiment
// then builds at once; the runs they ask for are collected once each
// through the shared run cache, within the runner's run budget. If
// any build fails, the lowest-index failure is returned and nothing is
// written. Otherwise a multi-experiment call separates renders with a
// blank line (the RunAll layout) and a single-name call renders bare.
// The rendered output is bit-identical at any parallelism and to
// rendering each experiment on its own runner; the report is about
// timing and cache behaviour only.
func (r *Runner) RunPlan(names ...string) (*Report, error) {
	exps := make([]*experiment, len(names))
	for i, name := range names {
		exp, ok := experimentByName(name)
		if !ok {
			return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownExperiment, name, ExperimentNames())
		}
		exps[i] = exp
	}
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	// Count on a view of this call alone: the shared tally also moves
	// with every concurrent call on the same cache.
	r = &Runner{runCache: r.runCache, ctx: r.ctx, call: &callTally{}}
	texts := make([]string, len(exps))
	timings := make([]ExperimentTiming, len(exps))
	start := time.Now()
	err := r.forEach(len(exps), func(i int) error {
		t0 := time.Now()
		text, err := exps[i].build(r)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", exps[i].name, err)
		}
		texts[i] = text
		wall := time.Since(t0)
		renderWall.Observe(int64(wall))
		telemetry.Default().Slow().Observe("harness/render", wall, func() string { return exps[i].name })
		timings[i] = ExperimentTiming{Name: exps[i].name, Wall: wall}
		return nil
	})
	rep := &Report{
		Collected:   int(r.call.collected.Load()),
		Reused:      int(r.call.reused.Load()),
		CollectWall: time.Since(start),
	}
	if err != nil {
		return rep, err
	}
	collectWall.Observe(int64(rep.CollectWall))
	telemetry.Default().Slow().Observe("harness/collect", rep.CollectWall, func() string {
		return fmt.Sprintf("experiments=%v", names)
	})
	rep.Renders = timings
	for _, text := range texts {
		r.printf("%s", text)
		if len(texts) > 1 {
			r.printf("\n")
		}
	}
	return rep, nil
}

// RunAll executes every experiment in paper order.
func (r *Runner) RunAll() error {
	return r.Run(ExperimentNames()...)
}
