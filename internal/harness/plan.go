package harness

import (
	"errors"
	"fmt"
	"time"

	"hbbp/internal/telemetry"
	"hbbp/internal/workloads"
)

// experiment is one row of the experiment registry: the declarative
// collection requirements the planner unions across experiments, plus
// the renderer. The registry is the single source of truth behind
// ExperimentNames, Run and the planner — adding an experiment means
// adding a row, nothing else.
type experiment struct {
	name string
	// model marks experiments that need the corpus-trained model even
	// without any evaluation (figure1). Evaluations resolve the model
	// themselves, so rows with workloads or suite leave it false.
	model bool
	// suite marks consumers of the full SPEC-suite evaluation set.
	suite bool
	// workloads lists the named registry workloads whose evaluations
	// the renderer consumes through the keyed run cache.
	workloads []string
	// render regenerates the experiment and returns the rendered text.
	render func(r *Runner) (string, error)
}

// fitterWorkloadNames maps the Table 6 variants to registry names.
func fitterWorkloadNames() []string {
	variants := workloads.FitterVariants()
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.WorkloadName()
	}
	return names
}

// experiments is the registry, in paper order (then the fleet
// experiment). Each renderer returns its table or figure as text; the
// collection requirements mirror exactly what the builder consumes.
var experiments = []experiment{
	{name: "table1", suite: true, workloads: table1Extras,
		render: func(r *Runner) (string, error) {
			res, err := r.Table1()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "table2",
		render: func(r *Runner) (string, error) { return Table2().Render(), nil }},
	{name: "table3", workloads: []string{"fitter-sse"},
		render: func(r *Runner) (string, error) {
			res, err := r.Table3()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "table4",
		render: func(r *Runner) (string, error) { return Table4().Render(), nil }},
	{name: "table5", workloads: []string{"test40"},
		render: func(r *Runner) (string, error) {
			res, err := r.Table5()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "table6", workloads: fitterWorkloadNames(),
		render: func(r *Runner) (string, error) {
			res, err := r.Table6()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "table7", workloads: []string{"kernel-prime"},
		render: func(r *Runner) (string, error) {
			res, err := r.Table7()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "table8", workloads: table8Workloads,
		render: func(r *Runner) (string, error) {
			res, err := r.Table8()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "figure1", model: true,
		render: func(r *Runner) (string, error) {
			res, err := r.Figure1()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "figure2", suite: true,
		render: func(r *Runner) (string, error) {
			res, err := r.Figure2()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "figure3", workloads: []string{"test40"},
		render: func(r *Runner) (string, error) {
			res, err := r.Figure3()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "figure4", workloads: []string{"test40"},
		render: func(r *Runner) (string, error) {
			res, err := r.Figure4()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	{name: "fleet", suite: true,
		render: func(r *Runner) (string, error) {
			res, err := r.Fleet()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
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

// Plan is the resolved collection plan of one multi-experiment run:
// the union of the requested experiments' declared requirements, each
// to be collected exactly once before any render.
type Plan struct {
	// Experiments are the validated requested names, in request order
	// (duplicates preserved — they render twice, collect once).
	Experiments []string
	// Model reports whether any experiment needs the trained model.
	Model bool
	// Suite reports whether any experiment consumes the SPEC suite.
	Suite bool
	// Workloads is the union of named workload evaluations, in
	// first-request order with duplicates removed.
	Workloads []string
}

// ErrUnknownExperiment reports an experiment name the registry does
// not know.
var ErrUnknownExperiment = errors.New("harness: unknown experiment")

// PlanFor computes the shared collection plan for the named
// experiments. Unknown names fail here, before any collection starts,
// with an error wrapping ErrUnknownExperiment.
func PlanFor(names ...string) (*Plan, error) {
	plan := &Plan{}
	seen := map[string]bool{}
	for _, name := range names {
		exp, ok := experimentByName(name)
		if !ok {
			return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownExperiment, name, ExperimentNames())
		}
		plan.Experiments = append(plan.Experiments, name)
		plan.Model = plan.Model || exp.model
		plan.Suite = plan.Suite || exp.suite
		for _, w := range exp.workloads {
			if !seen[w] {
				seen[w] = true
				plan.Workloads = append(plan.Workloads, w)
			}
		}
	}
	return plan, nil
}

// ExperimentTiming records one rendered experiment's wall time within
// a planned run.
type ExperimentTiming struct {
	Name string
	Wall time.Duration
}

// Report summarises one planned multi-experiment run: what the shared
// collection phase executed, what later requests were served from the
// keyed run cache, and how long each render took. The rendered bytes
// themselves go to the runner's output writer and are independent of
// the planning — bit-identical to rendering each experiment on its
// own runner.
type Report struct {
	// Plan is the resolved collection plan.
	Plan *Plan
	// Collected is the number of (workload, config) collection runs
	// this call executed; Reused counts this call's requests served
	// from the keyed run cache instead of collecting again. Runs a
	// concurrent call on the same cache executes count there, not
	// here.
	Collected, Reused int
	// CollectWall is the wall time of the shared collection phase.
	CollectWall time.Duration
	// Renders records per-experiment render wall time, in plan order.
	Renders []ExperimentTiming
}

// collect executes the plan's shared collection phase: the trained
// model first (every evaluation resolves it), then the suite, then
// every remaining named workload exactly once on the bounded worker
// pool. Cancellation follows the same contract as the rest of the
// harness: the pool stops dispatching between runs and a run in
// flight aborts at the machine's 1024-block context poll, while cache
// entries completed before the cancellation stay valid.
func (r *Runner) collect(plan *Plan) error {
	if plan.Model || plan.Suite || len(plan.Workloads) > 0 {
		if _, err := r.Model(); err != nil {
			return err
		}
	}
	if plan.Suite {
		if _, err := r.SuiteEvals(); err != nil {
			return err
		}
	}
	return r.forEach(len(plan.Workloads), func(i int) error {
		_, err := r.eval(plan.Workloads[i])
		return err
	})
}

// Run executes one or more experiments by name through a shared
// collection plan: the union of required runs is collected exactly
// once, then every experiment renders from the shared result set, in
// request order. A multi-experiment run separates renders with a
// blank line (the RunAll layout); a single-name call renders bare.
// Unknown names fail before any collection starts.
func (r *Runner) Run(names ...string) error {
	_, err := r.RunPlan(names...)
	return err
}

// RunPlan is Run returning the plan's execution report — per-experiment
// wall time plus collected-versus-reused run counts, the numbers that
// make the dedup visible to cmd/experiments. The report is about
// timing and cache behaviour only; rendered output is bit-identical
// at any parallelism and to the unplanned per-experiment path.
func (r *Runner) RunPlan(names ...string) (*Report, error) {
	plan, err := PlanFor(names...)
	if err != nil {
		return nil, err
	}
	if err := r.ctxErr(); err != nil {
		return nil, err
	}
	rep := &Report{Plan: plan}
	// Count on a view of this call alone: the shared tally also moves
	// with every concurrent call on the same cache.
	r = &Runner{runCache: r.runCache, ctx: r.ctx, call: &callTally{}}
	finish := func() {
		rep.Collected, rep.Reused = int(r.call.collected.Load()), int(r.call.reused.Load())
	}
	start := time.Now()
	if err := r.collect(plan); err != nil {
		finish()
		return rep, err
	}
	rep.CollectWall = time.Since(start)
	collectWall.Observe(int64(rep.CollectWall))
	telemetry.Default().Slow().Observe("harness/collect", rep.CollectWall, func() string {
		return fmt.Sprintf("experiments=%v", plan.Experiments)
	})
	for _, name := range plan.Experiments {
		// Checking between renders keeps a cancelled multi-experiment
		// run from starting further renders while leaving the ones
		// already written to the output untouched.
		if err := r.ctxErr(); err != nil {
			finish()
			return rep, err
		}
		exp, _ := experimentByName(name)
		t0 := time.Now()
		text, err := exp.render(r)
		if err != nil {
			finish()
			return rep, fmt.Errorf("harness: %s: %w", name, err)
		}
		r.printf("%s", text)
		if len(plan.Experiments) > 1 {
			r.printf("\n")
		}
		wall := time.Since(t0)
		renderWall.Observe(int64(wall))
		telemetry.Default().Slow().Observe("harness/render", wall, func() string { return name })
		rep.Renders = append(rep.Renders, ExperimentTiming{Name: name, Wall: wall})
	}
	finish()
	return rep, nil
}

// RunAll executes every experiment in paper order through one shared
// collection plan.
func (r *Runner) RunAll() error {
	return r.Run(ExperimentNames()...)
}
