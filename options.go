package hbbp

import (
	"fmt"
	"io"
)

// Option configures a [Session]. Options are applied once by [New];
// the resulting Session is immutable except for the model installed by
// [Session.Train].
type Option func(*config) error

// config is the one options surface behind the façade. It subsumes
// the internal configuration structs (cpu.Config, collector.Options,
// harness.Config): a Session resolves it into whichever internal
// struct an entry point needs, so callers configure every layer in
// one place.
type config struct {
	seed          int64
	parallelism   int
	class         RuntimeClass
	classSet      bool
	sinks         []SampleSink
	rawOut        io.Writer
	model         *Model
	fastFactor    float64
	workloadScale float64
	expOut        io.Writer
}

// WithSeed sets the base random seed. It drives the workloads'
// stochastic branches, the PMU model and the derived per-run seeds of
// training and experiments; two Sessions with the same seed produce
// bit-identical results. The default is 1.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithParallelism sets the session's run budget: how many collection
// runs (training corpus runs and experiment workload evaluations)
// execute at once across all of the session's Train and experiment
// calls, concurrent calls included. Zero, the default, uses all cores;
// 1 runs one collection at a time. Every run carries its own derived
// seed and results are assembled in workload order, so outputs are
// identical at any setting.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("hbbp: negative parallelism %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithRuntimeClass overrides the runtime class — and thereby the
// Table 4 sampling periods — for every [Session.Profile] and
// [Session.Replay] workload. Without this option each workload's own
// class is used, which is almost always what you want. Training and
// experiment runs always use the workloads' own classes, like the
// paper's evaluation.
func WithRuntimeClass(class RuntimeClass) Option {
	return func(c *config) error {
		if class > ClassMinutes {
			return fmt.Errorf("hbbp: unknown runtime class %v", class)
		}
		c.class = class
		c.classSet = true
		return nil
	}
}

// WithSinks registers extra sample sinks: each receives every PMU
// sample as it is captured, after the built-in EBS and LBR sinks, on
// [Session.Profile] collections and [Session.Replay] passes alike.
// Training and experiment runs do not dispatch to them. The Sample
// passed in lives in a reused buffer; sinks that retain sample data
// must copy it.
func WithSinks(sinks ...SampleSink) Option {
	return func(c *config) error {
		c.sinks = append(c.sinks, sinks...)
		return nil
	}
}

// WithRawOutput streams the serialized collection (the perf.data-like
// byte stream) to w during every [Session.Profile] run, for later
// re-analysis with [Session.Replay]. The writer is shared by every run
// of the session: concurrent Profile calls would interleave their
// streams, so serialize profiling (or use one session per run) when
// capturing raw output.
func WithRawOutput(w io.Writer) Option {
	return func(c *config) error {
		c.rawOut = w
		return nil
	}
}

// WithModel installs a profiling model, bypassing both the shipped
// default rule and training. A model returned by [Session.Train] on
// one session can be reused on another.
func WithModel(m *Model) Option {
	return func(c *config) error {
		if m == nil {
			return fmt.Errorf("hbbp: WithModel(nil)")
		}
		c.model = m
		return nil
	}
}

// WithFast scales workload repeats down for quick runs of training
// and experiments: factor in (0, 1] is the repeat multiplier, and the
// sentinel 0 selects the standard fast factor of 0.25. Sampling
// statistics shrink accordingly — numbers keep their shape but carry
// more noise. Without this option runs are full fidelity.
func WithFast(factor float64) Option {
	return func(c *config) error {
		if factor < 0 || factor > 1 {
			return fmt.Errorf("hbbp: fast factor %g outside [0, 1] (0 means the standard 0.25)", factor)
		}
		if factor == 0 {
			factor = 0.25
		}
		c.fastFactor = factor
		return nil
	}
}

// WithWorkloadScale scales every [Session.Profile] workload's
// calibrated Repeat by factor in (0, 1] before the run — the
// single-workload counterpart of [WithFast] (which scales training and
// experiment runs). Sampling statistics shrink proportionally; the
// floor is one invocation. The default 1 runs workloads at full
// calibrated volume.
func WithWorkloadScale(factor float64) Option {
	return func(c *config) error {
		if factor <= 0 || factor > 1 {
			return fmt.Errorf("hbbp: workload scale %g outside (0, 1]", factor)
		}
		c.workloadScale = factor
		return nil
	}
}

// WithExperimentOutput directs the rendered tables and figures of
// [Session.RunExperiment] and [Session.RunAllExperiments] to w. The
// default discards them (useful only when inspecting structured
// results through other means).
func WithExperimentOutput(w io.Writer) Option {
	return func(c *config) error {
		c.expOut = w
		return nil
	}
}
