// Package collector drives profiled runs: it programs the PMU the way
// the paper's tool does and streams every sample, as it is captured,
// into the registered SampleSinks — the EBS-IP and LBR-stack sinks the
// estimators consume directly, plus an optional perffile writer sink
// for on-disk retention. There is no serialize-then-reparse round
// trip on the hot path; ReplayResult re-derives a result from a
// perffile written earlier.
//
// Following Section V.A, the simultaneous collection of classic EBS and
// LBR is not supported, so the collector programs two counters in LBR
// mode during a single run:
//
//   - INST_RETIRED:PREC_DIST — the "eventing IP" of these samples is the
//     EBS data source; their LBR stacks are discarded at analysis time.
//   - BR_INST_RETIRED:NEAR_TAKEN — the LBR stacks of these samples are
//     the LBR data source; their IPs are discarded.
//
// The workload runs once and the output file contains both data types.
package collector

import (
	"context"
	"fmt"
	"io"

	"hbbp/internal/bbec"
	"hbbp/internal/cpu"
	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
	"hbbp/internal/program"
)

// RuntimeClass buckets workloads by expected runtime, selecting the
// sampling periods of the paper's Table 4.
type RuntimeClass uint8

// Runtime classes.
const (
	// ClassSeconds is for workloads running for seconds.
	ClassSeconds RuntimeClass = iota
	// ClassMinuteOrTwo is for ~1-2 minute workloads.
	ClassMinuteOrTwo
	// ClassMinutes is for multi-minute workloads (SPEC).
	ClassMinutes
)

// String names the class the way Table 4 does.
func (c RuntimeClass) String() string {
	switch c {
	case ClassSeconds:
		return "Seconds"
	case ClassMinuteOrTwo:
		return "~1-2 minutes"
	case ClassMinutes:
		return "Minutes (SPEC workloads)"
	}
	return fmt.Sprintf("RuntimeClass(%d)", uint8(c))
}

// PeriodsFor returns the EBS and LBR sampling periods of Table 4. The
// values are primes, as is customary to avoid resonance with loop trip
// counts. LBR sampling uses a smaller period because taken branches are
// less frequent than instruction retirements.
func PeriodsFor(c RuntimeClass) (ebsPeriod, lbrPeriod uint64) {
	switch c {
	case ClassSeconds:
		return 1_000_037, 100_003
	case ClassMinuteOrTwo:
		return 10_000_019, 1_000_037
	default:
		return 100_000_007, 10_000_019
	}
}

// Options configures a collection run.
type Options struct {
	// Class picks the Table 4 periods. Ignored when explicit periods
	// are set.
	Class RuntimeClass
	// EBSPeriod and LBRPeriod override the class-derived periods when
	// nonzero. They are expressed in paper units (real retirements).
	EBSPeriod, LBRPeriod uint64
	// Scale divides the paper periods for the scaled simulation: one
	// simulated retirement stands for Scale real ones. Default 1000.
	Scale uint64
	// Seed seeds both the workload's stochastic branches and the PMU.
	Seed int64
	// Repeat is the workload invocation count (default 1).
	Repeat int
	// RawOut, when non-nil, additionally receives the raw perffile
	// stream (e.g. a file on disk). Off by default: the collection
	// streams straight into sinks, and the raw byte stream is only
	// materialized when a caller opts in here.
	RawOut io.Writer
	// Sinks receive every PMU sample as it is captured, after the
	// built-in EBS and LBR sinks.
	Sinks []SampleSink
	// PerInstruction forces the CPU's per-instruction reference
	// dispatch instead of the block-granularity fast path. The
	// collection output is identical either way — parity tests flip
	// this flag to prove it.
	PerInstruction bool
	// Context, when non-nil, cancels a collection in flight: the CPU
	// polls it during the run and the replay path polls it between
	// records, aborting with an error that wraps ctx.Err(). A run that
	// completes under a context is bit-identical to one without.
	Context context.Context
	// Layout, when non-nil, is the precomputed per-block dispatch
	// table of the program being collected (see cpu.NewLayout). Shared
	// layouts let repeated collections of one workload skip the
	// per-run derivation; output is bit-identical either way.
	Layout *cpu.Layout
}

// effectivePeriods resolves the configured periods to simulated units.
func (o *Options) effectivePeriods() (ebs, lbr uint64) {
	ebs, lbr = o.EBSPeriod, o.LBRPeriod
	if ebs == 0 || lbr == 0 {
		ce, cl := PeriodsFor(o.Class)
		if ebs == 0 {
			ebs = ce
		}
		if lbr == 0 {
			lbr = cl
		}
	}
	scale := o.Scale
	if scale == 0 {
		scale = 1000
	}
	ebs /= scale
	lbr /= scale
	if ebs == 0 {
		ebs = 1
	}
	if lbr == 0 {
		lbr = 1
	}
	return ebs, lbr
}

// Periods resolves the options to the effective (scaled) EBS and LBR
// sampling periods a collection will use. Replay callers need them:
// periods are not recorded in the perffile, so a Result reconstructed
// from disk takes them from the options used at collection time.
func (o Options) Periods() (ebsPeriod, lbrPeriod uint64) {
	return o.effectivePeriods()
}

// EffectiveScale resolves the simulation scale factor (default 1000).
func (o Options) EffectiveScale() uint64 {
	if o.Scale == 0 {
		return 1000
	}
	return o.Scale
}

// Result is a completed collection.
type Result struct {
	// EBSIPs are the eventing IPs from the precise instruction counter.
	EBSIPs []uint64
	// Stacks are the LBR snapshots from the branch counter.
	Stacks [][]bbec.Branch
	// Estimate holds the LBR estimator and bias statistics credited
	// with Stacks while the run executed (see streamLBROptions). It is
	// nil for a replayed result, and read-only: any number of analyses
	// may read it at once.
	Estimate *bbec.Accumulator
	// EBSPeriod and LBRPeriod are the effective (scaled) periods the
	// samples were taken with.
	EBSPeriod, LBRPeriod uint64
	// Scale is the simulation scale factor: one simulated retirement
	// stands for Scale real ones. Sample counts are scale-invariant
	// (periods are divided by the same factor), but cycle totals are
	// not, so the overhead model needs it.
	Scale uint64
	// Stats are the run's execution statistics.
	Stats cpu.Stats
	// PMIs is the total number of delivered interrupts, driving the
	// collection overhead model.
	PMIs uint64
	// LostEBS and LostLBR count overflow collisions (dropped PMIs).
	LostEBS, LostLBR uint64
}

// streamLBROptions are the LBR estimator options a collection credits
// its stacks under while the run executes: the kernel text re-patched
// from the live image and the default stream bounds, as
// core.DefaultOptions analyzes. An analysis under other options walks
// Result.Stacks again.
var streamLBROptions = bbec.LBROptions{KernelLivePatched: true}

// Collect runs entry under the PMU configuration described above,
// dispatching every sample straight to the sinks, and returns the
// result assembled from the built-in sink outputs. While the run
// executes, a second goroutine credits the LBR stacks to the LBR
// estimator and the bias statistics (Result.Estimate); Collect joins it
// before returning, on every path. Extra listeners (e.g. an SDE
// instrumenter producing reference data in the same run) observe the
// identical execution.
func Collect(p *program.Program, entry *program.Function, opt Options, extra ...cpu.Listener) (*Result, error) {
	ebsPeriod, lbrPeriod := opt.effectivePeriods()

	ebs := &EBSSink{}
	lbr := &LBRSink{}
	sinks := append([]SampleSink{ebs, lbr}, opt.Sinks...)

	// Serialization is opt-in: a writer sink joins the dispatch only
	// when a caller wants the byte stream.
	var w *perffile.Writer
	if opt.RawOut != nil {
		var err error
		w, err = perffile.NewWriter(opt.RawOut)
		if err != nil {
			return nil, fmt.Errorf("collector: %w", err)
		}
		// Metadata records: process events and memory maps, as in
		// perf.data.
		w.WriteComm(perffile.Comm{PID: 1, Name: p.Name})
		for _, m := range p.Modules {
			w.WriteMmap(perffile.Mmap{
				PID: 1, Start: m.Base, Size: m.Size(),
				Ring: uint8(m.Ring), Module: m.Name,
			})
		}
		sinks = append(sinks, &WriterSink{W: w})
	}

	var pmis uint64
	var rec perffile.Sample
	handler := func(s pmu.Sample) {
		pmis++
		rec.Event = uint8(s.Event)
		rec.IP = s.IP
		rec.Ring = uint8(s.Ring)
		rec.Cycle = s.Cycle
		rec.Stack = rec.Stack[:0]
		for _, br := range s.Stack {
			rec.Stack = append(rec.Stack, perffile.Branch{From: br.From, To: br.To})
		}
		for _, sink := range sinks {
			sink.Sample(&rec)
		}
	}
	unit, err := pmu.New(pmu.DefaultConfig(opt.Seed),
		pmu.Sampling{Event: pmu.InstRetiredPrecDist, Period: ebsPeriod, Handler: handler},
		pmu.Sampling{Event: pmu.BrInstRetiredNearTaken, Period: lbrPeriod, Handler: handler},
	)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}

	// The LBR estimator runs beside the machine; every return below
	// joins it first.
	lbr.estimate(bbec.NewAccumulator(p, streamLBROptions, bbec.DefaultBiasOptions()))
	defer lbr.finish()

	listeners := append([]cpu.Listener{unit}, extra...)
	stats, err := cpu.Run(p, entry, cpu.Config{
		Seed: opt.Seed, Repeat: opt.Repeat,
		PerInstruction: opt.PerInstruction, Ctx: opt.Context,
		Layout: opt.Layout,
	}, listeners...)
	if err != nil {
		return nil, fmt.Errorf("collector: running %s: %w", p.Name, err)
	}
	for _, ev := range []pmu.Event{pmu.InstRetiredPrecDist, pmu.BrInstRetiredNearTaken} {
		if lost := unit.Dropped(ev); lost > 0 {
			l := perffile.Lost{Count: lost, Event: uint8(ev)}
			for _, sink := range sinks {
				sink.Lost(l)
			}
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("collector: %w", err)
		}
	}

	return &Result{
		EBSIPs:    ebs.IPs,
		Stacks:    lbr.Stacks,
		Estimate:  lbr.finish(),
		EBSPeriod: ebsPeriod,
		LBRPeriod: lbrPeriod,
		Scale:     opt.EffectiveScale(),
		Stats:     stats,
		PMIs:      pmis,
		LostEBS:   ebs.Dropped,
		LostLBR:   lbr.Dropped,
	}, nil
}

// CollectionOverheadCycles models the runtime cost of sampling: each PMI
// freezes the pipeline, runs the handler and reads the LBR stack. The
// paper reports sub-1.3% average collection overhead; the per-PMI cost
// here reproduces that once periods follow Table 4.
const CollectionOverheadCycles = 2200

// OverheadFactor returns the modelled runtime multiplier of the
// collection relative to a clean run. The clean cycle count is expanded
// by the simulation scale — the real workload retired Scale times more
// instructions than the simulator did, while the number of PMIs is
// scale-invariant because the sampling periods were divided by the same
// factor.
func (r *Result) OverheadFactor() float64 {
	if r.Stats.Cycles == 0 {
		return 1
	}
	scale := r.Scale
	if scale == 0 {
		scale = 1
	}
	clean := float64(r.Stats.Cycles) * float64(scale)
	extra := float64(r.PMIs * CollectionOverheadCycles)
	return (clean + extra) / clean
}
