package collector

import (
	"context"
	"fmt"
	"io"

	"hbbp/internal/bbec"
	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
)

// SampleSink consumes PMU sample records as they are produced — by a
// live collection run or by replaying a serialized perffile. Dispatch
// order is sample order; there is no buffering between the PMI handler
// and the sinks.
//
// The record passed to Sample (including its Stack) lives in a reused
// buffer and is only valid for the duration of the call; sinks that
// retain sample data must copy it.
type SampleSink interface {
	Sample(s *perffile.Sample)
	// Lost reports PMIs dropped by overflow collisions on one counter.
	Lost(l perffile.Lost)
}

// EBSSink accumulates the eventing IPs of precise instruction samples —
// the EBS data set. Samples of other events are ignored.
type EBSSink struct {
	IPs     []uint64
	Dropped uint64
}

// Sample records the eventing IP of INST_RETIRED:PREC_DIST samples.
func (k *EBSSink) Sample(s *perffile.Sample) {
	if pmu.Event(s.Event) == pmu.InstRetiredPrecDist {
		k.IPs = append(k.IPs, s.IP)
	}
}

// Lost accumulates drops on the precise instruction counter.
func (k *EBSSink) Lost(l perffile.Lost) {
	if pmu.Event(l.Event) == pmu.InstRetiredPrecDist {
		k.Dropped += l.Count
	}
}

// LBRSink accumulates the LBR stacks of taken-branch samples — the LBR
// data set. Empty stacks and samples of other events are ignored.
type LBRSink struct {
	Stacks  [][]bbec.Branch
	Dropped uint64

	// arena is the slab the retained stacks sub-slice: branch records
	// are pointer-free, so packing tens of thousands of small stacks
	// into a few large allocations takes them off the garbage
	// collector's object ledger entirely.
	arena []bbec.Branch

	// est, when non-nil, credits the stacks on a goroutine of its own
	// while the run goes on; fed counts the stacks handed to it.
	est *estimator
	fed int
}

// lbrArenaSize is the slab granularity, in branch records.
const lbrArenaSize = 16384

// Sample copies the LBR stack of BR_INST_RETIRED:NEAR_TAKEN samples.
func (k *LBRSink) Sample(s *perffile.Sample) {
	if pmu.Event(s.Event) != pmu.BrInstRetiredNearTaken || len(s.Stack) == 0 {
		return
	}
	n := len(s.Stack)
	if cap(k.arena)-len(k.arena) < n {
		size := lbrArenaSize
		if n > size {
			size = n
		}
		k.arena = make([]bbec.Branch, 0, size)
	}
	start := len(k.arena)
	k.arena = k.arena[:start+n]
	stack := k.arena[start : start+n : start+n]
	for i, br := range s.Stack {
		stack[i] = bbec.Branch{From: br.From, To: br.To}
	}
	k.Stacks = append(k.Stacks, stack)
	if k.est != nil && len(k.Stacks)-k.fed == estimatorBatch {
		k.feed()
	}
}

// feed hands the stacks not yet fed to the estimator. Retained stacks
// are never written again, and a later append that moves Stacks leaves
// the old backing array as it was, so the batch is shared, not copied.
func (k *LBRSink) feed() {
	n := len(k.Stacks)
	k.est.batches <- k.Stacks[k.fed:n:n]
	k.fed = n
}

// estimate starts crediting the sink's stacks to acc while the run
// executes. The caller must call finish once the run is over, on every
// path.
func (k *LBRSink) estimate(acc *bbec.Accumulator) {
	k.est = &estimator{acc: acc, batches: make(chan [][]bbec.Branch, estimatorQueue), done: make(chan struct{})}
	go k.est.run()
}

// finish hands over the last stacks, waits for the estimator to credit
// everything it was given and returns its accumulator (nil when none
// was started). It may be called more than once.
func (k *LBRSink) finish() *bbec.Accumulator {
	e := k.est
	if e == nil {
		return nil
	}
	if len(k.Stacks) > k.fed {
		k.feed()
	}
	k.est = nil
	close(e.batches)
	<-e.done
	return e.acc
}

// estimator is the goroutine that credits an LBRSink's stacks to an
// accumulator in arrival order.
type estimator struct {
	acc     *bbec.Accumulator
	batches chan [][]bbec.Branch
	done    chan struct{}
}

// estimatorBatch is how many stacks the sink hands over at a time. A
// short-block run delivers a few thousand stacks; a batch this size
// keeps the hand-off cost per stack small while the estimator stays
// close behind the run, so little is left to credit when it ends.
const estimatorBatch = 128

// estimatorQueue bounds the batches waiting for the estimator. A batch
// is a slice header onto stacks the sink retains anyway, so a deep
// queue costs next to nothing, and the run stalls on the estimator only
// when it falls this many batches behind.
const estimatorQueue = 64

func (e *estimator) run() {
	defer close(e.done)
	for batch := range e.batches {
		e.acc.Add(batch)
	}
}

// Lost accumulates drops on the branch counter.
func (k *LBRSink) Lost(l perffile.Lost) {
	if pmu.Event(l.Event) == pmu.BrInstRetiredNearTaken {
		k.Dropped += l.Count
	}
}

// WriterSink forwards every sample to a perffile.Writer — the opt-in
// serialization path (Options.RawOut). Callers own the writer and
// flush it after the run.
type WriterSink struct {
	W *perffile.Writer
}

// Sample serializes the record.
func (k *WriterSink) Sample(s *perffile.Sample) { k.W.WriteSample(*s) }

// Lost serializes the drop report.
func (k *WriterSink) Lost(l perffile.Lost) { k.W.WriteLost(l) }

// sinkVisitor adapts a sink set to the perffile streaming Visitor,
// ignoring metadata records.
type sinkVisitor []SampleSink

func (v sinkVisitor) VisitComm(perffile.Comm) error { return nil }
func (v sinkVisitor) VisitMmap(perffile.Mmap) error { return nil }

func (v sinkVisitor) VisitSample(s *perffile.Sample) error {
	for _, k := range v {
		k.Sample(s)
	}
	return nil
}

func (v sinkVisitor) VisitLost(l perffile.Lost) error {
	for _, k := range v {
		k.Lost(l)
	}
	return nil
}

// ctxVisitor wraps a record visitor with periodic context polls, so a
// replay over a large file observes cancellation without paying a
// per-record check on every channel.
type ctxVisitor struct {
	sinkVisitor
	ctx       context.Context
	countdown int
}

// replayCtxInterval is how many samples pass between context polls on
// the replay path.
const replayCtxInterval = 4096

func (v *ctxVisitor) VisitSample(s *perffile.Sample) error {
	if v.countdown--; v.countdown < 0 {
		v.countdown = replayCtxInterval
		if err := v.ctx.Err(); err != nil {
			return err
		}
	}
	return v.sinkVisitor.VisitSample(s)
}

// Replay streams a serialized perffile through the sinks — the on-disk
// analogue of a live run's dispatch. Sample and Lost records reach
// every sink in file order; Comm and Mmap metadata is skipped.
func Replay(rd io.Reader, sinks ...SampleSink) error {
	return ReplayContext(context.Background(), rd, sinks...)
}

// ReplayContext is Replay under a context: the pass polls ctx between
// records and aborts with an error wrapping ctx.Err() when it is
// cancelled. A pass that completes is identical to an uncancelled
// Replay.
func ReplayContext(ctx context.Context, rd io.Reader, sinks ...SampleSink) error {
	var v perffile.Visitor = sinkVisitor(sinks)
	if ctx != nil && ctx.Done() != nil {
		v = &ctxVisitor{sinkVisitor: sinkVisitor(sinks), ctx: ctx}
	}
	if err := perffile.Visit(rd, v); err != nil {
		return fmt.Errorf("collector: replay: %w", err)
	}
	return nil
}

// ReplayResult re-derives a collection's sample sets from a perffile
// stream, using the same sinks a live run dispatches to. Periods,
// scale and run statistics are not recorded in the file; callers
// replaying a known collection set them from the options used at
// collection time (see Options.Periods and Options.EffectiveScale).
func ReplayResult(rd io.Reader) (*Result, error) {
	return ReplayResultContext(context.Background(), rd)
}

// ReplayResultContext is ReplayResult under a context (see
// ReplayContext for the cancellation contract). Extra sinks join the
// dispatch after the built-in EBS and LBR sinks — the same order a
// live collection uses for Options.Sinks.
func ReplayResultContext(ctx context.Context, rd io.Reader, extra ...SampleSink) (*Result, error) {
	ebs := &EBSSink{}
	lbr := &LBRSink{}
	sinks := append([]SampleSink{ebs, lbr}, extra...)
	if err := ReplayContext(ctx, rd, sinks...); err != nil {
		return nil, err
	}
	return &Result{
		EBSIPs:  ebs.IPs,
		Stacks:  lbr.Stacks,
		LostEBS: ebs.Dropped,
		LostLBR: lbr.Dropped,
	}, nil
}
