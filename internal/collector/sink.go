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
