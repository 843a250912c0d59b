package collector

import (
	"fmt"

	"hbbp/internal/cpu"
	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
	"hbbp/internal/program"
)

// ReferenceCollect is Collect on the per-instruction reference
// dispatch, the oracle the parity tests hold Collect to. The PMU and
// every extra listener reach the machine as views that expose only
// Retire, so the machine binds none of them and replays every block to
// each one instruction at a time. The rest is Collect's pipeline,
// written out independently: the same two samplings, the same sinks fed
// from one reused sample record, the perffile metadata, the LOST
// records and the flush. No stream estimator runs, so Estimate is nil.
func ReferenceCollect(p *program.Program, entry *program.Function, opt Options, extra ...cpu.Listener) (*Result, error) {
	ebsPeriod, lbrPeriod := opt.effectivePeriods()
	ebs, lbr := &EBSSink{}, &LBRSink{}
	sinks := append([]SampleSink{ebs, lbr}, opt.Sinks...)
	var w *perffile.Writer
	if opt.RawOut != nil {
		var err error
		if w, err = perffile.NewWriter(opt.RawOut); err != nil {
			return nil, err
		}
		w.WriteComm(perffile.Comm{PID: 1, Name: p.Name})
		for _, m := range p.Modules {
			w.WriteMmap(perffile.Mmap{PID: 1, Start: m.Base, Size: m.Size(), Ring: uint8(m.Ring), Module: m.Name})
		}
		sinks = append(sinks, &WriterSink{W: w})
	}

	var pmis uint64
	var rec perffile.Sample
	handler := func(s pmu.Sample) {
		pmis++
		rec = perffile.Sample{Event: uint8(s.Event), IP: s.IP, Ring: uint8(s.Ring), Cycle: s.Cycle, Stack: rec.Stack[:0]}
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
		return nil, err
	}

	views := []cpu.Listener{struct{ cpu.Listener }{unit}}
	for _, l := range extra {
		views = append(views, struct{ cpu.Listener }{l})
	}
	stats, err := cpu.Run(p, entry, cpu.Config{
		Seed: opt.Seed, Repeat: opt.Repeat, Ctx: opt.Context, Layout: opt.Layout,
	}, views...)
	if err != nil {
		return nil, fmt.Errorf("reference collection of %s: %w", p.Name, err)
	}
	for _, ev := range []pmu.Event{pmu.InstRetiredPrecDist, pmu.BrInstRetiredNearTaken} {
		if lost := unit.Dropped(ev); lost > 0 {
			for _, sink := range sinks {
				sink.Lost(perffile.Lost{Count: lost, Event: uint8(ev)})
			}
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return &Result{
		EBSIPs: ebs.IPs, Stacks: lbr.Stacks,
		EBSPeriod: ebsPeriod, LBRPeriod: lbrPeriod, Scale: opt.EffectiveScale(),
		Stats: stats, PMIs: pmis, LostEBS: ebs.Dropped, LostLBR: lbr.Dropped,
	}, nil
}
