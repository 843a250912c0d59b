package collector

import (
	"bytes"
	"context"
	"testing"

	"hbbp/internal/bbec"
	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/metrics"
	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
	"hbbp/internal/program"
	"hbbp/internal/sde"
)

// mixedProgram builds a workload with a short-block-heavy function and a
// long-block function, both hot, connected through calls and diamonds —
// enough structural diversity to surface the EBS/LBR error asymmetry.
func mixedProgram(t testing.TB) (*program.Program, *program.Function) {
	t.Helper()
	b := program.NewBuilder("mixed")
	mod := b.Module("main", program.RingUser)

	// shortfn: object-oriented style — tiny blocks, a diamond, a DIV.
	shortfn := b.Function(mod, "shortfn")
	s0 := b.Block(shortfn, isa.PUSH, isa.MOV)
	s1 := b.Block(shortfn, isa.CMP)
	s2 := b.Block(shortfn, isa.ADD, isa.DIV)
	s3 := b.Block(shortfn, isa.SUB)
	s4 := b.Block(shortfn, isa.MOV, isa.POP)
	b.Fallthrough(s0, s1)
	b.Cond(s1, isa.JNZ, s3, s2, 0.35)
	b.Fallthrough(s2, s3)
	b.Fallthrough(s3, s4)
	b.Return(s4)

	// longfn: one 30-instruction straight-line block.
	longfn := b.Function(mod, "longfn")
	longOps := make([]isa.Op, 0, 30)
	for i := 0; i < 9; i++ {
		longOps = append(longOps, isa.MOV, isa.ADD, isa.MULSS)
	}
	longOps = append(longOps, isa.DIVSS, isa.SUB, isa.CMP)
	l0 := b.Block(longfn, longOps...)
	b.Return(l0)

	main := b.Function(mod, "main")
	entry := b.Block(main, isa.PUSH, isa.MOV)
	head := b.Block(main, isa.ADD)
	c1 := b.Block(main, isa.MOV)
	c2 := b.Block(main, isa.MOV)
	latch := b.Block(main, isa.INC, isa.CMP)
	exit := b.Block(main, isa.POP)
	b.Fallthrough(entry, head)
	b.Call(head, shortfn, c1)
	b.Call(c1, longfn, c2)
	b.Fallthrough(c2, latch)
	b.Loop(latch, isa.JLE, head, exit, 20000)
	b.Return(exit)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, main
}

func TestPeriodsForMatchTable4(t *testing.T) {
	cases := []struct {
		class    RuntimeClass
		ebs, lbr uint64
	}{
		{ClassSeconds, 1_000_037, 100_003},
		{ClassMinuteOrTwo, 10_000_019, 1_000_037},
		{ClassMinutes, 100_000_007, 10_000_019},
	}
	for _, c := range cases {
		ebs, lbr := PeriodsFor(c.class)
		if ebs != c.ebs || lbr != c.lbr {
			t.Errorf("%v: periods (%d,%d), want (%d,%d)", c.class, ebs, lbr, c.ebs, c.lbr)
		}
		if lbr >= ebs {
			t.Errorf("%v: LBR period must be smaller than EBS period", c.class)
		}
	}
}

func TestCollectEndToEnd(t *testing.T) {
	p, main := mixedProgram(t)
	ref := sde.New(p)
	var raw bytes.Buffer
	res, err := Collect(p, main, Options{
		Class: ClassSeconds, Scale: 1000, Seed: 42, RawOut: &raw,
	}, ref)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(res.EBSIPs) == 0 || len(res.Stacks) == 0 {
		t.Fatalf("no samples: %d EBS, %d LBR", len(res.EBSIPs), len(res.Stacks))
	}
	if res.PMIs == 0 {
		t.Fatal("no PMIs recorded")
	}

	// The raw file must parse and contain metadata + all samples.
	r, err := perffile.NewReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var comms, mmaps, samples int
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		switch rec.(type) {
		case *perffile.Comm:
			comms++
		case *perffile.Mmap:
			mmaps++
		case *perffile.Sample:
			samples++
		}
	}
	if comms != 1 || mmaps != len(p.Modules) {
		t.Errorf("metadata: %d comms, %d mmaps; want 1, %d", comms, mmaps, len(p.Modules))
	}
	if samples != int(res.PMIs) {
		t.Errorf("file has %d samples, PMIs = %d", samples, res.PMIs)
	}

	// Collection overhead must be small (paper: ~0.5-2.3%).
	if ov := res.OverheadFactor(); ov > 1.10 {
		t.Errorf("collection overhead factor %.3f too large", ov)
	}

	// Hot-block estimates must be in the right ballpark for both
	// estimators (within 50% on the hottest block).
	ebsEst, _ := bbec.FromEBS(p, res.EBSIPs, res.EBSPeriod)
	lbrEst, _ := bbec.FromLBR(p, res.Stacks, res.LBRPeriod, bbec.LBROptions{})
	long := p.FuncByName("longfn").Blocks[0]
	refCount := float64(ref.BlockExec(long.ID))
	if refCount == 0 {
		t.Fatal("long block never executed")
	}
	for name, est := range map[string][]float64{"EBS": ebsEst, "LBR": lbrEst} {
		if e := metrics.Error(refCount, est[long.ID]); e > 0.5 {
			t.Errorf("%s estimate for hot long block off by %.0f%% (ref %.0f, got %.0f)",
				name, e*100, refCount, est[long.ID])
		}
	}
}

// TestErrorLandscape verifies the core asymmetry HBBP exploits: EBS
// degrades on short blocks (skid/shadowing leaks samples across nearby
// boundaries) while staying accurate on long blocks, and LBR's error is
// roughly length-independent.
func TestErrorLandscape(t *testing.T) {
	p, main := mixedProgram(t)
	ref := sde.New(p)
	res, err := Collect(p, main, Options{
		Class: ClassSeconds, Scale: 1000, Seed: 7,
	}, ref)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	ebsEst, _ := bbec.FromEBS(p, res.EBSIPs, res.EBSPeriod)
	lbrEst, _ := bbec.FromLBR(p, res.Stacks, res.LBRPeriod, bbec.LBROptions{})

	avgErr := func(est []float64, fn *program.Function) float64 {
		var sum float64
		var n int
		for _, blk := range fn.Blocks {
			r := float64(ref.BlockExec(blk.ID))
			if r == 0 {
				continue
			}
			sum += metrics.Error(r, est[blk.ID])
			n++
		}
		return sum / float64(n)
	}
	shortFn := p.FuncByName("shortfn")
	longFn := p.FuncByName("longfn")

	ebsShort, ebsLong := avgErr(ebsEst, shortFn), avgErr(ebsEst, longFn)
	lbrShort, lbrLong := avgErr(lbrEst, shortFn), avgErr(lbrEst, longFn)
	t.Logf("EBS: short=%.3f long=%.3f | LBR: short=%.3f long=%.3f",
		ebsShort, ebsLong, lbrShort, lbrLong)

	if ebsShort <= ebsLong {
		t.Errorf("EBS error on short blocks (%.3f) should exceed long blocks (%.3f)",
			ebsShort, ebsLong)
	}
	if lbrShort >= ebsShort {
		t.Errorf("LBR (%.3f) should beat EBS (%.3f) on short blocks", lbrShort, ebsShort)
	}
	// Both estimators must be accurate on the long block of this tiny
	// program; the full corpus-level landscape (including LBR's
	// long-block penalty that flips the preference to EBS) is asserted
	// in internal/core's training tests.
	if ebsLong > 0.05 || lbrLong > 0.05 {
		t.Errorf("long-block errors EBS %.3f / LBR %.3f should both be small", ebsLong, lbrLong)
	}
}

func TestCollectWritesRawOut(t *testing.T) {
	p, main := mixedProgram(t)
	var sink bytes.Buffer
	res, err := Collect(p, main, Options{
		Class: ClassSeconds, Seed: 1, RawOut: &sink,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	replayed, err := ReplayResultContext(context.Background(), bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("ReplayResultContext: %v", err)
	}
	if len(replayed.EBSIPs) != len(res.EBSIPs) || len(replayed.Stacks) != len(res.Stacks) {
		t.Errorf("RawOut stream replays to %d/%d samples, live %d/%d",
			len(replayed.EBSIPs), len(replayed.Stacks), len(res.EBSIPs), len(res.Stacks))
	}
}

func TestRawIsOptIn(t *testing.T) {
	p, main := mixedProgram(t)
	res, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 1})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(res.EBSIPs) == 0 || len(res.Stacks) == 0 {
		t.Errorf("streaming sinks empty: %d EBS, %d LBR", len(res.EBSIPs), len(res.Stacks))
	}
}

func TestPostProcessSplitsEvents(t *testing.T) {
	p, main := mixedProgram(t)
	var raw bytes.Buffer
	res, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 3, RawOut: &raw})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	again, err := ReplayResultContext(context.Background(), bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("ReplayResultContext: %v", err)
	}
	if len(again.EBSIPs) != len(res.EBSIPs) || len(again.Stacks) != len(res.Stacks) {
		t.Errorf("re-post-process mismatch: %d/%d vs %d/%d",
			len(again.EBSIPs), len(again.Stacks), len(res.EBSIPs), len(res.Stacks))
	}
	for _, st := range again.Stacks {
		if len(st) == 0 {
			t.Fatal("empty stack passed post-processing")
		}
	}
}

// TestStreamingReplayParity is the pipeline-equivalence guarantee: the
// sample sets assembled by the live sink dispatch and the ones
// re-derived by replaying the serialized perffile must be identical —
// EBS IPs, LBR stacks and per-counter lost counts.
func TestStreamingReplayParity(t *testing.T) {
	p, main := mixedProgram(t)
	var raw bytes.Buffer
	live, err := Collect(p, main, Options{
		Class: ClassSeconds, Scale: 1000, Seed: 42, RawOut: &raw,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	replayed, err := ReplayResultContext(context.Background(), bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("ReplayResultContext: %v", err)
	}
	if len(replayed.EBSIPs) != len(live.EBSIPs) {
		t.Fatalf("EBS IPs: replay %d, live %d", len(replayed.EBSIPs), len(live.EBSIPs))
	}
	for i, ip := range live.EBSIPs {
		if replayed.EBSIPs[i] != ip {
			t.Fatalf("EBS IP %d: replay %#x, live %#x", i, replayed.EBSIPs[i], ip)
		}
	}
	if len(replayed.Stacks) != len(live.Stacks) {
		t.Fatalf("LBR stacks: replay %d, live %d", len(replayed.Stacks), len(live.Stacks))
	}
	for i, stack := range live.Stacks {
		if len(replayed.Stacks[i]) != len(stack) {
			t.Fatalf("stack %d: replay depth %d, live %d", i, len(replayed.Stacks[i]), len(stack))
		}
		for j, br := range stack {
			if replayed.Stacks[i][j] != br {
				t.Fatalf("stack %d entry %d: replay %+v, live %+v", i, j, replayed.Stacks[i][j], br)
			}
		}
	}
	if replayed.LostEBS != live.LostEBS || replayed.LostLBR != live.LostLBR {
		t.Errorf("lost counts: replay %d/%d, live %d/%d",
			replayed.LostEBS, replayed.LostLBR, live.LostEBS, live.LostLBR)
	}
}

// TestCustomSinkObservesEverySample wires an extra sink into a live
// run and checks it sees the full PMI stream, in both events.
func TestCustomSinkObservesEverySample(t *testing.T) {
	p, main := mixedProgram(t)
	var seen uint64
	byEvent := map[pmu.Event]int{}
	sink := sinkFunc(func(s *perffile.Sample) {
		seen++
		byEvent[pmu.Event(s.Event)]++
	})
	res, err := Collect(p, main, Options{
		Class: ClassSeconds, Seed: 5, Sinks: []SampleSink{sink},
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if seen != res.PMIs {
		t.Errorf("custom sink saw %d samples, PMIs = %d", seen, res.PMIs)
	}
	if byEvent[pmu.InstRetiredPrecDist] != len(res.EBSIPs) {
		t.Errorf("custom sink saw %d precise samples, result has %d EBS IPs",
			byEvent[pmu.InstRetiredPrecDist], len(res.EBSIPs))
	}
	if byEvent[pmu.BrInstRetiredNearTaken] == 0 {
		t.Error("custom sink saw no branch samples")
	}
}

// sinkFunc adapts a function to SampleSink for tests.
type sinkFunc func(*perffile.Sample)

func (f sinkFunc) Sample(s *perffile.Sample) { f(s) }
func (f sinkFunc) Lost(perffile.Lost)        {}

func TestScaledPeriodsFloorAtOne(t *testing.T) {
	o := Options{EBSPeriod: 10, LBRPeriod: 5, Scale: 1000}
	ebs, lbr := o.effectivePeriods()
	if ebs != 1 || lbr != 1 {
		t.Errorf("periods (%d,%d), want floor at 1", ebs, lbr)
	}
}

func TestEffectivePeriods(t *testing.T) {
	cases := []struct {
		name     string
		opt      Options
		ebs, lbr uint64
	}{
		// Unset scale defaults to 1000.
		{"default scale", Options{Class: ClassSeconds}, 1_000_037 / 1000, 100_003 / 1000},
		// Explicit periods override the class, scaled down.
		{"explicit periods", Options{EBSPeriod: 2_000_000, LBRPeriod: 500_000, Scale: 100}, 20_000, 5_000},
		// A single explicit period only overrides its own side; the
		// other still comes from the class.
		{"partial override", Options{Class: ClassSeconds, EBSPeriod: 3_000_000, Scale: 1000}, 3_000, 100},
		// Scale 1 leaves paper units untouched.
		{"unit scale", Options{Class: ClassMinutes, Scale: 1}, 100_000_007, 10_000_019},
		// Aggressive scales floor at one retirement per sample rather
		// than dividing to zero.
		{"floor", Options{EBSPeriod: 3, LBRPeriod: 2, Scale: 1_000_000}, 1, 1},
	}
	for _, c := range cases {
		ebs, lbr := c.opt.effectivePeriods()
		if ebs != c.ebs || lbr != c.lbr {
			t.Errorf("%s: periods (%d,%d), want (%d,%d)", c.name, ebs, lbr, c.ebs, c.lbr)
		}
		// The exported accessor must agree with the internal resolution.
		pe, pl := c.opt.Periods()
		if pe != ebs || pl != lbr {
			t.Errorf("%s: Periods() (%d,%d) != effectivePeriods (%d,%d)", c.name, pe, pl, ebs, lbr)
		}
	}
}

func TestOverheadFactorEdgeCases(t *testing.T) {
	// Zero cycles (nothing ran): no meaningful ratio, factor is 1.
	r := &Result{PMIs: 100}
	if got := r.OverheadFactor(); got != 1 {
		t.Errorf("zero-cycle overhead factor = %v, want 1", got)
	}
	// Unset scale is treated as 1, not the collection default of 1000:
	// a Result built by hand carries exactly what its fields say.
	r = &Result{Stats: cpu.Stats{Cycles: CollectionOverheadCycles}, PMIs: 1}
	if got := r.OverheadFactor(); got != 2 {
		t.Errorf("unscaled overhead factor = %v, want 2", got)
	}
	// With a scale, the clean cycle count expands while the PMI cost
	// does not: factor shrinks toward 1.
	r = &Result{Stats: cpu.Stats{Cycles: CollectionOverheadCycles}, PMIs: 1, Scale: 1000}
	want := 1 + 1.0/1000
	if got := r.OverheadFactor(); got != want {
		t.Errorf("scaled overhead factor = %v, want %v", got, want)
	}
	// No PMIs delivered: a clean run costs nothing extra.
	r = &Result{Stats: cpu.Stats{Cycles: 12345}, Scale: 1000}
	if got := r.OverheadFactor(); got != 1 {
		t.Errorf("no-PMI overhead factor = %v, want 1", got)
	}
}

// Ground-truth cross-check in the style of the paper's Section VII.B:
// instrumentation totals must match PMU counting totals.
func TestSDEMatchesCPUStats(t *testing.T) {
	p, main := mixedProgram(t)
	ref := sde.New(p)
	ref.UserOnly = false
	oracle := cpu.NewCountingListener(p)
	stats, err := cpu.Run(p, main, cpu.Config{Seed: 9}, ref, oracle)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ref.Instructions() != stats.Retired {
		t.Errorf("SDE insts %d != retired %d", ref.Instructions(), stats.Retired)
	}
	for id, n := range oracle.Exec {
		if ref.BlockExec(id) != n {
			t.Errorf("block %d: SDE %d, oracle %d", id, ref.BlockExec(id), n)
		}
	}
}
