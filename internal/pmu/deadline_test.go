package pmu

import (
	"fmt"
	"reflect"
	"testing"

	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
	"hbbp/internal/sde"
)

// deadlineRig is one run's set of listeners: PMUs with their sample
// streams (stacks copied at delivery), an SDE instrumenter and a
// CountingListener. Bound to one machine, the PMUs' deadlines
// interleave while the SDE and the counter have none.
type deadlineRig struct {
	pmus    []*PMU
	probes  []*deadlineProbe // the bound run's, one per PMU
	samples [][]Sample
	in      *sde.Instrumenter
	count   *cpu.CountingListener
}

// newDeadlineRig programs one PMU per entry of periods, each with a
// precise-instruction counter and a taken-branch counter.
func newDeadlineRig(t *testing.T, p *program.Program, cfg Config, periods ...[2]uint64) *deadlineRig {
	t.Helper()
	r := &deadlineRig{
		samples: make([][]Sample, len(periods)),
		in:      sde.New(p),
		count:   cpu.NewCountingListener(p),
	}
	for i, pp := range periods {
		handler := func(s Sample) {
			s.Stack = append([]BranchRecord(nil), s.Stack...)
			r.samples[i] = append(r.samples[i], s)
		}
		cfg := cfg
		cfg.Seed += int64(i)
		pm, err := New(cfg,
			Sampling{Event: InstRetiredPrecDist, Period: pp[0], Handler: handler},
			Sampling{Event: BrInstRetiredNearTaken, Period: pp[1], Handler: handler},
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r.pmus = append(r.pmus, pm)
	}
	return r
}

// listeners returns the rig's listeners, each PMU behind a
// deadlineProbe when probed.
func (r *deadlineRig) listeners(probed bool) []cpu.Listener {
	var ls []cpu.Listener
	for _, pm := range r.pmus {
		if !probed {
			ls = append(ls, pm)
			continue
		}
		d := &deadlineProbe{PMU: pm}
		r.probes = append(r.probes, d)
		ls = append(ls, d)
	}
	return append(ls, r.in, r.count)
}

// matches reports every difference between the rig's results and the
// reference rig's.
func (r *deadlineRig) matches(t *testing.T, ref *deadlineRig) {
	t.Helper()
	for i, pm := range r.pmus {
		got, want := r.samples[i], ref.samples[i]
		if !reflect.DeepEqual(got, want) {
			j := 0
			for j < len(got) && j < len(want) && reflect.DeepEqual(got[j], want[j]) {
				j++
			}
			t.Errorf("PMU %d: sample streams diverge at sample %d (%d block path, %d reference)", i, j, len(got), len(want))
		}
		for e := Event(0); e < numEvents; e++ {
			if g, w := pm.Count(e), ref.pmus[i].Count(e); g != w {
				t.Errorf("PMU %d: Count(%v) = %d block path, %d reference", i, e, g, w)
			}
		}
		for _, e := range []Event{InstRetiredPrecDist, BrInstRetiredNearTaken} {
			if g, w := pm.Dropped(e), ref.pmus[i].Dropped(e); g != w {
				t.Errorf("PMU %d: Dropped(%v) = %d block path, %d reference", i, e, g, w)
			}
			if g, w := pm.Overflows(e), ref.pmus[i].Overflows(e); g != w {
				t.Errorf("PMU %d: Overflows(%v) = %d block path, %d reference", i, e, g, w)
			}
		}
	}
	sdeMatches(t, r.in, ref.in)
	if !reflect.DeepEqual(r.count.Exec, ref.count.Exec) {
		t.Errorf("CountingListener.Exec diverged:\nblock path %v\nreference  %v", r.count.Exec, ref.count.Exec)
	}
}

// sdeMatches reports every difference between two instrumenters'
// results.
func sdeMatches(t *testing.T, got, want *sde.Instrumenter) {
	t.Helper()
	if !reflect.DeepEqual(got.BBECs(), want.BBECs()) {
		t.Errorf("SDE BBECs diverged:\nblock path %v\nreference  %v", got.BBECs(), want.BBECs())
	}
	if !reflect.DeepEqual(got.Mnemonics(), want.Mnemonics()) {
		t.Errorf("SDE mnemonics diverged:\nblock path %v\nreference  %v", got.Mnemonics(), want.Mnemonics())
	}
	if got.Instructions() != want.Instructions() || got.ExtraCycles() != want.ExtraCycles() {
		t.Errorf("SDE instructions, extra cycles = %d, %d block path, %d, %d reference",
			got.Instructions(), got.ExtraCycles(), want.Instructions(), want.ExtraCycles())
	}
}

// runDeadlineCase runs two fresh rigs built by build over p, one bound
// to the machine (each PMU behind a probe) and one on the
// per-instruction reference path, checks that they agree and that the
// machine called no PMU for a block short of its deadline, and returns
// the bound rig.
func runDeadlineCase(t *testing.T, p *program.Program, f *program.Function, seed int64,
	build func() *deadlineRig) *deadlineRig {
	t.Helper()
	bound, ref := build(), build()
	cfg := cpu.Config{Seed: seed, Repeat: 2}
	stats, err := cpu.Run(p, f, cfg, bound.listeners(true)...)
	if err != nil {
		t.Fatalf("bound run: %v", err)
	}
	for i, d := range bound.probes {
		if d.early > 0 {
			t.Errorf("PMU %d: called for %d blocks that reach no deadline of it", i, d.early)
		}
	}
	refListeners := ref.listeners(false)
	for i, l := range refListeners {
		refListeners[i] = struct{ cpu.Listener }{l}
	}
	refStats, err := cpu.Run(p, f, cfg, refListeners...)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if stats != refStats {
		t.Errorf("stats %+v block path, %+v reference", stats, refStats)
	}
	bound.matches(t, ref)
	return bound
}

// deadlineProbe stands between the machine and a PMU: it binds the PMU
// to the machine, counts the PMU's RetireBlock calls and those for a
// block that reaches none of the PMU's deadlines, and records the
// widest run of loop iterations retired in bulk between two calls.
type deadlineProbe struct {
	*PMU
	st              *cpu.State
	calls, early    int
	skipped, widest uint64
}

func (d *deadlineProbe) Bind(s *cpu.State) int {
	d.st = s
	return d.PMU.Bind(s)
}

func (d *deadlineProbe) RetireBlock(bev *cpu.BlockEvent) {
	d.calls++
	if next := d.Deadline(); d.st.Retired < next.Instr && (!bev.Taken || d.st.TakenBranches < next.Branch) {
		d.early++
	}
	d.widest = max(d.widest, d.st.Skipped-d.skipped)
	d.skipped = d.st.Skipped
	d.PMU.RetireBlock(bev)
}

// twoBlockLoopProgram builds one loop of trip iterations whose body is
// a head of headLen instructions jumping to a two-instruction latch:
// every iteration retires two taken branches with different sources,
// so an LBR read one record off shows in every stack.
func twoBlockLoopProgram(t *testing.T, headLen, trip int) (*program.Program, *program.Function, *program.Block) {
	t.Helper()
	b := program.NewBuilder("pmu-deadlines")
	mod := b.Module("m", program.RingUser)
	f := b.Function(mod, "f")
	entry := b.Block(f, isa.MOV)
	var ops []isa.Op
	for len(ops) < headLen {
		ops = append(ops, isa.ADD, isa.MOV, isa.SUB)
	}
	head := b.Block(f, ops[:headLen]...)
	latch := b.Block(f, isa.INC, isa.CMP)
	exit := b.Block(f, isa.MOV)
	b.Fallthrough(entry, head)
	b.Jump(head, latch)
	b.Loop(latch, isa.JNZ, head, exit, trip)
	b.Return(exit)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, f, head
}

// TestDeadlinesMatchReference checks the deadline contract — the
// machine owns the clocks, the block tally and the branch ring, and
// calls a listener only for the blocks that reach its deadline — case
// by case against the per-instruction reference: samples and stacks in
// order, Count, Dropped and Overflows of every PMU, the SDE results,
// the CountingListener's Exec and the run statistics. Every case also
// checks that no PMU was called for a block short of its deadline.
func TestDeadlinesMatchReference(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		// Two PMUs with coprime periods on one machine, next to an SDE
		// and a CountingListener, over every loop shape the machine
		// fast-forwards.
		for _, trip := range []int{3, 9, 200} {
			p, f := loopShapesProgram(t, trip)
			for _, pp := range [][2][2]uint64{{{7, 5}, {11, 3}}, {{101, 53}, {97, 59}}, {{2, 1}, {3, 2}}} {
				t.Run(fmt.Sprintf("trip=%d/periods=%v", trip, pp), func(t *testing.T) {
					for _, seed := range []int64{1, 9} {
						build := func() *deadlineRig { return newDeadlineRig(t, p, DefaultConfig(seed), pp[0], pp[1]) }
						r := runDeadlineCase(t, p, f, seed, build)
						if len(r.samples[0]) == 0 || len(r.samples[1]) == 0 {
							t.Fatalf("seed %d: a PMU delivered no sample", seed)
						}
					}
				})
			}
		}
	})

	t.Run("never-called", func(t *testing.T) {
		// Periods far beyond the run's length: neither PMU is ever
		// called, and Count must still fold the machine's tally.
		p, f := loopShapesProgram(t, 9)
		build := func() *deadlineRig {
			return newDeadlineRig(t, p, DefaultConfig(3), [2]uint64{1 << 40, 1 << 40}, [2]uint64{1<<40 + 1, 1 << 41})
		}
		for i, d := range runDeadlineCase(t, p, f, 3, build).probes {
			if d.calls != 0 {
				t.Errorf("PMU %d was called %d times before any deadline", i, d.calls)
			}
		}
	})

	t.Run("mid-block-delivery", func(t *testing.T) {
		// Precise samples land inside the 24-instruction head, whose
		// jump the machine has already pushed onto the ring when it
		// calls the PMU: the stack must end at the branch into the
		// head, not at the head's own jump.
		p, f, head := twoBlockLoopProgram(t, 24, 400)
		cfg := DefaultConfig(5)
		cfg.BiasProne, cfg.EntryDropProb = nil, 0
		var r *deadlineRig
		for _, c := range []Config{DefaultConfig(5), cfg} {
			build := func() *deadlineRig { return newDeadlineRig(t, p, c, [2]uint64{37, 1 << 40}) }
			r = runDeadlineCase(t, p, f, 5, build)
		}
		inside := 0
		for _, s := range r.samples[0] {
			if s.IP < head.Addr || s.IP >= head.LastAddr() || len(s.Stack) == 0 {
				continue
			}
			inside++
			if newest := s.Stack[len(s.Stack)-1]; newest.From == head.LastAddr() {
				t.Fatalf("sample at %#x inside the head sees the head's own jump %+v", s.IP, newest)
			}
		}
		if inside == 0 {
			t.Fatal("no sample landed on a non-final instruction of the head")
		}
	})

	t.Run("bulk-wraps-history", func(t *testing.T) {
		// A branch period of 401 leaves ~200 iterations — ~400 taken
		// branches, several times the 64-entry history — to each bulk
		// step; the next stack must read the ring exactly as record by
		// record pushes would have left it.
		p, f, _ := twoBlockLoopProgram(t, 3, 2000)
		for _, seed := range []int64{2, 8} {
			build := func() *deadlineRig { return newDeadlineRig(t, p, DefaultConfig(seed), [2]uint64{1 << 40, 401}) }
			probe := runDeadlineCase(t, p, f, seed, build).probes[0]
			if history := uint64(DefaultConfig(seed).HistoryDepth); 2*probe.widest <= history {
				t.Errorf("seed %d: widest bulk run %d iterations (%d branches), want more than the %d-entry history",
					seed, probe.widest, 2*probe.widest, history)
			}
		}
	})
}

// TestInstrumenterAccumulatesAcrossRuns passes one SDE instrumenter to
// two runs in sequence, reading its results between them: the second
// binding folds the first machine's tally, so the totals accumulate
// exactly as the reference's do and double those of one run.
func TestInstrumenterAccumulatesAcrossRuns(t *testing.T) {
	p, f := loopShapesProgram(t, 9)
	run := func(in *sde.Instrumenter, reference bool) {
		var l cpu.Listener = in
		if reference {
			l = struct{ cpu.Listener }{in}
		}
		if _, err := cpu.Run(p, f, cpu.Config{Seed: 4}, l); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	once, bound, ref := sde.New(p), sde.New(p), sde.New(p)
	run(once, false)
	run(bound, false)
	run(ref, true)
	sdeMatches(t, bound, ref)
	run(bound, false)
	run(ref, true)
	sdeMatches(t, bound, ref)
	if got, want := bound.Instructions(), 2*once.Instructions(); got != want {
		t.Errorf("two runs observed %d instructions, want twice one run's: %d", got, want)
	}
	if got, want := bound.ExtraCycles(), 2*once.ExtraCycles(); got != want {
		t.Errorf("two runs cost %d extra cycles, want twice one run's: %d", got, want)
	}
}
