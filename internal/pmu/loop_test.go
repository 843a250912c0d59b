package pmu

import (
	"fmt"
	"reflect"
	"testing"

	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// loopShapesProgram builds an outer loop — ineligible for fast-forward
// itself, since it holds inner loops, a probabilistic branch and a
// syscall — around every loop shape the fast-forward must get exactly
// right, each with the given trip count:
//
//   - a one-block self-loop;
//   - a two-block body joined by a jump;
//   - a three-block body with an empty block inside it and DIV, SQRTSS
//     just before the taken back-edge (a PMI landing there is
//     shadowed onto the next instruction);
//   - a four-block body with two jumps, one of them backwards in the
//     address space;
//   - a three-block body entered by a jump to its middle block, so its
//     head first runs after the first back-edge;
//   - a two-block kernel-ring loop reached through the syscall.
func loopShapesProgram(t testing.TB, trip int) (*program.Program, *program.Function) {
	t.Helper()
	b := program.NewBuilder("pmu-loop-shapes")
	mod := b.Module("m", program.RingUser)
	kmod := b.Module("k", program.RingKernel)

	kfn := b.Function(kmod, "sys_loop")
	khead := b.Block(kfn, isa.MOV, isa.ADD)
	klatch := b.Block(kfn, isa.INC, isa.CMP)
	kexit := b.Block(kfn, isa.MOV)
	b.Fallthrough(khead, klatch)
	b.Loop(klatch, isa.JNZ, khead, kexit, trip)
	b.Return(kexit)

	f := b.Function(mod, "f")
	entry := b.Block(f, isa.MOV)
	outer := b.Block(f, isa.ADD)
	// One block.
	l1 := b.Block(f, isa.ADD, isa.MUL, isa.SUB)
	// Two blocks joined by a jump.
	h2 := b.Block(f, isa.MOVAPS, isa.ADDPS)
	l2 := b.Block(f, isa.MULSS, isa.CMP)
	// Three blocks, the middle one empty, shadowing at the latch.
	h3 := b.Block(f, isa.MOV, isa.FADD)
	e3 := b.Block(f)
	l3 := b.Block(f, isa.ADD, isa.DIV, isa.SQRTSS)
	// Four blocks: h4 jumps forward to m4, which falls into n4, which
	// jumps back to l4 placed before it.
	h4 := b.Block(f, isa.XOR, isa.MOV)
	l4 := b.Block(f, isa.SUB, isa.CMP)
	// Three blocks entered mid-body.
	pre5 := b.Block(f, isa.MOV)
	h5 := b.Block(f, isa.IMUL, isa.ADD)
	m5 := b.Block(f, isa.MOVSS, isa.ADDSS)
	l5 := b.Block(f, isa.DEC, isa.CMP)
	cond := b.Block(f, isa.TEST)
	then := b.Block(f, isa.INC)
	sys := b.Block(f, isa.MOV)
	latch := b.Block(f, isa.INC, isa.CMP)
	exit := b.Block(f, isa.MOV)
	m4 := b.Block(f, isa.AND, isa.OR, isa.SHL)
	n4 := b.Block(f, isa.MOVAPS)

	b.Fallthrough(entry, outer)
	b.Fallthrough(outer, l1)
	b.Loop(l1, isa.JNZ, l1, h2, trip)
	b.Jump(h2, l2)
	b.Loop(l2, isa.JNZ, h2, h3, trip)
	b.Fallthrough(h3, e3)
	b.Fallthrough(e3, l3)
	b.Loop(l3, isa.JNZ, h3, h4, trip)
	b.Jump(h4, m4)
	b.Fallthrough(m4, n4)
	b.Jump(n4, l4)
	b.Loop(l4, isa.JLE, h4, pre5, trip)
	b.Jump(pre5, m5)
	b.Fallthrough(h5, m5)
	b.Fallthrough(m5, l5)
	b.Loop(l5, isa.JNZ, h5, cond, trip)
	b.Cond(cond, isa.JZ, sys, then, 0.5)
	b.Fallthrough(then, sys)
	b.Call(sys, kfn, latch)
	b.Loop(latch, isa.JNZ, outer, exit, 3)
	b.Return(exit)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, f
}

// bulkProbe binds its PMU to the machine and keeps the machine's
// state, whose Skipped count says how many loop iterations retired in
// bulk steps.
type bulkProbe struct {
	*PMU
	t  testing.TB
	st *cpu.State
}

func (b *bulkProbe) Bind(s *cpu.State) int {
	b.st = s
	return b.PMU.Bind(s)
}

// bulk returns the iterations retired in bulk steps.
func (b *bulkProbe) bulk() uint64 {
	if b.st == nil {
		b.t.Fatal("probe was never bound to the machine")
	}
	return b.st.Skipped
}

// TestLoopFastForwardMatchesReference drives the loop fast-forward
// through every loop shape of loopShapesProgram, at trips that never
// fast-forward (1, 2), barely do (3), do routinely (9) and wrap the
// 64-entry LBR history many times over in one bulk step (200), under
// EBS × LBR periods from every-occurrence to sparse. Each run is
// checked against the per-instruction reference, which never
// fast-forwards: samples in order with their stacks, Count of every
// event, Dropped and Overflows of both sampling events, and the run
// statistics.
func TestLoopFastForwardMatchesReference(t *testing.T) {
	run := func(t *testing.T, p *program.Program, f *program.Function, seed int64, ebs, lbr uint64, reference bool) ([]Sample, *PMU, *bulkProbe, cpu.Stats) {
		var samples []Sample
		handler := func(s Sample) {
			s.Stack = append([]BranchRecord(nil), s.Stack...)
			samples = append(samples, s)
		}
		pm, err := New(DefaultConfig(seed),
			Sampling{Event: InstRetiredPrecDist, Period: ebs, Handler: handler},
			Sampling{Event: BrInstRetiredNearTaken, Period: lbr, Handler: handler},
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		probe := &bulkProbe{PMU: pm, t: t}
		var l cpu.Listener = probe
		if reference {
			l = struct{ cpu.Listener }{pm}
		}
		stats, err := cpu.Run(p, f, cpu.Config{Seed: seed, Repeat: 2}, l)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return samples, pm, probe, stats
	}
	var bulk uint64
	for _, trip := range []int{1, 2, 3, 9, 200} {
		p, f := loopShapesProgram(t, trip)
		for _, ebs := range []uint64{1, 2, 3, 7, 101} {
			for _, lbr := range []uint64{1, 2, 53} {
				t.Run(fmt.Sprintf("trip=%d/ebs=%d/lbr=%d", trip, ebs, lbr), func(t *testing.T) {
					for _, seed := range []int64{1, 9} {
						fastS, fast, probe, fastStats := run(t, p, f, seed, ebs, lbr, false)
						refS, ref, _, refStats := run(t, p, f, seed, ebs, lbr, true)
						bulk += probe.bulk()
						if trip < 3 && probe.bulk() > 0 {
							t.Errorf("seed %d: trip %d fast-forwarded %d iterations; no iteration is left to skip",
								seed, trip, probe.bulk())
						}
						if fastStats != refStats {
							t.Errorf("seed %d: stats %+v fast-forward, %+v reference", seed, fastStats, refStats)
						}
						if len(refS) == 0 {
							t.Fatalf("seed %d: no samples delivered", seed)
						}
						if !reflect.DeepEqual(fastS, refS) {
							i := 0
							for i < len(fastS) && i < len(refS) && reflect.DeepEqual(fastS[i], refS[i]) {
								i++
							}
							t.Fatalf("seed %d: sample streams diverge at sample %d (%d fast-forward, %d reference)",
								seed, i, len(fastS), len(refS))
						}
						for e := Event(0); e < numEvents; e++ {
							if fast.Count(e) != ref.Count(e) {
								t.Errorf("seed %d: Count(%v) = %d fast-forward, %d reference",
									seed, e, fast.Count(e), ref.Count(e))
							}
						}
						for _, e := range []Event{InstRetiredPrecDist, BrInstRetiredNearTaken} {
							if fast.Dropped(e) != ref.Dropped(e) {
								t.Errorf("seed %d: Dropped(%v) = %d fast-forward, %d reference",
									seed, e, fast.Dropped(e), ref.Dropped(e))
							}
							if fast.Overflows(e) != ref.Overflows(e) {
								t.Errorf("seed %d: Overflows(%v) = %d fast-forward, %d reference",
									seed, e, fast.Overflows(e), ref.Overflows(e))
							}
						}
					}
				})
			}
		}
	}
	if bulk == 0 {
		t.Error("no iteration was retired in bulk; the comparison never exercised the fast-forward")
	}
}

// TestLoopFastForwardStillTaken pins how much of a loop-heavy run the
// fast-forward covers under two-counter sampling (periods 1009 and
// 211): at least 95% of the latch executions of loopProgram's 6-instruction self-loop
// must retire in bulk steps. A quiet bound that grew conservative, or
// a listener that stopped offering iterations, fails here while every
// exactness test still passes.
func TestLoopFastForwardStillTaken(t *testing.T) {
	const trips, minShare = 20000, 0.95
	p, f := loopProgram(t, trips)
	pm, err := New(DefaultConfig(1),
		Sampling{Event: InstRetiredPrecDist, Period: 1009, Handler: func(Sample) {}},
		Sampling{Event: BrInstRetiredNearTaken, Period: 211, Handler: func(Sample) {}},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	probe := &bulkProbe{PMU: pm, t: t}
	if _, err := cpu.Run(p, f, cpu.Config{Seed: 1}, probe); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if share := float64(probe.bulk()) / trips; share < minShare {
		t.Errorf("bulk steps retired %d of %d iterations (%.3f), want at least %.2f",
			probe.bulk(), trips, share, minShare)
	}
}

// TestPushRepeatedMatchesPushes checks the bulk LBR write against
// record-by-record pushes, from every ring position, for sequences
// shorter than, equal to and many times longer than the ring.
func TestPushRepeatedMatchesPushes(t *testing.T) {
	pattern := []cpu.Branch{{From: 1, To: 2}, {From: 3, To: 4}, {From: 5, To: 6}}
	const size = 8
	for pre := 0; pre < 2*size; pre++ {
		for _, reps := range []uint64{1, 2, 3, 8, 41} {
			bulk, ref := newLBRRing(size), newLBRRing(size)
			for i := 0; i < pre; i++ {
				rec := BranchRecord{From: uint64(100 + i), To: uint64(200 + i)}
				bulk.push(rec)
				ref.push(rec)
			}
			bulk.pushRepeated(pattern, reps)
			for r := uint64(0); r < reps; r++ {
				for _, br := range pattern {
					ref.push(BranchRecord(br))
				}
			}
			if !reflect.DeepEqual(bulk, ref) {
				t.Fatalf("pre=%d reps=%d: bulk ring %+v, pushed ring %+v", pre, reps, bulk, ref)
			}
		}
	}
}
