package pmu

import (
	"fmt"
	"reflect"
	"testing"

	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// collectBoth runs the same program twice with identical seeds — once
// on the block fast path, once through the per-instruction reference
// dispatch (a Retire-only view of the PMU, which the machine never
// binds) — under a full two-counter programming, and
// returns both sample streams plus both PMUs for counter comparison.
func collectBoth(t *testing.T, p *program.Program, f *program.Function, seed int64, ebsPeriod, lbrPeriod uint64) (fastSamples, refSamples []Sample, fast, ref *PMU) {
	t.Helper()
	run := func(reference bool) ([]Sample, *PMU) {
		var samples []Sample
		handler := func(s Sample) { samples = append(samples, s) }
		pm, err := New(DefaultConfig(seed),
			Sampling{Event: InstRetiredPrecDist, Period: ebsPeriod, Handler: handler},
			Sampling{Event: BrInstRetiredNearTaken, Period: lbrPeriod, Handler: handler},
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var l cpu.Listener = pm
		if reference {
			l = struct{ cpu.Listener }{pm}
		}
		if _, err := cpu.Run(p, f, cpu.Config{Seed: seed}, l); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return samples, pm
	}
	fastSamples, fast = run(false)
	refSamples, ref = run(true)
	return fastSamples, refSamples, fast, ref
}

// TestBlockFastPathMatchesReference asserts the counter-overflow
// scheduling fast path is bit-identical to the per-instruction
// reference: same samples (IPs, stacks, rings, cycles, order), same
// counting-mode totals, same overflow and drop accounting.
func TestBlockFastPathMatchesReference(t *testing.T) {
	programs := map[string]func(testing.TB) (*program.Program, *program.Function){
		"hot-loop": func(tb testing.TB) (*program.Program, *program.Function) {
			return loopProgram(tb, 20000)
		},
		"multi-branch": func(tb testing.TB) (*program.Program, *program.Function) {
			p, f, _ := multiBranchProgram(tb)
			return p, f
		},
	}
	for name, build := range programs {
		t.Run(name, func(t *testing.T) {
			p, f := build(t)
			for _, seed := range []int64{1, 7, 23} {
				fastS, refS, fast, ref := collectBoth(t, p, f, seed, 101, 53)
				if len(fastS) == 0 {
					t.Fatalf("seed %d: no samples delivered", seed)
				}
				if !reflect.DeepEqual(fastS, refS) {
					t.Fatalf("seed %d: sample streams diverged (%d fast, %d reference)",
						seed, len(fastS), len(refS))
				}
				for e := Event(0); e < numEvents; e++ {
					if fast.Count(e) != ref.Count(e) {
						t.Errorf("seed %d: Count(%v) = %d fast, %d reference",
							seed, e, fast.Count(e), ref.Count(e))
					}
				}
				for _, e := range []Event{InstRetiredPrecDist, BrInstRetiredNearTaken} {
					if fast.Dropped(e) != ref.Dropped(e) {
						t.Errorf("seed %d: Dropped(%v) = %d fast, %d reference",
							seed, e, fast.Dropped(e), ref.Dropped(e))
					}
					if fast.Overflows(e) != ref.Overflows(e) {
						t.Errorf("seed %d: Overflows(%v) = %d fast, %d reference",
							seed, e, fast.Overflows(e), ref.Overflows(e))
					}
				}
			}
		})
	}
}

// eventDenseProgram builds an outer loop over blocks that put counter
// events where the block path must get them exactly right: a 42-op
// fallthrough block ending in DIV, SQRTSS; a one-instruction block that
// is a taken JMP; a 42-op latch with DIV, FSQRT just before its taken
// back-edge; and a one-instruction self-loop of taken JNZs.
func eventDenseProgram(t testing.TB) (*program.Program, *program.Function) {
	t.Helper()
	long := func(tail ...isa.Op) []isa.Op {
		var ops []isa.Op
		for len(ops)+len(tail) < 42 {
			ops = append(ops, isa.ADD, isa.MOV, isa.SUB)
		}
		return append(ops[:42-len(tail)], tail...)
	}
	b := program.NewBuilder("pmu-dense")
	mod := b.Module("m", program.RingUser)
	f := b.Function(mod, "f")
	entry := b.Block(f, isa.MOV)
	head := b.Block(f, long(isa.DIV, isa.SQRTSS)...)
	jump := b.Block(f)
	latch := b.Block(f, long(isa.DIV, isa.FSQRT)...)
	spin := b.Block(f)
	exit := b.Block(f, isa.MOV)
	b.Fallthrough(entry, head)
	b.Fallthrough(head, jump)
	b.Jump(jump, latch)
	b.Loop(latch, isa.JNZ, head, spin, 60)
	b.Loop(spin, isa.JNZ, spin, exit, 500)
	b.Return(exit)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, f
}

// TestEventScheduledBlocksMatchReference drives the block path through
// dense counter events — several overflows per block, skids that cross
// taken terminators, PMIs shadowed at a block's end — under every
// programming shape, and checks it against the per-instruction
// reference: samples (stacks copied at delivery), Count of every event,
// and Dropped and Overflows of every programmed event.
func TestEventScheduledBlocksMatchReference(t *testing.T) {
	programmings := map[string]func(ebs, lbr uint64) []Sampling{
		"prec-dist+branch": func(ebs, lbr uint64) []Sampling {
			return []Sampling{{Event: InstRetiredPrecDist, Period: ebs}, {Event: BrInstRetiredNearTaken, Period: lbr}}
		},
		"non-precise+prec-dist+branch": func(ebs, lbr uint64) []Sampling {
			return []Sampling{
				{Event: InstRetired, Period: ebs},
				{Event: BrInstRetiredNearTaken, Period: lbr},
				{Event: InstRetiredPrecDist, Period: ebs + lbr},
			}
		},
		"never-triggers+prec-dist+branch": func(ebs, lbr uint64) []Sampling {
			return []Sampling{
				{Event: DivCycles, Period: 1},
				{Event: InstRetiredPrecDist, Period: ebs},
				{Event: BrInstRetiredNearTaken, Period: lbr},
			}
		},
	}
	p, f := eventDenseProgram(t)
	run := func(t *testing.T, samplings []Sampling, seed int64, reference bool) ([]Sample, *PMU) {
		var samples []Sample
		handler := func(s Sample) {
			s.Stack = append([]BranchRecord(nil), s.Stack...)
			samples = append(samples, s)
		}
		programmed := append([]Sampling(nil), samplings...)
		for i := range programmed {
			programmed[i].Handler = handler
		}
		pm, err := New(DefaultConfig(seed), programmed...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var l cpu.Listener = pm
		if reference {
			l = struct{ cpu.Listener }{pm}
		}
		if _, err := cpu.Run(p, f, cpu.Config{Seed: seed}, l); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return samples, pm
	}
	for name, program := range programmings {
		for _, ebs := range []uint64{1, 2, 3, 7, 101} {
			for _, lbr := range []uint64{1, 2, 53} {
				t.Run(fmt.Sprintf("%s/ebs=%d/lbr=%d", name, ebs, lbr), func(t *testing.T) {
					samplings := program(ebs, lbr)
					for _, seed := range []int64{1, 9} {
						fastS, fast := run(t, samplings, seed, false)
						refS, ref := run(t, samplings, seed, true)
						if len(refS) == 0 {
							t.Fatalf("seed %d: no samples delivered", seed)
						}
						if !reflect.DeepEqual(fastS, refS) {
							i := 0
							for i < len(fastS) && i < len(refS) && reflect.DeepEqual(fastS[i], refS[i]) {
								i++
							}
							t.Fatalf("seed %d: sample streams diverge at sample %d (%d block path, %d reference)",
								seed, i, len(fastS), len(refS))
						}
						for e := Event(0); e < numEvents; e++ {
							if fast.Count(e) != ref.Count(e) {
								t.Errorf("seed %d: Count(%v) = %d block path, %d reference",
									seed, e, fast.Count(e), ref.Count(e))
							}
						}
						for _, s := range samplings {
							if fast.Dropped(s.Event) != ref.Dropped(s.Event) {
								t.Errorf("seed %d: Dropped(%v) = %d block path, %d reference",
									seed, s.Event, fast.Dropped(s.Event), ref.Dropped(s.Event))
							}
							if fast.Overflows(s.Event) != ref.Overflows(s.Event) {
								t.Errorf("seed %d: Overflows(%v) = %d block path, %d reference",
									seed, s.Event, fast.Overflows(s.Event), ref.Overflows(s.Event))
							}
						}
					}
				})
			}
		}
	}
}

// TestFastPathSteadyStateAllocs bounds the block path's allocations:
// with periods too large to ever overflow, a warm PMU consumes whole
// runs without allocating at all — retained sample data is the only
// thing the collection layer may allocate per datum.
func TestFastPathSteadyStateAllocs(t *testing.T) {
	p, f := loopProgram(t, 5000)
	pm, err := New(DefaultConfig(1),
		Sampling{Event: InstRetiredPrecDist, Period: 1 << 40, Handler: func(Sample) { t.Fatal("unexpected sample") }},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := cpu.New(p, cpu.Config{Seed: 1}, pm)
	if _, err := m.Run(f); err != nil { // warm-up: builds the per-block aggregate cache
		t.Fatalf("warm-up run: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(f); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state PMU run allocated %.1f times per run, want 0", allocs)
	}
}
