package cpu

import (
	"reflect"
	"testing"

	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// recordingBlockListener captures the block stream as flattened
// per-instruction tuples, so it can be compared against a plain
// per-instruction listener's view of the same execution.
type recordingBlockListener struct {
	events []RetireEvent
	blocks int
}

// Retire implements Listener so the recorder can register; the machine
// dispatches it through RetireBlock.
func (r *recordingBlockListener) Retire(ev *RetireEvent) {
	r.events = append(r.events, *ev)
}

func (r *recordingBlockListener) RetireBlock(ev *BlockEvent) {
	r.blocks++
	last := ev.Len() - 1
	for i, op := range ev.Ops() {
		rec := RetireEvent{
			Addr:  ev.Addrs()[i],
			Op:    op,
			Block: ev.Block(),
			Ring:  ev.Ring(),
			Cycle: ev.Cycle(i),
		}
		if i == last && ev.Taken {
			rec.Taken, rec.Target = true, ev.Target
		}
		r.events = append(r.events, rec)
		if ev.Infos()[i] != op.Info() {
			panic("cached info diverges from Op.Info()")
		}
	}
}

// TestBlockEventsMatchPerInstructionStream runs the same program twice
// with the same seed — once observed at block granularity, once through
// the per-instruction reference dispatch — and asserts the flattened
// streams and the run statistics are identical.
func TestBlockEventsMatchPerInstructionStream(t *testing.T) {
	p, main := testProgram(t, 5)

	blockRec := &recordingBlockListener{}
	blockStats, err := Run(p, main, Config{Seed: 3, Repeat: 4}, blockRec)
	if err != nil {
		t.Fatalf("block run: %v", err)
	}

	var instRec []RetireEvent
	lis := listenerFunc(func(ev *RetireEvent) { instRec = append(instRec, *ev) })
	instStats, err := Run(p, main, Config{Seed: 3, Repeat: 4}, lis)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	if blockStats != instStats {
		t.Errorf("stats diverged: block %+v, reference %+v", blockStats, instStats)
	}
	if len(blockRec.events) != len(instRec) {
		t.Fatalf("stream lengths diverged: block %d, reference %d", len(blockRec.events), len(instRec))
	}
	for i := range instRec {
		if blockRec.events[i] != instRec[i] {
			t.Fatalf("event %d diverged:\nblock     %+v\nreference %+v", i, blockRec.events[i], instRec[i])
		}
	}
	if blockRec.blocks == 0 || blockRec.blocks >= len(blockRec.events) {
		t.Errorf("block events %d out of range for %d instructions", blockRec.blocks, len(blockRec.events))
	}
}

// TestCountingListenerPathParity asserts the oracle counts identically
// on the block fast path and the per-instruction reference path.
func TestCountingListenerPathParity(t *testing.T) {
	p, main := testProgram(t, 7)
	fast := NewCountingListener(p)
	if _, err := Run(p, main, Config{Seed: 11, Repeat: 3}, fast); err != nil {
		t.Fatalf("fast run: %v", err)
	}
	ref := NewCountingListener(p)
	if _, err := Run(p, main, Config{Seed: 11, Repeat: 3}, struct{ Listener }{ref}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !reflect.DeepEqual(fast.Exec, ref.Exec) {
		t.Errorf("per-block counts diverged:\nfast %v\nref  %v", fast.Exec, ref.Exec)
	}
}

// TestRunSteadyStateAllocs asserts the block fast path allocates
// nothing once per-block caches are warm: repeated runs of a machine
// with a block-capable listener stay allocation-free.
func TestRunSteadyStateAllocs(t *testing.T) {
	p, main := testProgram(t, 9)
	count := NewCountingListener(p)
	m := New(p, Config{Seed: 1}, count)
	if _, err := m.Run(main); err != nil { // warm-up: grows the call stack
		t.Fatalf("warm-up run: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(main); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state run allocated %.1f times per run, want 0", allocs)
	}
}

// TestTraceJumpBlockEventRetiresNops asserts the block event carries
// the live-image ops (trace points retire NOPs, never a taken JMP).
func TestTraceJumpBlockEventRetiresNops(t *testing.T) {
	b := program.NewBuilder("trace-block")
	kmod := b.Module("kernel", program.RingKernel)
	f := b.Function(kmod, "sys_traced")
	pre := b.Block(f, isa.MOV, isa.ADD)
	post := b.Block(f, isa.SUB)
	b.TracePoint(pre, post)
	b.Return(post)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	rec := &recordingBlockListener{}
	if _, err := Run(p, f, Config{}, rec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []isa.Op{isa.MOV, isa.ADD, isa.NOP, isa.NOP, isa.SUB, isa.SYSRET}
	if len(rec.events) != len(want) {
		t.Fatalf("retired %d instructions, want %d", len(rec.events), len(want))
	}
	for i, ev := range rec.events {
		if ev.Op != want[i] {
			t.Errorf("instruction %d is %v, want %v", i, ev.Op, want[i])
		}
		if ev.Op == isa.NOP && ev.Taken {
			t.Error("live-patched trace point retired a taken branch")
		}
	}
}
