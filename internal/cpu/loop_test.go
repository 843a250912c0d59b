package cpu

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// loopsProgram builds one function holding every loop kind NewLayout
// must tell apart, in this order:
//
//   - jump: head, an empty block, then a jump to the latch —
//     fast-forwardable, the empty block absent from the body;
//   - self: a one-block self-loop — fast-forwardable;
//   - cond: a probabilistic branch inside the body — not;
//   - call: a call inside the body — not;
//   - outer: a loop around the self-loop — not (the inner latch is a
//     loop step of its own);
//   - once: a trip-1 loop, which never takes its back-edge — not.
func loopsProgram(t testing.TB, trip int) (*program.Program, *program.Function, map[string]*program.Block) {
	t.Helper()
	b := program.NewBuilder("loops")
	mod := b.Module("m", program.RingUser)
	leaf := b.Function(mod, "leaf")
	b.Return(b.Block(leaf, isa.MOV))

	f := b.Function(mod, "f")
	entry := b.Block(f, isa.MOV)
	jumpHead := b.Block(f, isa.MOV, isa.DIV)
	empty := b.Block(f)
	jumpMid := b.Block(f, isa.SUB)
	jump := b.Block(f, isa.INC)
	outerHead := b.Block(f, isa.ADD)
	self := b.Block(f, isa.ADD, isa.MUL)
	outer := b.Block(f, isa.INC, isa.CMP)
	condHead := b.Block(f, isa.TEST)
	condSkip := b.Block(f, isa.MOV)
	cond := b.Block(f, isa.CMP)
	callHead := b.Block(f, isa.MOV)
	call := b.Block(f, isa.CMP)
	once := b.Block(f, isa.ADD)
	exit := b.Block(f, isa.MOV)

	b.Fallthrough(entry, jumpHead)
	b.Fallthrough(jumpHead, empty)
	b.Fallthrough(empty, jumpMid)
	b.Jump(jumpMid, jump)
	b.Loop(jump, isa.JNZ, jumpHead, outerHead, trip)
	b.Fallthrough(outerHead, self)
	b.Loop(self, isa.JNZ, self, outer, trip)
	b.Loop(outer, isa.JNZ, outerHead, condHead, 3)
	b.Cond(condHead, isa.JZ, cond, condSkip, 0.5)
	b.Fallthrough(condSkip, cond)
	b.Loop(cond, isa.JNZ, condHead, callHead, trip)
	b.Call(callHead, leaf, call)
	b.Loop(call, isa.JNZ, callHead, once, trip)
	b.Loop(once, isa.JNZ, once, exit, 1)
	b.Return(exit)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, f, map[string]*program.Block{
		"self": self, "outer": outer, "jumpHead": jumpHead, "jumpMid": jumpMid,
		"jump": jump, "cond": cond, "call": call, "once": once,
	}
}

func TestLayoutFindsBranchFreeLoops(t *testing.T) {
	p, _, blk := loopsProgram(t, 5)
	l := NewLayout(p)
	for name, want := range map[string]bool{
		"self": true, "jump": true, "outer": false, "cond": false, "call": false, "once": false,
	} {
		if got := l.table[blk[name].ID].loop >= 0; got != want {
			t.Errorf("%s latch: fast-forwardable = %v, want %v", name, got, want)
		}
	}
	if len(l.loops) != 2 {
		t.Fatalf("%d loop records, want 2", len(l.loops))
	}
	lp := &l.loops[l.table[blk["jump"].ID].loop]
	wantBody := []int32{int32(blk["jumpHead"].ID), int32(blk["jumpMid"].ID), int32(blk["jump"].ID)}
	if !reflect.DeepEqual(lp.Body(), wantBody) {
		t.Errorf("jump loop body %v, want %v (head, middle, latch; the empty block left out)", lp.Body(), wantBody)
	}
	wantBranches := []Branch{
		{From: blk["jumpMid"].LastAddr(), To: blk["jump"].Addr},
		{From: blk["jump"].LastAddr(), To: blk["jumpHead"].Addr},
	}
	if !reflect.DeepEqual(lp.Branches(), wantBranches) {
		t.Errorf("jump loop branches %+v, want %+v", lp.Branches(), wantBranches)
	}
	// MOV DIV | SUB JMP | INC JNZ.
	wantCycles := uint64(isa.MOV.Latency() + isa.DIV.Latency() + isa.SUB.Latency() +
		isa.JMP.Latency() + isa.INC.Latency() + isa.JNZ.Latency())
	if lp.Insts() != 6 || lp.Taken() != 2 || lp.kernel != 0 || lp.cycles != wantCycles {
		t.Errorf("jump loop per iteration: insts %d taken %d kernel %d cycles %d, want 6, 2, 0, %d",
			lp.Insts(), lp.Taken(), lp.kernel, lp.cycles, wantCycles)
	}
}

// skipCounter is a CountingListener that also tallies the iterations
// it was handed in bulk.
type skipCounter struct {
	*CountingListener
	skipped uint64
}

func (s *skipCounter) RetireIterations(l *Loop, start, n uint64) {
	s.skipped += n
	s.CountingListener.RetireIterations(l, start, n)
}

// TestFastForwardMatchesReference runs loopsProgram with fast-forward
// (a CountingListener, or no listener at all) and without it (the
// per-instruction reference) and asserts identical statistics and
// per-block counts.
func TestFastForwardMatchesReference(t *testing.T) {
	for _, trip := range []int{1, 2, 3, 9, 200} {
		p, f, _ := loopsProgram(t, trip)
		cfg := Config{Seed: 4, Repeat: 3}
		fast := &skipCounter{CountingListener: NewCountingListener(p)}
		fastStats, err := Run(p, f, cfg, fast)
		if err != nil {
			t.Fatalf("trip %d: fast-forward run: %v", trip, err)
		}
		bareStats, err := Run(p, f, cfg)
		if err != nil {
			t.Fatalf("trip %d: listener-free run: %v", trip, err)
		}
		ref := NewCountingListener(p)
		cfg.PerInstruction = true
		refStats, err := Run(p, f, cfg, ref)
		if err != nil {
			t.Fatalf("trip %d: reference run: %v", trip, err)
		}
		if fastStats != refStats || bareStats != refStats {
			t.Errorf("trip %d: stats %+v fast-forward, %+v listener-free, %+v reference",
				trip, fastStats, bareStats, refStats)
		}
		if !reflect.DeepEqual(fast.Exec, ref.Exec) {
			t.Errorf("trip %d: per-block counts diverged:\nfast %v\nref  %v", trip, fast.Exec, ref.Exec)
		}
		// Per activation, the self and jump loops skip all but their
		// first and last iterations: (trip-2) each, the self-loop
		// activated 3 times per call.
		if want := uint64(max(trip-2, 0) * (3 + 1) * 3); fast.skipped != want {
			t.Errorf("trip %d: %d iterations retired in bulk, want %d", trip, fast.skipped, want)
		}
	}
}

// TestRetireLimitSameWithFastForward asserts that MaxRetired stops a
// run at the same retired count with the same error, whether loop
// iterations retire in bulk or block by block: the bulk step is capped
// so the limit never falls inside it. The limits land inside the
// never-ending first loop, whose iterations span three blocks, so a
// bulk step that overshoots ends on a different block boundary.
func TestRetireLimitSameWithFastForward(t *testing.T) {
	p, f, _ := loopsProgram(t, 1<<40) // far beyond any limit below
	for _, limit := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100, 1001, 4099, 65536} {
		type outcome struct {
			stats Stats
			err   string
		}
		run := func(perInstruction bool, listeners ...Listener) outcome {
			stats, err := Run(p, f, Config{MaxRetired: limit, PerInstruction: perInstruction}, listeners...)
			if !errors.Is(err, ErrRetireLimit) {
				t.Fatalf("limit %d: err = %v, want ErrRetireLimit", limit, err)
			}
			return outcome{stats, err.Error()}
		}
		ref := run(true, NewCountingListener(p))
		for name, got := range map[string]outcome{
			"counting listener": run(false, NewCountingListener(p)),
			"no listener":       run(false),
		} {
			if got != ref {
				t.Errorf("limit %d, %s: fast-forward stopped with %+v, reference with %+v", limit, name, got, ref)
			}
		}
	}
}

// cancelOnSkip cancels a context the first time it is handed
// iterations in bulk.
type cancelOnSkip struct {
	*CountingListener
	cancel context.CancelFunc
}

func (c *cancelOnSkip) RetireIterations(l *Loop, start, n uint64) {
	c.cancel()
	c.CountingListener.RetireIterations(l, start, n)
}

// TestFastForwardObservesCancellation cancels a run from inside its
// first bulk step. The run asks for 2^40 calls of f and would otherwise
// stop only at its retire limit: the machine must still poll the
// context and stop with its error.
func TestFastForwardObservesCancellation(t *testing.T) {
	p, f, _ := loopsProgram(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := &cancelOnSkip{CountingListener: NewCountingListener(p), cancel: cancel}
	_, err := Run(p, f, Config{Repeat: 1 << 40, Ctx: ctx, MaxRetired: 1 << 24}, l)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEntryFitsCacheLine pins the dispatch-table row at 64 bytes:
// retiring a block then reads one cache line of the table.
func TestEntryFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 64 {
		t.Errorf("dispatch entry is %d bytes, want 64", size)
	}
}
