package sde

import (
	"reflect"
	"testing"

	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// TestBlockPathMatchesReference asserts the block-granularity
// instrumenter produces exactly the per-instruction reference results:
// same BBECs, mnemonic histogram, instruction total and modelled cost.
func TestBlockPathMatchesReference(t *testing.T) {
	p, main := buildMixedRingProgram(t)
	for _, userOnly := range []bool{true, false} {
		fast := New(p)
		fast.UserOnly = userOnly
		if _, err := cpu.Run(p, main, cpu.Config{Seed: 5, Repeat: 4}, fast); err != nil {
			t.Fatalf("fast run: %v", err)
		}
		ref := New(p)
		ref.UserOnly = userOnly
		if _, err := cpu.Run(p, main, cpu.Config{Seed: 5, Repeat: 4}, struct{ cpu.Listener }{ref}); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if !reflect.DeepEqual(fast.BBECs(), ref.BBECs()) {
			t.Errorf("userOnly=%v: BBECs diverged:\nfast %v\nref  %v", userOnly, fast.BBECs(), ref.BBECs())
		}
		if !reflect.DeepEqual(fast.Mnemonics(), ref.Mnemonics()) {
			t.Errorf("userOnly=%v: mnemonics diverged:\nfast %v\nref  %v",
				userOnly, fast.Mnemonics(), ref.Mnemonics())
		}
		if fast.Instructions() != ref.Instructions() {
			t.Errorf("userOnly=%v: instructions %d fast, %d reference",
				userOnly, fast.Instructions(), ref.Instructions())
		}
		if fast.ExtraCycles() != ref.ExtraCycles() {
			t.Errorf("userOnly=%v: extra cycles %d fast, %d reference",
				userOnly, fast.ExtraCycles(), ref.ExtraCycles())
		}
	}
}

// buildLoopProgram builds branch-free loops the machine fast-forwards:
// a user loop of two blocks joined by a jump, and a kernel loop reached
// through a syscall, which the user-only instrumenter must not count
// even when its iterations retire in bulk.
func buildLoopProgram(t testing.TB) (*program.Program, *program.Function) {
	t.Helper()
	b := program.NewBuilder("sdeloops")
	mod := b.Module("main", program.RingUser)
	kmod := b.Module("kernel", program.RingKernel)

	kfn := b.Function(kmod, "sys_loop")
	khead := b.Block(kfn, isa.MOV, isa.ADD)
	klatch := b.Block(kfn, isa.INC, isa.CMP)
	kexit := b.Block(kfn, isa.MOV)
	b.Fallthrough(khead, klatch)
	b.Loop(klatch, isa.JNZ, khead, kexit, 40)
	b.Return(kexit)

	main := b.Function(mod, "main")
	entry := b.Block(main, isa.PUSH, isa.MOV)
	head := b.Block(main, isa.MOVAPS, isa.ADDPS, isa.DIV)
	latch := b.Block(main, isa.MULSS, isa.CMP)
	callB := b.Block(main, isa.MOV)
	exit := b.Block(main, isa.POP)
	b.Fallthrough(entry, head)
	b.Jump(head, latch)
	b.Loop(latch, isa.JNZ, head, callB, 25)
	b.Call(callB, kfn, exit)
	b.Return(exit)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p, main
}

// bulkCounter binds its Instrumenter to the machine and keeps the
// machine's state, whose Skipped count says how many loop iterations
// retired in bulk steps.
type bulkCounter struct {
	*Instrumenter
	st *cpu.State
}

func (b *bulkCounter) Bind(s *cpu.State) int {
	b.st = s
	return b.Instrumenter.Bind(s)
}

// bulk returns the iterations retired in bulk steps; 0 when unbound.
func (b *bulkCounter) bulk() uint64 {
	if b.st == nil {
		return 0
	}
	return b.st.Skipped
}

// TestLoopFastForwardMatchesReference extends the block-path parity
// check to loop iterations retired in bulk: on buildLoopProgram, where
// the machine fast-forwards a user and a kernel loop, the BBECs,
// mnemonic histogram, instruction total and modelled cost stay those
// of the per-instruction reference, which never fast-forwards.
func TestLoopFastForwardMatchesReference(t *testing.T) {
	p, main := buildLoopProgram(t)
	for _, userOnly := range []bool{true, false} {
		fast := &bulkCounter{Instrumenter: New(p)}
		fast.UserOnly = userOnly
		if _, err := cpu.Run(p, main, cpu.Config{Seed: 5, Repeat: 4}, fast); err != nil {
			t.Fatalf("fast run: %v", err)
		}
		ref := New(p)
		ref.UserOnly = userOnly
		if _, err := cpu.Run(p, main, cpu.Config{Seed: 5, Repeat: 4}, struct{ cpu.Listener }{ref}); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if fast.bulk() == 0 {
			t.Fatalf("userOnly=%v: no loop iteration retired in bulk", userOnly)
		}
		if !reflect.DeepEqual(fast.BBECs(), ref.BBECs()) {
			t.Errorf("userOnly=%v: BBECs diverged:\nfast %v\nref  %v", userOnly, fast.BBECs(), ref.BBECs())
		}
		if !reflect.DeepEqual(fast.Mnemonics(), ref.Mnemonics()) {
			t.Errorf("userOnly=%v: mnemonics diverged:\nfast %v\nref  %v",
				userOnly, fast.Mnemonics(), ref.Mnemonics())
		}
		if fast.Instructions() != ref.Instructions() {
			t.Errorf("userOnly=%v: instructions %d fast, %d reference",
				userOnly, fast.Instructions(), ref.Instructions())
		}
		if fast.ExtraCycles() != ref.ExtraCycles() {
			t.Errorf("userOnly=%v: extra cycles %d fast, %d reference",
				userOnly, fast.ExtraCycles(), ref.ExtraCycles())
		}
	}
}
