package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"hbbp/internal/isa"
)

// buildLoopProgram builds a tiny program with a counted loop, a
// conditional diamond, a call and a kernel function — exercising every
// terminator kind.
func buildLoopProgram(t testing.TB) *Program {
	t.Helper()
	b := NewBuilder("test")
	mod := b.Module("main", RingUser)
	kmod := b.Module("kernel", RingKernel)

	helper := b.Function(mod, "helper")
	hb := b.Block(helper, isa.MOV, isa.ADD)
	b.Return(hb)

	kfn := b.Function(kmod, "sys_demo")
	kb := b.Block(kfn, isa.MOV, isa.CMP)
	b.Return(kb)

	main := b.Function(mod, "main")
	entry := b.Block(main, isa.PUSH, isa.MOV)
	head := b.Block(main, isa.ADD, isa.CMP)
	then := b.Block(main, isa.SUB)
	merge := b.Block(main, isa.MOV)
	latch := b.Block(main, isa.INC, isa.CMP)
	callBlk := b.Block(main, isa.MOV)
	exit := b.Block(main, isa.POP)

	b.Fallthrough(entry, head)
	b.Cond(head, isa.JNZ, merge, then, 0.3) // taken 30% -> skip `then`
	b.Fallthrough(then, merge)
	b.Fallthrough(merge, latch)
	b.Loop(latch, isa.JLE, head, callBlk, 10)
	b.Call(callBlk, helper, exit)
	b.Return(exit)

	// Wire a kernel call into helper? Keep main's call user-mode; add a
	// second function that syscalls.
	sysuser := b.Function(mod, "do_syscall")
	sb := b.Block(sysuser, isa.MOV)
	sret := b.Block(sysuser, isa.NOP)
	b.Call(sb, kfn, sret)
	b.Return(sret)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestLayoutAssignsAddresses(t *testing.T) {
	p := buildLoopProgram(t)
	var prevEnd uint64
	for _, m := range p.Modules {
		if m.Ring == RingKernel && m.Base < kernelBase {
			t.Errorf("kernel module %s based at %#x below kernel base", m.Name, m.Base)
		}
		if m.Ring == RingUser && m.Base < userBase {
			t.Errorf("user module %s based at %#x below user base", m.Name, m.Base)
		}
		for _, f := range m.Funcs {
			for _, blk := range f.Blocks {
				if blk.Size == 0 {
					t.Errorf("%s has zero size", blk)
				}
				var want uint64
				for _, op := range blk.Ops {
					want += uint64(op.Bytes())
				}
				if blk.Size != want {
					t.Errorf("%s: size %d, want %d", blk, blk.Size, want)
				}
				_ = prevEnd
			}
		}
	}
}

func TestBlockAt(t *testing.T) {
	p := buildLoopProgram(t)
	for _, blk := range p.Blocks() {
		for _, addr := range blk.InstAddrs() {
			got := p.BlockAt(addr)
			if got != blk {
				t.Fatalf("BlockAt(%#x) = %v, want %v", addr, got, blk)
			}
		}
		// Last byte of the block still resolves to the block.
		if got := p.BlockAt(blk.End() - 1); got != blk {
			t.Errorf("BlockAt(end-1) = %v, want %v", got, blk)
		}
	}
	if got := p.BlockAt(0); got != nil {
		t.Errorf("BlockAt(0) = %v, want nil", got)
	}
	if got := p.BlockAt(1 << 62); got != nil {
		t.Errorf("BlockAt(huge) = %v, want nil", got)
	}
}

func TestBlocksBetween(t *testing.T) {
	p := buildLoopProgram(t)
	main := p.FuncByName("main")
	blocks := main.Blocks
	// Straight-line run from entry through merge (indices 0..3).
	got := p.BlocksBetween(blocks[0].Addr, blocks[3].Addr)
	if len(got) != 4 {
		t.Fatalf("BlocksBetween covered %d blocks, want 4", len(got))
	}
	for i, blk := range got {
		if blk != blocks[i] {
			t.Errorf("block %d = %v, want %v", i, blk, blocks[i])
		}
	}
	// Same block start to its own last address: just that block.
	got = p.BlocksBetween(blocks[1].Addr, blocks[1].LastAddr())
	if len(got) != 1 || got[0] != blocks[1] {
		t.Errorf("single-block stream = %v", got)
	}
	// Reversed range yields nothing.
	if got := p.BlocksBetween(blocks[3].Addr, blocks[0].Addr); got != nil {
		t.Errorf("reversed range = %v, want nil", got)
	}
	// Unmapped endpoints yield nothing.
	if got := p.BlocksBetween(0, blocks[0].Addr); got != nil {
		t.Errorf("unmapped from = %v, want nil", got)
	}
}

func TestLastAddrIsBranchSource(t *testing.T) {
	p := buildLoopProgram(t)
	for _, blk := range p.Blocks() {
		if blk.Term.Kind == TermFallthrough || len(blk.Ops) == 0 {
			continue
		}
		last := blk.LastAddr()
		want := blk.End() - uint64(blk.Ops[len(blk.Ops)-1].Bytes())
		if last != want {
			t.Errorf("%s: LastAddr %#x, want %#x", blk, last, want)
		}
	}
}

func TestValidateCatchesBadWiring(t *testing.T) {
	b := NewBuilder("bad")
	mod := b.Module("m", RingUser)
	f := b.Function(mod, "f")
	blk := b.Block(f, isa.MOV)
	blk.Term = Terminator{Kind: TermCond, Prob: 0.5} // missing targets
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted cond terminator without targets")
	}
}

func TestValidateCatchesBadProb(t *testing.T) {
	b := NewBuilder("bad")
	mod := b.Module("m", RingUser)
	f := b.Function(mod, "f")
	a := b.Block(f, isa.MOV)
	c := b.Block(f, isa.MOV)
	d := b.Block(f, isa.MOV)
	b.Cond(a, isa.JZ, c, d, 0.5)
	a.Term.Prob = 1.5
	b.Return(c)
	b.Return(d)
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted probability 1.5")
	}
}

func TestValidateCatchesZeroTrip(t *testing.T) {
	b := NewBuilder("bad")
	mod := b.Module("m", RingUser)
	f := b.Function(mod, "f")
	head := b.Block(f, isa.MOV)
	latch := b.Block(f, isa.ADD)
	exit := b.Block(f, isa.MOV)
	b.Fallthrough(head, latch)
	b.Loop(latch, isa.JNZ, head, exit, 0)
	b.Return(exit)
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted loop trip 0")
	}
}

func TestSyscallInsertedForKernelCallee(t *testing.T) {
	p := buildLoopProgram(t)
	f := p.FuncByName("do_syscall")
	blk := f.Blocks[0]
	if got := blk.Ops[len(blk.Ops)-1]; got != isa.SYSCALL {
		t.Errorf("cross-ring call compiled to %v, want SYSCALL", got)
	}
	kfn := p.FuncByName("sys_demo")
	kblk := kfn.Blocks[len(kfn.Blocks)-1]
	if got := kblk.Ops[len(kblk.Ops)-1]; got != isa.SYSRET {
		t.Errorf("kernel return compiled to %v, want SYSRET", got)
	}
}

func TestDisassembleMatchesProgram(t *testing.T) {
	p := buildLoopProgram(t)
	for _, m := range p.Modules {
		decoded, err := Disassemble(m)
		if err != nil {
			t.Fatalf("Disassemble(%s): %v", m.Name, err)
		}
		var want []isa.Op
		for _, f := range m.Funcs {
			for _, blk := range f.Blocks {
				want = append(want, blk.Ops...)
			}
		}
		if len(decoded) != len(want) {
			t.Fatalf("%s: decoded %d insts, want %d", m.Name, len(decoded), len(want))
		}
		for i := range want {
			if decoded[i].Op != want[i] {
				t.Errorf("%s inst %d: %v, want %v", m.Name, i, decoded[i].Op, want[i])
			}
		}
	}
}

func TestBlockIDsDense(t *testing.T) {
	p := buildLoopProgram(t)
	seen := make([]bool, p.NumBlocks())
	for _, blk := range p.Blocks() {
		if blk.ID < 0 || blk.ID >= p.NumBlocks() {
			t.Fatalf("%s: ID %d out of range", blk, blk.ID)
		}
		if seen[blk.ID] {
			t.Fatalf("duplicate ID %d", blk.ID)
		}
		seen[blk.ID] = true
		if p.BlockByID(blk.ID) != blk {
			t.Errorf("BlockByID(%d) mismatch", blk.ID)
		}
	}
}

// Property: for any address inside the program's range, BlockAt either
// returns nil or a block that actually contains the address.
func TestQuickBlockAtConsistent(t *testing.T) {
	p := buildLoopProgram(t)
	blocks := p.Blocks()
	lo := blocks[0].Addr
	hi := blocks[len(blocks)-1].End()
	f := func(offset uint32) bool {
		addr := lo + uint64(offset)%(hi-lo+64)
		blk := p.BlockAt(addr)
		if blk == nil {
			for _, b := range blocks {
				if b.Contains(addr) {
					return false
				}
			}
			return true
		}
		return blk.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFuncHelpers(t *testing.T) {
	p := buildLoopProgram(t)
	main := p.FuncByName("main")
	if main == nil {
		t.Fatal("main not found")
	}
	if main.Entry() != main.Blocks[0] {
		t.Error("Entry() is not first block")
	}
	if main.Addr() != main.Blocks[0].Addr {
		t.Error("Addr() mismatch")
	}
	if main.StaticLen() == 0 {
		t.Error("StaticLen() zero")
	}
	if p.FuncByName("nope") != nil {
		t.Error("FuncByName on missing name should be nil")
	}
	if p.ModuleByName("kernel") == nil {
		t.Error("ModuleByName(kernel) missing")
	}
	if p.TotalStaticInsts() == 0 {
		t.Error("TotalStaticInsts zero")
	}
}

// TestModuleLiveText pins the copy-on-write live text: an unpatched
// module's live text aliases its static code, and a trace-point
// module's live text is a copy with NOPs over the trace JMP while the
// static code stays as built.
func TestModuleLiveText(t *testing.T) {
	b := NewBuilder("livetext-test")
	umod := b.Module("main", RingUser)
	ub := b.Block(b.Function(umod, "main"), isa.MOV, isa.ADD)
	b.Return(ub)
	kmod := b.Module("kernel", RingKernel)
	kf := b.Function(kmod, "sys_traced")
	pre := b.Block(kf, isa.MOV)
	post := b.Block(kf, isa.SUB)
	b.TracePoint(pre, post)
	b.Return(post)
	if _, err := b.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	if utext := umod.LiveText(); &utext[0] != &umod.Code[0] {
		t.Error("unpatched module's live text should alias the static code (no copy)")
	}

	static := append([]byte(nil), kmod.Code...)
	ktext := kmod.LiveText()
	if &ktext[0] == &kmod.Code[0] {
		t.Fatal("patched module's live text must be a copy, not the static code")
	}
	if !bytes.Equal(kmod.Code, static) {
		t.Error("LiveText modified the module's static code")
	}
	nop := isa.AppendEncode(nil, isa.NOP)[0]
	off := pre.LastAddr() - kmod.Base
	jmp := pre.Ops[len(pre.Ops)-1].Bytes()
	for i := 0; i < jmp; i++ {
		if ktext[off+uint64(i)] != nop {
			t.Fatalf("live text byte %d of the trace JMP = %#x, want NOP %#x", i, ktext[off+uint64(i)], nop)
		}
	}
	if !bytes.Equal(ktext[:off], static[:off]) || !bytes.Equal(ktext[off+uint64(jmp):], static[off+uint64(jmp):]) {
		t.Error("live text differs from the static code outside the trace JMP")
	}
}
