package program

import (
	"fmt"

	"hbbp/internal/isa"
)

// Builder assembles a Program module by module. Typical use:
//
//	b := program.NewBuilder("fitter")
//	mod := b.Module("fitter", program.RingUser)
//	fn := b.Function(mod, "main")
//	body := b.Block(fn, ops...)
//	...wire terminators...
//	prog, err := b.Finish()
//
// Finish assigns dense block IDs, lays out addresses, encodes code bytes
// and validates the result.
type Builder struct {
	prog   *Program
	nextID int
	err    error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// Module adds a module. Modules are laid out in creation order.
func (b *Builder) Module(name string, ring Ring) *Module {
	m := &Module{Name: name, Ring: ring}
	b.prog.Modules = append(b.prog.Modules, m)
	return m
}

// Function adds an empty function to a module.
func (b *Builder) Function(m *Module, name string) *Function {
	f := &Function{Name: name, Mod: m}
	m.Funcs = append(m.Funcs, f)
	return f
}

// Block appends a basic block with the given instructions to a function.
// The terminator defaults to TermReturn for blocks ending in RET_NEAR or
// SYSRET and must otherwise be wired explicitly before Finish.
func (b *Builder) Block(f *Function, ops ...isa.Op) *Block {
	blk := &Block{
		ID:    b.nextID,
		Fn:    f,
		Ops:   ops,
		Index: len(f.Blocks),
	}
	b.nextID++
	if n := len(ops); n > 0 {
		switch ops[n-1] {
		case isa.RET_NEAR, isa.SYSRET:
			blk.Term = Terminator{Kind: TermReturn}
		}
	}
	f.Blocks = append(f.Blocks, blk)
	b.prog.byIDAppend(blk)
	return blk
}

func (p *Program) byIDAppend(blk *Block) { p.byID = append(p.byID, blk) }

// Fallthrough wires blk to continue into next.
func (b *Builder) Fallthrough(blk, next *Block) {
	blk.Term = Terminator{Kind: TermFallthrough, Next: next}
}

// Jump appends a JMP and wires blk to target unconditionally.
func (b *Builder) Jump(blk, target *Block) {
	blk.Ops = append(blk.Ops, isa.JMP)
	blk.Term = Terminator{Kind: TermJump, Target: target}
}

// Loop appends the conditional branch br and wires blk as a counted
// back-edge: per activation the branch to head is taken trip-1 times,
// then control falls through to next. The loop body therefore executes
// trip times per activation.
func (b *Builder) Loop(blk *Block, br isa.Op, head, next *Block, trip int) {
	if br.Info().Cat != isa.CatCondBranch {
		b.fail(fmt.Errorf("Loop terminator %v is not a conditional branch", br))
	}
	blk.Ops = append(blk.Ops, br)
	blk.Term = Terminator{Kind: TermLoop, Target: head, Next: next, Trip: trip}
}

// Cond appends the conditional branch br and wires blk to take it to
// target with probability prob, falling through to next otherwise.
func (b *Builder) Cond(blk *Block, br isa.Op, target, next *Block, prob float64) {
	if br.Info().Cat != isa.CatCondBranch {
		b.fail(fmt.Errorf("Cond terminator %v is not a conditional branch", br))
	}
	blk.Ops = append(blk.Ops, br)
	blk.Term = Terminator{Kind: TermCond, Target: target, Next: next, Prob: prob}
}

// Call appends a CALL (or SYSCALL for cross-ring calls) and wires blk to
// invoke callee and continue at next.
func (b *Builder) Call(blk *Block, callee *Function, next *Block) {
	op := isa.CALL
	if callee.Mod.Ring == RingKernel && blk.Fn.Mod.Ring == RingUser {
		op = isa.SYSCALL
	}
	blk.Ops = append(blk.Ops, op)
	blk.Term = Terminator{Kind: TermCall, Callee: callee, Next: next}
}

// TracePoint appends a JMP to blk and wires it as a kernel trace point:
// the static image shows an unconditional jump to next, but the live
// kernel patches the jump to NOPs, so execution falls through to next.
func (b *Builder) TracePoint(blk, next *Block) {
	if blk.Fn.Mod.Ring != RingKernel {
		b.fail(fmt.Errorf("trace point in user block %s", blk))
	}
	blk.Ops = append(blk.Ops, isa.JMP)
	blk.Term = Terminator{Kind: TermFallthrough, Next: next}
	blk.TraceJump = true
}

// Return appends a RET_NEAR (or SYSRET from kernel functions) and marks
// blk as a function exit.
func (b *Builder) Return(blk *Block) {
	op := isa.RET_NEAR
	if blk.Fn.Mod.Ring == RingKernel {
		op = isa.SYSRET
	}
	blk.Ops = append(blk.Ops, op)
	blk.Term = Terminator{Kind: TermReturn}
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// userBase and kernelBase separate the two halves of the address space
// the way Linux does: user code low, kernel code high.
const (
	userBase   = uint64(0x400000)
	kernelBase = uint64(0xffffffff81000000)
	moduleGap  = uint64(0x10000)
)

// Finish lays the program out, encodes module code, builds the block
// map and validates the result.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := b.prog
	nextUser, nextKernel := userBase, kernelBase
	for _, m := range p.Modules {
		var base uint64
		if m.Ring == RingKernel {
			base = nextKernel
		} else {
			base = nextUser
		}
		m.Base = base
		addr := base
		var code []byte
		for _, f := range m.Funcs {
			for _, blk := range f.Blocks {
				blk.Addr = addr
				for _, op := range blk.Ops {
					code = isa.AppendEncode(code, op)
					addr += uint64(op.Bytes())
				}
				blk.Size = addr - blk.Addr
			}
		}
		m.Code = code
		if m.Ring == RingKernel {
			nextKernel = addr + moduleGap
		} else {
			nextUser = addr + moduleGap
		}
	}
	// The byID slice was appended in creation order, which after layout
	// is also address order within each module; build the global
	// address-sorted view.
	p.blocks = make([]*Block, len(p.byID))
	copy(p.blocks, p.byID)
	sortBlocksByAddr(p.blocks)
	p.index()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func sortBlocksByAddr(blocks []*Block) {
	// Insertion-friendly: block lists are nearly sorted already.
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j-1].Addr > blocks[j].Addr; j-- {
			blocks[j-1], blocks[j] = blocks[j], blocks[j-1]
		}
	}
}

// Disassemble decodes a module's code bytes back into instructions, the
// analyzer-side path that mirrors the paper's XED-based disassembler. It
// is used to rebuild static block maps from code bytes alone and to
// verify that the encoded image matches the structured program.
func Disassemble(m *Module) ([]isa.Decoded, error) {
	return isa.Decode(m.Code, m.Base)
}
