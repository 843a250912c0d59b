// Package program models static programs: modules, functions and basic
// blocks laid out in a flat address space.
//
// The paper's analyzer maps dynamic PMU samples onto "static basic block
// maps" extracted from binaries with a disassembler. Here the static side
// is explicit: workload generators build programs from typed basic
// blocks, the layout step assigns addresses and encodes the code bytes
// (via internal/isa), and the block map answers the two queries the
// profiling pipeline needs — "which block contains this IP?" and "which
// blocks lie on the straight-line path between these two addresses?".
package program

import (
	"fmt"

	"hbbp/internal/isa"
)

// Ring is the privilege level code executes in. The paper's headline
// coverage advantage over software instrumentation is ring 0 visibility.
type Ring uint8

// Privilege rings.
const (
	RingUser   Ring = iota // user mode (rings 1-3 on x86)
	RingKernel             // kernel mode (ring 0)
)

// String returns "user" or "kernel".
func (r Ring) String() string {
	if r == RingKernel {
		return "kernel"
	}
	return "user"
}

// TermKind classifies how control leaves a basic block.
type TermKind uint8

// Terminator kinds.
const (
	// TermFallthrough continues to Next unconditionally without a
	// branch instruction.
	TermFallthrough TermKind = iota
	// TermJump transfers to Target via an unconditional jump.
	TermJump
	// TermLoop branches back to Target (the loop head) Trip-1 times per
	// activation, then falls through to Next. It models a counted loop
	// back-edge.
	TermLoop
	// TermCond branches to Target with probability Prob, otherwise
	// falls through to Next. Used for forward (if/else) edges only.
	TermCond
	// TermCall invokes Callee and then continues to Next.
	TermCall
	// TermReturn returns to the caller.
	TermReturn
)

// String names the terminator kind.
func (k TermKind) String() string {
	switch k {
	case TermFallthrough:
		return "fallthrough"
	case TermJump:
		return "jump"
	case TermLoop:
		return "loop"
	case TermCond:
		return "cond"
	case TermCall:
		return "call"
	case TermReturn:
		return "return"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Terminator describes the control transfer at the end of a block.
type Terminator struct {
	Kind   TermKind
	Target *Block    // taken-branch destination (TermJump, TermLoop, TermCond)
	Next   *Block    // fallthrough successor (all kinds except TermJump/TermReturn)
	Callee *Function // callee (TermCall)
	Trip   int       // iterations per activation (TermLoop, >= 1)
	Prob   float64   // taken probability (TermCond, in [0,1])
}

// Block is a basic block: a straight-line instruction sequence with a
// single entry and a single terminator.
type Block struct {
	ID    int       // global, dense, assigned by the builder
	Fn    *Function // owning function
	Ops   []isa.Op  // instructions, including the terminating branch if any
	Term  Terminator
	Addr  uint64 // address of the first instruction (set by Layout)
	Size  uint64 // encoded size in bytes (set by Layout)
	Index int    // position within Fn.Blocks

	// TraceJump marks a kernel trace point: the static code image ends
	// this block with an unconditional JMP, but the live kernel patches
	// it to NOPs while tracing is disabled, so execution falls through.
	// This reproduces the self-modifying-kernel issue of Section III.C:
	// LBR streams appear to "ignore" a branch present in the static
	// disassembly until the analyzer re-patches the static text from
	// the live image.
	TraceJump bool
}

// Len returns the number of instructions in the block — the feature that
// dominates the paper's learned EBS-vs-LBR rule.
func (b *Block) Len() int { return len(b.Ops) }

// End returns the first address past the block.
func (b *Block) End() uint64 { return b.Addr + b.Size }

// Contains reports whether addr falls inside the block's address range.
func (b *Block) Contains(addr uint64) bool { return addr >= b.Addr && addr < b.End() }

// LastAddr returns the address of the block's final instruction — the
// branch source recorded by the LBR when the terminator is taken.
func (b *Block) LastAddr() uint64 {
	if len(b.Ops) == 0 {
		return b.Addr
	}
	addr := b.Addr
	for _, op := range b.Ops[:len(b.Ops)-1] {
		addr += uint64(op.Bytes())
	}
	return addr
}

// InstAddrs returns the address of every instruction in the block.
func (b *Block) InstAddrs() []uint64 {
	addrs := make([]uint64, len(b.Ops))
	addr := b.Addr
	for i, op := range b.Ops {
		addrs[i] = addr
		addr += uint64(op.Bytes())
	}
	return addrs
}

// EffectiveOps returns the instructions the live machine retires when
// executing this block. For ordinary blocks this is Ops; for kernel
// trace points the trailing static JMP (2 bytes) is replaced by the two
// 1-byte NOPs the live kernel patches in.
func (b *Block) EffectiveOps() []isa.Op {
	if !b.TraceJump {
		return b.Ops
	}
	ops := make([]isa.Op, 0, len(b.Ops)+1)
	ops = append(ops, b.Ops[:len(b.Ops)-1]...)
	return append(ops, isa.NOP, isa.NOP)
}

// String identifies the block for diagnostics.
func (b *Block) String() string {
	return fmt.Sprintf("%s.bb%d@%#x[%d]", b.Fn.Name, b.Index, b.Addr, b.Len())
}

// Function is a named, contiguous sequence of basic blocks. Blocks[0] is
// the entry.
type Function struct {
	Name   string
	Mod    *Module
	Blocks []*Block
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Addr returns the function's entry address.
func (f *Function) Addr() uint64 { return f.Blocks[0].Addr }

// StaticLen returns the total static instruction count of the function.
func (f *Function) StaticLen() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.Len()
	}
	return n
}

// Module is a loadable unit: the main binary, a shared library, the
// kernel image, or a kernel module.
type Module struct {
	Name  string
	Ring  Ring
	Base  uint64 // load address (set by Layout)
	Code  []byte // encoded instruction bytes (set by Layout)
	Funcs []*Function
}

// Size returns the encoded size of the module in bytes.
func (m *Module) Size() uint64 { return uint64(len(m.Code)) }

// LiveText returns the module's code bytes as they appear in the live
// image: every trace-point JMP is overwritten with NOPs. For modules
// without trace points it returns Code unchanged. This is the image the
// paper's tool extracts from the running kernel to re-patch the static
// binary on disk.
func (m *Module) LiveText() []byte {
	patched := m.Code
	copied := false
	nop := isa.AppendEncode(nil, isa.NOP)[0]
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if !b.TraceJump {
				continue
			}
			if !copied {
				patched = append([]byte(nil), m.Code...)
				copied = true
			}
			off := b.LastAddr() - m.Base
			for i := 0; i < b.Ops[len(b.Ops)-1].Bytes(); i++ {
				patched[off+uint64(i)] = nop
			}
		}
	}
	return patched
}

// Program is a complete static program: one or more modules plus the
// block map used to resolve sampled IPs.
type Program struct {
	Name    string
	Modules []*Module

	blocks []*Block // all blocks, sorted by address after Layout
	byID   []*Block // dense ID -> block

	// The block map, built by Finish: ends holds each block's end
	// address in address order, and spans and lines index every
	// module's code by line (see seek).
	ends  []uint64
	spans []span
	lines []int32
}

// lineShift sets the block map's line size, 1<<lineShift bytes. A line
// records the first block that ends past its first byte, so a lookup
// scans forward over the blocks that end inside the line: on the
// short-block workloads that scan averages under two steps at 16-byte
// lines, and a line costs 4 bytes of index per 16 bytes of code.
const lineShift = 4

// span is one module's part of the block map: its code range
// [lo, hi) and the position of its first line in lines.
type span struct {
	lo, hi uint64
	line   int
}

// index builds the block map over the address-sorted blocks. Every
// byte of a module's code belongs to one of its blocks (layout packs
// them back to back), so the block a lookup inside a span lands on
// contains the address, and one outside every span has no block.
func (p *Program) index() {
	p.ends = make([]uint64, len(p.blocks))
	for i, b := range p.blocks {
		p.ends[i] = b.End()
	}
	mods := make([]*Module, 0, len(p.Modules))
	for _, m := range p.Modules {
		if m.Size() > 0 {
			mods = append(mods, m)
		}
	}
	// Spans are kept in address order; there are a handful of modules.
	for i := 1; i < len(mods); i++ {
		for j := i; j > 0 && mods[j-1].Base > mods[j].Base; j-- {
			mods[j-1], mods[j] = mods[j], mods[j-1]
		}
	}
	i := 0
	for _, m := range mods {
		s := span{lo: m.Base, hi: m.Base + m.Size(), line: len(p.lines)}
		for a := s.lo; a < s.hi; a += 1 << lineShift {
			for p.ends[i] <= a {
				i++
			}
			p.lines = append(p.lines, int32(i))
		}
		p.spans = append(p.spans, s)
	}
}

// seek returns the address-order index of the block containing addr,
// or -1 when addr lies outside every module: one line read, then a
// forward scan past the blocks that end at or before addr.
func (p *Program) seek(addr uint64) int {
	for _, s := range p.spans {
		if addr-s.lo < s.hi-s.lo {
			i := int(p.lines[s.line+int((addr-s.lo)>>lineShift)])
			for p.ends[i] <= addr {
				i++
			}
			return i
		}
	}
	return -1
}

// Blocks returns all blocks in address order.
func (p *Program) Blocks() []*Block { return p.blocks }

// NumBlocks returns the total number of basic blocks.
func (p *Program) NumBlocks() int { return len(p.byID) }

// BlockByID returns the block with the given dense ID.
func (p *Program) BlockByID(id int) *Block { return p.byID[id] }

// BlockAt returns the block containing addr, or nil when the address
// falls outside every block (e.g. inter-module padding).
func (p *Program) BlockAt(addr uint64) *Block {
	if i := p.seek(addr); i >= 0 {
		return p.blocks[i]
	}
	return nil
}

// BlocksBetween returns the blocks forming the straight-line execution
// path from the block starting at (or containing) from through the block
// containing to, inclusive. This resolves one LBR stream
// <Target[i-1], Source[i]>: between two taken branches the CPU executes
// sequentially through consecutive addresses, so the covered blocks are
// exactly the address-contiguous run. It returns nil when either address
// is unmapped or to precedes from.
func (p *Program) BlocksBetween(from, to uint64) []*Block {
	i, j := p.BlockRange(from, to)
	if i == j {
		return nil
	}
	return p.blocks[i:j]
}

// BlockRange is BlocksBetween as positions in Blocks(): the stream's
// blocks are Blocks()[i:j], and i == j when BlocksBetween returns nil.
// Each endpoint costs one block-map lookup (a line read and a short
// forward scan), with no pointer chase.
func (p *Program) BlockRange(from, to uint64) (i, j int) {
	if to < from {
		return 0, 0
	}
	i, j = p.seek(from), p.seek(to)
	if i < 0 || j < 0 {
		return 0, 0
	}
	return i, j + 1
}

// FuncByName looks a function up by name across all modules.
func (p *Program) FuncByName(name string) *Function {
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// ModuleByName looks a module up by name.
func (p *Program) ModuleByName(name string) *Module {
	for _, m := range p.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// TotalStaticInsts returns the static instruction count across modules.
func (p *Program) TotalStaticInsts() int {
	n := 0
	for _, b := range p.blocks {
		n += b.Len()
	}
	return n
}

// Validate checks structural invariants: every block has a valid
// terminator wiring, loop trips are positive, probabilities are in
// range, and all referenced blocks/functions belong to the program.
func (p *Program) Validate() error {
	ids := make(map[int]bool, len(p.byID))
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			if len(f.Blocks) == 0 {
				return fmt.Errorf("program %s: function %s has no blocks", p.Name, f.Name)
			}
			for _, b := range f.Blocks {
				if ids[b.ID] {
					return fmt.Errorf("block ID %d duplicated", b.ID)
				}
				ids[b.ID] = true
				if err := validateTerm(b); err != nil {
					return fmt.Errorf("program %s: %v", p.Name, err)
				}
				// Fallthrough successors must be address-adjacent:
				// execution between taken branches is sequential in
				// addresses, and the LBR stream walker relies on it.
				if next := b.Term.Next; next != nil && b.Size > 0 && next.Addr != b.End() {
					return fmt.Errorf("program %s: %s falls through to non-adjacent %s (%#x != %#x)",
						p.Name, b, next, next.Addr, b.End())
				}
			}
		}
	}
	return nil
}

func validateTerm(b *Block) error {
	t := b.Term
	switch t.Kind {
	case TermFallthrough:
		if t.Next == nil {
			return fmt.Errorf("%s: fallthrough without Next", b)
		}
	case TermJump:
		if t.Target == nil {
			return fmt.Errorf("%s: jump without Target", b)
		}
	case TermLoop:
		if t.Target == nil || t.Next == nil {
			return fmt.Errorf("%s: loop needs Target and Next", b)
		}
		if t.Trip < 1 {
			return fmt.Errorf("%s: loop trip %d < 1", b, t.Trip)
		}
		if t.Target.Addr > b.Addr && t.Target.ID > b.ID {
			return fmt.Errorf("%s: loop target must be a back-edge", b)
		}
	case TermCond:
		if t.Target == nil || t.Next == nil {
			return fmt.Errorf("%s: cond needs Target and Next", b)
		}
		if t.Prob < 0 || t.Prob > 1 {
			return fmt.Errorf("%s: cond probability %g out of range", b, t.Prob)
		}
	case TermCall:
		if t.Callee == nil || t.Next == nil {
			return fmt.Errorf("%s: call needs Callee and Next", b)
		}
	case TermReturn:
		// nothing to check
	default:
		return fmt.Errorf("%s: unknown terminator kind %d", b, t.Kind)
	}
	if t.Kind != TermFallthrough && len(b.Ops) > 0 {
		last := b.Ops[len(b.Ops)-1]
		if !last.IsBranch() && t.Kind != TermLoop && t.Kind != TermCond {
			return fmt.Errorf("%s: terminator %v but last op %v is not a branch", b, t.Kind, last)
		}
	}
	return nil
}
