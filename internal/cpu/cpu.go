// Package cpu executes programs and produces the retired-instruction
// stream the profiling stack observes.
//
// The paper measures real hardware; its accuracy story hinges on what
// the retirement stream looks like to the PMU (which instructions
// retire, which branches are taken, how long-latency operations delay
// interrupt delivery). This simulator reproduces that stream: it walks a
// program's basic blocks, resolves counted loops, probabilistic forward
// branches, calls (including ring transitions into kernel code) and
// returns, and hands every retired instruction to the registered
// listeners (ground-truth instrumentation, the PMU model, or both — in
// the same run, so that reference and measurement observe the identical
// execution, like a deterministic workload run twice in the paper).
//
// The stream is dispatched at block granularity: a BlockEvent describes
// the retirement of one whole basic block, with the per-instruction
// layout (addresses, opcodes, cached isa.Info, cycle offsets)
// precomputed once at Machine construction. Listeners that implement
// BlockListener consume blocks directly — the PMU model exploits this
// to retire a block in O(1) when no counter event falls inside it, and
// otherwise to jump straight to the instructions where counters
// overflow or PMIs land — while plain Listeners receive the identical
// per-instruction replay through an adapter, so both views observe the
// same execution.
package cpu

import (
	"context"
	"fmt"
	"math/rand"

	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// RetireEvent describes one retired instruction.
type RetireEvent struct {
	Addr   uint64         // instruction address
	Op     isa.Op         // retired opcode (live image: trace points retire NOPs)
	Block  *program.Block // enclosing basic block
	Ring   program.Ring   // privilege level
	Cycle  uint64         // retirement cycle
	Taken  bool           // instruction is a taken branch
	Target uint64         // branch target when Taken
}

// Listener consumes the retirement stream one instruction at a time.
type Listener interface {
	// Retire is called once per retired instruction, in program order.
	Retire(ev *RetireEvent)
}

// BlockEvent describes the retirement of one whole basic block: every
// instruction of the block retires in program order, and the final
// instruction carries the terminator's taken-branch outcome. The
// per-instruction views (Addrs, Ops, Infos, CycleSums) are the
// machine's per-block caches behind one pointer, shared across events
// and immutable for the run; listeners must not modify or retain them.
type BlockEvent struct {
	// info is the machine's whole per-block layout table, set once at
	// machine construction; idx selects the retired block. Identifying
	// the block by scalar index means the per-transition stores are all
	// pointer-free, so the retirement fast path runs with no write
	// barriers at all.
	info []blockInfo
	idx  int32
	// StartCycle is the machine cycle count when the block began
	// retiring.
	StartCycle uint64
	Taken      bool   // final instruction retired as a taken branch
	Target     uint64 // branch target when Taken, else 0
}

// inf returns the retired block's layout entry.
func (ev *BlockEvent) inf() *blockInfo { return &ev.info[ev.idx] }

// Block returns the retired block.
func (ev *BlockEvent) Block() *program.Block { return ev.inf().blk }

// BlockID returns the retired block's ID without touching the block
// itself — the O(1) identity listeners index per-block state with.
func (ev *BlockEvent) BlockID() int { return int(ev.idx) }

// Ring returns the privilege level the block retired at.
func (ev *BlockEvent) Ring() program.Ring { return ev.inf().ring }

// Len returns the number of instructions the event retires.
func (ev *BlockEvent) Len() int { return len(ev.inf().ops) }

// Addrs returns the per-instruction addresses.
func (ev *BlockEvent) Addrs() []uint64 { return ev.inf().addrs }

// Ops returns the retired opcodes (live image: trace points retire
// NOPs).
func (ev *BlockEvent) Ops() []isa.Op { return ev.inf().ops }

// Infos returns the cached static attributes, same indexing as Ops.
func (ev *BlockEvent) Infos() []isa.Info { return ev.inf().infos }

// CycleSums returns the cumulative latencies: CycleSums()[i] is the
// latency of Ops()[0..i], so instruction i retires at cycle
// StartCycle + CycleSums()[i].
func (ev *BlockEvent) CycleSums() []uint64 { return ev.inf().cycleSums }

// Cycle returns the retirement cycle of instruction i.
func (ev *BlockEvent) Cycle(i int) uint64 { return ev.StartCycle + ev.inf().cycleSums[i] }

// EachRetire replays the block as per-instruction retirement events,
// calling f once per instruction in program order with the cached
// static info — the single definition of how a block event flattens
// back into the per-instruction stream (only the final instruction
// carries the taken-branch outcome). scratch is the reused event
// storage; the info pointer aliases the immutable layout cache; f must
// retain neither.
func (ev *BlockEvent) EachRetire(scratch *RetireEvent, f func(*RetireEvent, *isa.Info)) {
	bi := ev.inf()
	scratch.Block, scratch.Ring = bi.blk, bi.ring
	last := len(bi.ops) - 1
	for i, op := range bi.ops {
		scratch.Addr = bi.addrs[i]
		scratch.Op = op
		scratch.Cycle = ev.StartCycle + bi.cycleSums[i]
		if i == last && ev.Taken {
			scratch.Taken, scratch.Target = true, ev.Target
		} else {
			scratch.Taken, scratch.Target = false, 0
		}
		f(scratch, &bi.infos[i])
	}
}

// BlockListener consumes the retirement stream at block granularity —
// the fast path. Implementations that need per-instruction detail read
// it from the event's cached layout; implementations that do not (the
// common case between PMU overflows) touch each block in O(1).
type BlockListener interface {
	// RetireBlock is called once per retired basic block, in program
	// order.
	RetireBlock(ev *BlockEvent)
}

// replayListener adapts a per-instruction Listener to the block stream
// by replaying every block event instruction by instruction — the exact
// Retire call sequence the listener observed before block granularity.
type replayListener struct {
	l  Listener
	ev RetireEvent
}

// RetireBlock implements BlockListener.
func (r *replayListener) RetireBlock(bev *BlockEvent) {
	bev.EachRetire(&r.ev, func(ev *RetireEvent, _ *isa.Info) { r.l.Retire(ev) })
}

// resolveListener picks the dispatch path for one listener: native
// block listeners are used directly unless perInstruction forces the
// per-instruction replay adapter (the reference path parity tests
// exercise).
func resolveListener(l Listener, perInstruction bool) BlockListener {
	if bl, ok := l.(BlockListener); ok && !perInstruction {
		return bl
	}
	return &replayListener{l: l}
}

// Stats summarises one run.
type Stats struct {
	Retired       uint64 // total retired instructions
	KernelRetired uint64 // retired in ring 0
	TakenBranches uint64 // retired taken branches
	Cycles        uint64 // serial cycle count (sum of latencies)
}

// Config parameterises a run.
type Config struct {
	// Seed drives the probabilistic forward branches. Two runs with the
	// same seed execute identical paths.
	Seed int64
	// Repeat is how many times the entry function is invoked.
	Repeat int
	// MaxRetired aborts the run after this many retirements as a guard
	// against miswired programs. Zero means no limit.
	MaxRetired uint64
	// PerInstruction forces every listener down the per-instruction
	// reference dispatch even when it implements BlockListener. Output
	// is identical either way — parity tests flip this flag to prove
	// the block fast path bit-exact against the reference path.
	PerInstruction bool
	// Ctx, when non-nil, cancels a run in flight: the machine polls it
	// every ctxCheckInterval blocks and aborts with an error wrapping
	// ctx.Err(). Cancellation never perturbs the execution it cuts
	// short — no RNG draw, no listener dispatch depends on it — so a
	// run that completes under a context is bit-identical to one
	// without.
	Ctx context.Context
	// Layout, when non-nil, supplies the precomputed dispatch table for
	// the program being run (see NewLayout), letting repeated runs skip
	// the per-machine derivation. A layout derived from a different
	// program is ignored and the machine derives its own.
	Layout *Layout
}

// ctxCheckInterval is how many retired blocks pass between context
// polls. Small enough to stop a runaway workload within microseconds,
// large enough to keep the check off the block fast path's profile.
const ctxCheckInterval = 1024

// blockInfo caches the per-block layout the hot loop needs, computed
// once per block: instruction addresses, the retired opcodes
// (effective ops — trace points retire NOPs), their static isa.Info,
// cumulative latencies, and the block's aggregate contribution to the
// run statistics.
type blockInfo struct {
	blk       *program.Block
	ring      program.Ring
	addrs     []uint64
	ops       []isa.Op
	infos     []isa.Info
	cycleSums []uint64 // cycleSums[i] = latency of ops[0..i]
	cycleSum  uint64   // total block latency
}

// Layout is the precomputed per-block dispatch table of one program
// image — everything the block fast path reads that depends only on
// the static code. Deriving it walks the whole image; a Layout is
// immutable afterwards and safe to share across any number of
// concurrent Machines of the same program, so callers that run one
// workload many times (the experiment harness, the workload registry's
// snapshotted images) pay the derivation and its allocations once
// instead of per run. Execution is bit-identical with or without a
// shared layout.
type Layout struct {
	prog *program.Program
	info []blockInfo
}

// NewLayout derives the dispatch table for p.
func NewLayout(p *program.Program) *Layout {
	l := &Layout{prog: p, info: make([]blockInfo, p.NumBlocks())}
	for _, b := range p.Blocks() {
		ops := b.EffectiveOps()
		bi := blockInfo{
			blk:       b,
			ring:      b.Fn.Mod.Ring,
			ops:       ops,
			addrs:     make([]uint64, len(ops)),
			infos:     make([]isa.Info, len(ops)),
			cycleSums: make([]uint64, len(ops)),
		}
		addr := b.Addr
		for i, op := range ops {
			info := op.Info()
			bi.infos[i] = info
			bi.addrs[i] = addr
			addr += uint64(info.Bytes)
			bi.cycleSum += uint64(info.Latency)
			bi.cycleSums[i] = bi.cycleSum
		}
		l.info[b.ID] = bi
	}
	return l
}

// Program returns the image the layout was derived from.
func (l *Layout) Program() *program.Program { return l.prog }

// Machine executes one program. It is not safe for concurrent use.
type Machine struct {
	prog      *program.Program
	cfg       Config
	rng       *rand.Rand
	listeners []BlockListener
	info      []blockInfo
	loopCount []int
	callStack []*program.Block
	stats     Stats
	bev       BlockEvent
	// ctxCountdown counts retired blocks down to the next poll of
	// cfg.Ctx; it starts at zero so an already-cancelled context stops
	// the run before the first block retires.
	ctxCountdown int
}

// New prepares a machine for the given program.
func New(p *program.Program, cfg Config, listeners ...Listener) *Machine {
	if cfg.Repeat <= 0 {
		cfg.Repeat = 1
	}
	layout := cfg.Layout
	if layout == nil || layout.prog != p {
		layout = NewLayout(p)
	}
	m := &Machine{
		prog:      p,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		info:      layout.info,
		loopCount: make([]int, p.NumBlocks()),
	}
	m.bev.info = layout.info
	for _, l := range listeners {
		m.listeners = append(m.listeners, resolveListener(l, cfg.PerInstruction))
	}
	return m
}

// Run invokes the entry function cfg.Repeat times and returns run
// statistics. Every listener sees the full retirement stream.
func (m *Machine) Run(entry *program.Function) (Stats, error) {
	for i := 0; i < m.cfg.Repeat; i++ {
		if err := m.runOnce(entry); err != nil {
			return m.stats, err
		}
	}
	return m.stats, nil
}

// ErrRetireLimit is returned when MaxRetired is exceeded.
var ErrRetireLimit = fmt.Errorf("cpu: retirement limit exceeded")

func (m *Machine) runOnce(entry *program.Function) error {
	cur := entry.Entry()
	m.callStack = m.callStack[:0]
	for cur != nil {
		if m.cfg.Ctx != nil {
			if m.ctxCountdown--; m.ctxCountdown < 0 {
				m.ctxCountdown = ctxCheckInterval
				if err := m.cfg.Ctx.Err(); err != nil {
					return fmt.Errorf("cpu: running %s: %w", m.prog.Name, err)
				}
			}
		}
		if m.cfg.MaxRetired > 0 && m.stats.Retired > m.cfg.MaxRetired {
			return fmt.Errorf("%w: %d instructions (check loop wiring in %s)",
				ErrRetireLimit, m.stats.Retired, m.prog.Name)
		}
		next, err := m.execBlock(cur)
		if err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// execBlock retires all instructions of blk as one block event,
// resolves its terminator and returns the next block (nil when the
// outermost function returned).
func (m *Machine) execBlock(blk *program.Block) (*program.Block, error) {
	bi := &m.info[blk.ID]
	ring := bi.ring

	// Resolve the terminator first so the final instruction can carry
	// its taken-branch flag.
	var (
		next   *program.Block
		taken  bool
		target uint64
	)
	t := &blk.Term
	switch t.Kind {
	case program.TermFallthrough:
		next = t.Next
	case program.TermJump:
		next, taken, target = t.Target, true, t.Target.Addr
	case program.TermLoop:
		m.loopCount[blk.ID]++
		if m.loopCount[blk.ID] < t.Trip {
			next, taken, target = t.Target, true, t.Target.Addr
		} else {
			m.loopCount[blk.ID] = 0
			next = t.Next
		}
	case program.TermCond:
		if m.rng.Float64() < t.Prob {
			next, taken, target = t.Target, true, t.Target.Addr
		} else {
			next = t.Next
		}
	case program.TermCall:
		m.callStack = append(m.callStack, t.Next)
		next, taken, target = t.Callee.Entry(), true, t.Callee.Addr()
	case program.TermReturn:
		if n := len(m.callStack); n > 0 {
			next = m.callStack[n-1]
			m.callStack = m.callStack[:n-1]
			target = next.Addr
		}
		taken = true
	default:
		return nil, fmt.Errorf("cpu: block %s: unknown terminator %v", blk, t.Kind)
	}

	n := uint64(len(bi.ops))
	if n == 0 {
		// An empty block retires nothing — in particular no branch
		// instruction, so a taken terminator leaves no trace.
		return next, nil
	}
	start := m.stats.Cycles
	m.stats.Retired += n
	m.stats.Cycles += bi.cycleSum
	if ring == program.RingKernel {
		m.stats.KernelRetired += n
	}
	if taken {
		m.stats.TakenBranches++
	}

	bev := &m.bev
	bev.idx = int32(blk.ID)
	bev.StartCycle = start
	bev.Taken, bev.Target = taken, target
	for _, l := range m.listeners {
		l.RetireBlock(bev)
	}
	return next, nil
}

// Run is a convenience wrapper constructing a Machine and running it.
func Run(p *program.Program, entry *program.Function, cfg Config, listeners ...Listener) (Stats, error) {
	return New(p, cfg, listeners...).Run(entry)
}

// CountingListener counts exact per-block executions — the ground-truth
// BBEC oracle used to label training data and score estimators. Unlike
// the SDE model in internal/sde it sees all rings; it exists for tests
// and calibration rather than as a paper artefact.
type CountingListener struct {
	Exec []uint64 // per block ID, incremented once per block entry
}

// NewCountingListener sizes the counter array for program p.
func NewCountingListener(p *program.Program) *CountingListener {
	return &CountingListener{Exec: make([]uint64, p.NumBlocks())}
}

// RetireBlock implements BlockListener — one increment per block entry.
func (c *CountingListener) RetireBlock(ev *BlockEvent) {
	c.Exec[ev.BlockID()]++
}

// Retire implements Listener, the per-instruction reference path.
func (c *CountingListener) Retire(ev *RetireEvent) {
	if ev.Addr == ev.Block.Addr {
		c.Exec[ev.Block.ID]++
	}
}

var (
	_ Listener      = (*CountingListener)(nil)
	_ BlockListener = (*CountingListener)(nil)
)
