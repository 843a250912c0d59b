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
// the retirement of one whole basic block. The machine walks a flat
// dispatch table (Layout) compiled once per program — successors as
// block indices, per-block totals, and the per-instruction layout
// (addresses, opcodes, cached isa.Info, cycle offsets). The machine owns
// the dispatch state every observer needs (State): the instruction and
// taken-branch clocks, a per-block execution tally and a ring of recent
// taken branches. A BoundListener binds to that state once and is
// called only for the blocks that reach one of its published deadlines
// — the PMU model between two counter events costs nothing — while
// plain Listeners receive every block as the identical per-instruction
// replay through an adapter. When every listener is bound, the machine
// also retires whole iterations of branch-free loops in one step, as
// many as fit before the nearest deadline.
package cpu

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

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
	// table and lay are the machine's dispatch table and the layout
	// holding it, set once at machine construction; idx selects the
	// retired block. Identifying the block by scalar index means the
	// per-transition stores are all pointer-free, so the retirement
	// fast path runs with no write barriers at all.
	table []entry
	lay   *Layout
	idx   int32
	// StartCycle is the machine cycle count when the block began
	// retiring.
	StartCycle uint64
	Taken      bool   // final instruction retired as a taken branch
	Target     uint64 // branch target when Taken, else 0
}

// span returns the retired block's range in the layout's
// per-instruction arrays.
func (ev *BlockEvent) span() (from, to int) {
	e := &ev.table[ev.idx]
	return int(e.first), int(e.first + e.n)
}

// Block returns the retired block.
func (ev *BlockEvent) Block() *program.Block { return ev.lay.prog.BlockByID(int(ev.idx)) }

// Ring returns the privilege level the block retired at.
func (ev *BlockEvent) Ring() program.Ring { return ev.table[ev.idx].ring }

// Len returns the number of instructions the event retires.
func (ev *BlockEvent) Len() int { return int(ev.table[ev.idx].n) }

// LastAddr returns the address of the block's final instruction — the
// source the LBR records when the terminator is taken.
func (ev *BlockEvent) LastAddr() uint64 { return ev.table[ev.idx].lastAddr }

// Addrs returns the per-instruction addresses.
func (ev *BlockEvent) Addrs() []uint64 {
	from, to := ev.span()
	return ev.lay.addrs[from:to:to]
}

// Ops returns the retired opcodes (live image: trace points retire
// NOPs).
func (ev *BlockEvent) Ops() []isa.Op {
	from, to := ev.span()
	return ev.lay.ops[from:to:to]
}

// Infos returns the cached static attributes, same indexing as Ops.
func (ev *BlockEvent) Infos() []isa.Info {
	from, to := ev.span()
	return ev.lay.infos[from:to:to]
}

// CycleSums returns the cumulative latencies: CycleSums()[i] is the
// latency of Ops()[0..i], so instruction i retires at cycle
// StartCycle + CycleSums()[i].
func (ev *BlockEvent) CycleSums() []uint64 {
	from, to := ev.span()
	return ev.lay.cycleSums[from:to:to]
}

// Cycle returns the retirement cycle of instruction i.
func (ev *BlockEvent) Cycle(i int) uint64 { return ev.StartCycle + ev.CycleSums()[i] }

// EachRetire replays the block as per-instruction retirement events,
// calling f once per instruction in program order with the cached
// static info — the single definition of how a block event flattens
// back into the per-instruction stream (only the final instruction
// carries the taken-branch outcome). scratch is the reused event
// storage; the info pointer aliases the immutable layout cache; f must
// retain neither.
func (ev *BlockEvent) EachRetire(scratch *RetireEvent, f func(*RetireEvent, *isa.Info)) {
	l := ev.lay
	from, to := ev.span()
	scratch.Block, scratch.Ring = ev.Block(), ev.Ring()
	for i := from; i < to; i++ {
		scratch.Addr = l.addrs[i]
		scratch.Op = l.ops[i]
		scratch.Cycle = ev.StartCycle + l.cycleSums[i]
		if i == to-1 && ev.Taken {
			scratch.Taken, scratch.Target = true, ev.Target
		} else {
			scratch.Taken, scratch.Target = false, 0
		}
		f(scratch, &l.infos[i])
	}
}

// BlockListener consumes the retirement stream at block granularity.
// Implementations that need per-instruction detail read it from the
// event's cached layout. A BlockListener that is not a BoundListener
// is called for every block and keeps loop fast-forward off.
type BlockListener interface {
	// RetireBlock is called once per retired basic block, in program
	// order.
	RetireBlock(ev *BlockEvent)
}

// Deadline is where a bound listener next has work, as absolute values
// of the two clocks: the machine calls the listener's RetireBlock for
// the first block whose retirement brings Stats.Retired to Instr or
// beyond, or whose taken branch brings Stats.TakenBranches to Branch or
// beyond. NoDeadline never arrives.
type Deadline struct {
	Instr, Branch uint64
}

// NoDeadline is the deadline of a listener that never has work.
var NoDeadline = Deadline{Instr: ^uint64(0), Branch: ^uint64(0)}

// BoundListener is a BlockListener that reads the machine's State
// instead of observing every block. Its RetireBlock is called only for
// the blocks that reach its deadline, after the machine has applied the
// block to the State; the deadline must lie past the clocks when
// RetireBlock returns.
type BoundListener interface {
	BlockListener
	// Bind is called once, when the machine is constructed, with the
	// state the listener reads for the rest of its runs. It returns how
	// many recent taken branches the listener reads from
	// State.History, or 0 for none.
	Bind(s *State) (history int)
	// Deadline returns the listener's next deadline. The machine reads
	// it after Bind and after every RetireBlock call.
	Deadline() Deadline
}

// State is the dispatch state a Machine owns and its bound listeners
// read: the run statistics, whose Retired and TakenBranches are the
// instruction and taken-branch clocks, the per-block execution tally
// and the ring of recent taken branches. Only the machine writes it.
type State struct {
	Stats
	// Exec counts each block's executions, by block ID. Blocks that
	// retire no instruction are never counted. It is nil when no
	// listener is bound.
	Exec []uint64
	// History holds the most recent taken branches, as many as the
	// deepest bound listener asked for; nil when none asked.
	History *BranchRing
	// Skipped counts the loop iterations retired in bulk steps.
	Skipped uint64
	// Layout is the dispatch table of the program being run.
	Layout *Layout
}

// BranchRing keeps the most recent taken branches, overwriting the
// oldest.
type BranchRing struct {
	buf   []Branch
	head  int // next write position
	count int // total records ever written
}

// NewBranchRing returns an empty ring holding depth records.
func NewBranchRing(depth int) *BranchRing {
	return &BranchRing{buf: make([]Branch, depth)}
}

// Push records a retired taken branch. The wrap is a compare instead of
// a modulo — Push sits on the per-taken-branch hot path.
func (r *BranchRing) Push(b Branch) {
	r.buf[r.head] = b
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.count++
}

// PushRepeated records reps repetitions of the taken-branch sequence
// pattern, exactly as that many Push calls would leave the ring: only
// the newest len(buf) records are written, and the ring advances as if
// every record had been pushed.
func (r *BranchRing) PushRepeated(pattern []Branch, reps uint64) {
	k := uint64(len(pattern))
	total := k * reps
	if total == 0 {
		return
	}
	size := uint64(len(r.buf))
	skip := uint64(0)
	if total > size {
		skip = total - size
	}
	// Record i of the sequence is pattern[i%k] and lands at
	// (head+i) % size; start at the first record that survives.
	pos := int((uint64(r.head) + skip) % size)
	j := int(skip % k)
	for i := skip; i < total; i++ {
		r.buf[pos] = pattern[j]
		if pos++; pos == len(r.buf) {
			pos = 0
		}
		if j++; j == len(pattern) {
			j = 0
		}
	}
	r.head = pos
	r.count += int(total)
}

// At returns the record age positions back from the newest (age 0 =
// newest). The caller must ensure age < Len(). A PMI reads the ring up
// to twice its depth, so the wrap is one conditional add, not a
// modulo: with head < len(buf) and age < Len() <= len(buf), the index
// head-1-age lies in [-len(buf), len(buf)).
func (r *BranchRing) At(age int) Branch {
	idx := r.head - 1 - age
	if idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx]
}

// Len returns how many records can be read back.
func (r *BranchRing) Len() int { return min(r.count, len(r.buf)) }

// Branch is one retired taken branch: its source instruction and its
// target.
type Branch struct {
	From, To uint64
}

// loop is a loop whose every iteration retires the same block
// sequence: from the head, each block ends in a fallthrough or a jump
// until the latch, whose taken back-edge returns to the head. Loop
// records live in the Layout's flat tables and are immutable; their
// slices alias layout storage and must not be modified.
type loop struct {
	body     []int32  // retiring body block IDs in order, latch last
	branches []Branch // the taken branches of one iteration, in order
	insts    uint64   // instructions per iteration
	kernel   uint64   // ring-0 instructions per iteration
	taken    uint64   // taken branches per iteration (len(branches))
	cycles   uint64   // latency of one iteration
}

// Body returns the IDs of the blocks one iteration retires, in order,
// ending at the latch. Blocks that retire no instructions are left out.
func (l *loop) Body() []int32 { return l.body }

// Branches returns the taken branches one iteration retires, in
// retirement order; the latch's back-edge is the last.
func (l *loop) Branches() []Branch { return l.branches }

// Insts returns the instructions one iteration retires.
func (l *loop) Insts() uint64 { return l.insts }

// Taken returns the taken branches one iteration retires.
func (l *loop) Taken() uint64 { return l.taken }

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

// entry is one block's row of the flat dispatch table: everything the
// run loop reads to retire the block and pick its successor, with
// successors as block indices instead of pointers. It is 64 bytes, one
// cache line, so retiring a block touches one line of the table. A
// taken branch's target address is the successor's addr, so it is not
// stored twice.
type entry struct {
	kind     program.TermKind
	ring     program.Ring
	n        int32   // instructions retired
	next     int32   // fallthrough or return-to successor; -1 for none
	target   int32   // taken successor (callee entry for calls); -1 for none
	loop     int32   // index into Layout.loops when the block latches a fast-forwardable loop, else -1
	first    int32   // index of the block's first instruction in the per-instruction arrays
	trip     int     // TermLoop iterations per activation
	prob     float64 // TermCond taken probability
	cycles   uint64  // total block latency
	addr     uint64  // first instruction address (a taken branch's target)
	lastAddr uint64  // final instruction address (a taken branch's source)
}

// Layout is the precomputed dispatch table of one program image —
// everything the run loop reads that depends only on the static code:
// one flat entry per block, the per-instruction caches listeners read
// (every block's instructions back to back), and the
// fast-forwardable loops. Deriving it walks the whole image; a
// Layout is immutable afterwards and safe to share across any number
// of concurrent Machines of the same program, so callers that run one
// workload many times (the experiment harness, the workload registry's
// compiled images) pay the derivation and its allocations once
// instead of per run. Execution is bit-identical with or without a
// shared layout.
type Layout struct {
	prog  *program.Program
	table []entry
	// The per-instruction caches: addresses, the retired opcodes
	// (effective ops — trace points retire NOPs), their static
	// isa.Info, and cumulative latencies within the block
	// (cycleSums[first+i] = latency of the block's ops[0..i]).
	addrs     []uint64
	ops       []isa.Op
	infos     []isa.Info
	cycleSums []uint64
	loops     []loop
	// body and branches back every loop's slices: the loop tables are
	// two flat arrays plus one fixed-size record per loop.
	body     []int32
	branches []Branch
}

// NewLayout derives the dispatch table for p.
func NewLayout(p *program.Program) *Layout {
	blocks := p.Blocks()
	effective := make([][]isa.Op, len(blocks))
	total := 0
	for i, b := range blocks {
		effective[i] = b.EffectiveOps()
		total += len(effective[i])
	}
	l := &Layout{
		prog:      p,
		table:     make([]entry, p.NumBlocks()),
		addrs:     make([]uint64, total),
		ops:       make([]isa.Op, total),
		infos:     make([]isa.Info, total),
		cycleSums: make([]uint64, total),
	}
	index := func(b *program.Block) int32 {
		if b == nil {
			return -1
		}
		return int32(b.ID)
	}
	first := 0
	for k, b := range blocks {
		ops := effective[k]
		t := &b.Term
		e := entry{
			kind:     t.Kind,
			ring:     b.Fn.Mod.Ring,
			n:        int32(len(ops)),
			next:     index(t.Next),
			target:   index(t.Target),
			loop:     -1,
			first:    int32(first),
			trip:     t.Trip,
			prob:     t.Prob,
			addr:     b.Addr,
			lastAddr: b.LastAddr(),
		}
		if t.Kind == program.TermCall {
			e.target = int32(t.Callee.Entry().ID)
		}
		addr := b.Addr
		for i, op := range ops {
			info := op.Info()
			l.ops[first+i] = op
			l.infos[first+i] = info
			l.addrs[first+i] = addr
			addr += uint64(info.Bytes)
			e.cycles += uint64(info.Latency)
			l.cycleSums[first+i] = e.cycles
		}
		l.table[b.ID] = e
		first += len(ops)
	}
	l.findLoops()
	return l
}

// findLoops records every latch whose loop can be fast-forwarded: a
// TermLoop block with a trip above one whose body — the blocks from
// its head up to the latch — ends every block in a fallthrough or a
// jump. Such a body makes no RNG draw, no call and no nested loop
// step, so every iteration retires the same block sequence and one
// iteration's totals describe them all.
func (l *Layout) findLoops() {
	type span struct{ body, branches int }
	var spans []span
	for latch := range l.table {
		if l.table[latch].kind != program.TermLoop || l.table[latch].trip < 2 {
			continue
		}
		sp := span{len(l.body), len(l.branches)}
		var lp loop
		ok := false
		// A deterministic walk that has not reached the latch after
		// visiting every block is cycling without it.
		for id, steps := l.table[latch].target, 0; id >= 0 && steps < len(l.table); steps++ {
			e := &l.table[id]
			if e.n > 0 {
				l.body = append(l.body, id)
				lp.insts += uint64(e.n)
				lp.cycles += e.cycles
				if e.ring == program.RingKernel {
					lp.kernel += uint64(e.n)
				}
				if int(id) == latch || e.kind == program.TermJump {
					l.branches = append(l.branches, Branch{From: e.lastAddr, To: l.table[e.target].addr})
				}
			}
			if int(id) == latch {
				ok = true
				break
			}
			switch e.kind {
			case program.TermFallthrough:
				id = e.next
			case program.TermJump:
				id = e.target
			default:
				id = -1
			}
		}
		if !ok {
			l.body, l.branches = l.body[:sp.body], l.branches[:sp.branches]
			continue
		}
		l.table[latch].loop = int32(len(l.loops))
		l.loops = append(l.loops, lp)
		spans = append(spans, sp)
	}
	// The flat arrays are final only now: trim their growth slack and
	// slice them into the records.
	l.body, l.branches = slices.Clone(l.body), slices.Clone(l.branches)
	spans = append(spans, span{len(l.body), len(l.branches)})
	for i := range l.loops {
		lp, from, to := &l.loops[i], spans[i], spans[i+1]
		lp.body = l.body[from.body:to.body:to.body]
		lp.branches = l.branches[from.branches:to.branches:to.branches]
		lp.taken = uint64(len(lp.branches))
	}
}

// Program returns the image the layout was derived from.
func (l *Layout) Program() *program.Program { return l.prog }

// Infos returns the cached static attributes of the instructions the
// block with the given ID retires, in order. The slice aliases the
// immutable layout cache.
func (l *Layout) Infos(id int) []isa.Info {
	e := &l.table[id]
	return l.infos[e.first : e.first+e.n : e.first+e.n]
}

// Machine executes one program. It is not safe for concurrent use.
type Machine struct {
	prog *program.Program
	cfg  Config
	rng  *rand.Rand
	// listeners are called on every block; bound listeners only at
	// their deadlines, the nearest of which is next. Loop iterations
	// retire in bulk only when every listener is bound.
	listeners []BlockListener
	bound     []BoundListener
	next      Deadline
	table     []entry
	loops     []loop
	loopCount []int
	callStack []int32
	st        State
	bev       BlockEvent
	// ctxCountdown counts retired blocks down to the next poll of
	// cfg.Ctx; it starts at zero so an already-cancelled context stops
	// the run before the first block retires.
	ctxCountdown int
}

// New prepares a machine for the given program. Listeners that are
// BoundListeners bind to the machine's state here, unless
// cfg.PerInstruction sends every listener down the reference dispatch.
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
		table:     layout.table,
		loops:     layout.loops,
		loopCount: make([]int, p.NumBlocks()),
		st:        State{Layout: layout},
	}
	m.bev.table, m.bev.lay = layout.table, layout
	for _, l := range listeners {
		if bl, ok := l.(BoundListener); ok && !cfg.PerInstruction {
			m.bound = append(m.bound, bl)
		} else {
			m.listeners = append(m.listeners, resolveListener(l, cfg.PerInstruction))
		}
	}
	if len(m.bound) > 0 {
		m.st.Exec = make([]uint64, p.NumBlocks())
	}
	history := 0
	for _, bl := range m.bound {
		history = max(history, bl.Bind(&m.st))
	}
	if history > 0 {
		m.st.History = NewBranchRing(history)
	}
	m.schedule(nil)
	return m
}

// schedule calls the bound listeners whose deadline the block bev has
// reached (none when bev is nil) and recomputes the nearest deadline.
func (m *Machine) schedule(bev *BlockEvent) {
	next := NoDeadline
	for _, l := range m.bound {
		d := l.Deadline()
		if bev != nil && m.st.reached(d, bev.Taken) {
			l.RetireBlock(bev)
			d = l.Deadline()
		}
		next.Instr, next.Branch = min(next.Instr, d.Instr), min(next.Branch, d.Branch)
	}
	m.next = next
}

// reached reports whether the block just applied to s, taken or not,
// brought a clock to d.
func (s *State) reached(d Deadline, taken bool) bool {
	return s.Retired >= d.Instr || taken && s.TakenBranches >= d.Branch
}

// Run invokes the entry function cfg.Repeat times and returns run
// statistics. Every listener sees the full retirement stream.
func (m *Machine) Run(entry *program.Function) (Stats, error) {
	for i := 0; i < m.cfg.Repeat; i++ {
		if err := m.runOnce(entry); err != nil {
			return m.st.Stats, err
		}
	}
	return m.st.Stats, nil
}

// ErrRetireLimit is returned when MaxRetired is exceeded.
var ErrRetireLimit = fmt.Errorf("cpu: retirement limit exceeded")

// runOnce runs entry once. It walks the dispatch table by block index:
// each step resolves the block's terminator, applies the block to the
// state, dispatches it to the listeners due for it and, after a
// fast-forwardable latch's taken back-edge, retires as many further
// whole iterations as fit before the nearest deadline in one step.
func (m *Machine) runOnce(entry *program.Function) error {
	table, loopCount, bev, st := m.table, m.loopCount, &m.bev, &m.st
	fastForward := len(m.listeners) == 0
	limit := m.cfg.MaxRetired
	if limit == 0 {
		limit = ^uint64(0)
	}
	m.callStack = m.callStack[:0]
	for cur := int32(entry.Entry().ID); cur >= 0; {
		if m.cfg.Ctx != nil {
			if m.ctxCountdown--; m.ctxCountdown < 0 {
				m.ctxCountdown = ctxCheckInterval
				if err := m.cfg.Ctx.Err(); err != nil {
					return fmt.Errorf("cpu: running %s: %w", m.prog.Name, err)
				}
			}
		}
		if st.Retired > limit {
			return fmt.Errorf("%w: %d instructions (check loop wiring in %s)",
				ErrRetireLimit, st.Retired, m.prog.Name)
		}

		// Resolve the terminator first so the final instruction can
		// carry its taken-branch flag.
		e := &table[cur]
		next, taken, skip := e.next, false, false
		switch e.kind {
		case program.TermFallthrough:
		case program.TermJump:
			next, taken = e.target, true
		case program.TermLoop:
			if loopCount[cur]++; loopCount[cur] < e.trip {
				next, taken = e.target, true
				// Whole iterations are left to skip until the
				// activation's last two.
				skip = e.loop >= 0 && loopCount[cur] < e.trip-1 && fastForward
			} else {
				loopCount[cur] = 0
			}
		case program.TermCond:
			if m.rng.Float64() < e.prob {
				next, taken = e.target, true
			}
		case program.TermCall:
			m.callStack = append(m.callStack, e.next)
			next, taken = e.target, true
		case program.TermReturn:
			next, taken = -1, true
			if n := len(m.callStack); n > 0 {
				next = m.callStack[n-1]
				m.callStack = m.callStack[:n-1]
			}
		default:
			return fmt.Errorf("cpu: block %s: unknown terminator %v", m.prog.BlockByID(int(cur)), e.kind)
		}

		if e.n == 0 {
			// An empty block retires nothing — in particular no branch
			// instruction, so a taken terminator leaves no trace.
			cur = next
			continue
		}
		var target uint64
		if taken && next >= 0 {
			// The successor's row is the next one this loop reads, so
			// this load costs no extra cache line.
			target = table[next].addr
		}
		n := uint64(e.n)
		bev.idx = cur
		bev.StartCycle = st.Cycles
		bev.Taken, bev.Target = taken, target
		st.Retired += n
		st.Cycles += e.cycles
		if e.ring == program.RingKernel {
			st.KernelRetired += n
		}
		if taken {
			st.TakenBranches++
		}
		for _, l := range m.listeners {
			l.RetireBlock(bev)
		}
		// The tally exists only when some listener is bound, so a run
		// without one pays a single test here.
		if st.Exec != nil {
			st.Exec[cur]++
			if taken && st.History != nil {
				st.History.Push(Branch{From: e.lastAddr, To: target})
			}
			if st.reached(m.next, taken) {
				m.schedule(bev)
			}
		}
		if skip {
			m.skipIterations(cur, e)
		}
		cur = next
	}
	return nil
}

// skipIterations retires, in one step, whole iterations of the loop
// latched by block latch, which has just taken its back-edge: as many
// as remain before the activation's final iteration, fit before the
// nearest deadline and fit under MaxRetired. The caps keep every
// deadline and the limit out of a bulk step, so listeners are called,
// and ErrRetireLimit fires, at the same block boundaries and counts as
// block by block.
func (m *Machine) skipIterations(latch int32, e *entry) {
	lp, st := &m.loops[e.loop], &m.st
	n := uint64(e.trip - 1 - m.loopCount[latch]) // at least 1
	if limit := m.cfg.MaxRetired; limit > 0 {
		if st.Retired >= limit {
			return
		}
		n = min(n, (limit-st.Retired)/lp.insts)
	}
	// Divide only when a deadline does cap n: most bulk steps end at
	// the activation's trip, far before any deadline.
	if room := m.next.Instr - st.Retired - 1; n*lp.insts > room {
		n = room / lp.insts
	}
	if room := m.next.Branch - st.TakenBranches - 1; n*lp.taken > room {
		n = room / lp.taken
	}
	if n == 0 {
		return
	}
	st.Retired += n * lp.insts
	st.KernelRetired += n * lp.kernel
	st.TakenBranches += n * lp.taken
	st.Cycles += n * lp.cycles
	st.Skipped += n
	if st.Exec != nil {
		for _, id := range lp.body {
			st.Exec[id] += n
		}
	}
	if st.History != nil {
		st.History.PushRepeated(lp.branches, n)
	}
	m.loopCount[latch] += int(n)
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
	// Exec counts executions per block ID. Bound to a machine, it is
	// that machine's tally.
	Exec []uint64
}

// NewCountingListener sizes the counter array for program p.
func NewCountingListener(p *program.Program) *CountingListener {
	return &CountingListener{Exec: make([]uint64, p.NumBlocks())}
}

// Bind implements BoundListener: Exec becomes the machine's tally.
func (c *CountingListener) Bind(s *State) int {
	c.Exec = s.Exec
	return 0
}

// Deadline implements BoundListener: counting has no events.
func (c *CountingListener) Deadline() Deadline { return NoDeadline }

// RetireBlock implements BlockListener. It is never called: the
// listener has no deadline.
func (c *CountingListener) RetireBlock(*BlockEvent) {}

// Retire implements Listener, the per-instruction reference path.
func (c *CountingListener) Retire(ev *RetireEvent) {
	if ev.Addr == ev.Block.Addr {
		c.Exec[ev.Block.ID]++
	}
}

var (
	_ Listener      = (*CountingListener)(nil)
	_ BoundListener = (*CountingListener)(nil)
)
