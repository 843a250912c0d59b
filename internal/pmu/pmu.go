package pmu

import (
	"fmt"
	"math/rand"

	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// Sample is one PMI delivery. Both sampling events capture everything
// the hardware offers — the eventing IP and the LBR stack — mirroring
// the paper's collector, which runs both counters in LBR mode and lets
// the analysis phase discard the half it does not need per event.
type Sample struct {
	Event Event  // triggering event
	IP    uint64 // eventing IP (skid/shadowing applied)
	// Stack is the LBR snapshot, entry[0] oldest; nil if unavailable.
	// It lives in a buffer the PMU reuses across deliveries and is
	// only valid for the duration of the handler call — handlers that
	// retain stack data must copy it (the same contract collection
	// sinks already have).
	Stack []BranchRecord
	Ring  program.Ring // ring at delivery
	Cycle uint64       // cycle at delivery
}

// Sampling programs one counter for event-based sampling.
type Sampling struct {
	Event   Event
	Period  uint64
	Handler func(Sample)
}

// Config calibrates the PMU pathologies. The magnitudes are chosen so
// that EBS accuracy degrades like skid/blockLength (bad on short blocks)
// while LBR accuracy is roughly length-independent but suffers on blocks
// whose branches are bias-prone — the landscape in which the paper's
// "length cutoff near 18" rule is optimal.
type Config struct {
	Seed int64

	// LBRDepth is the architectural stack depth (16 on Ivy Bridge).
	LBRDepth int
	// HistoryDepth is how much branch history the model retains so the
	// bias anomaly can deliver stale windows. Must be >= 2*LBRDepth.
	HistoryDepth int

	// SkidPreciseMin/Max bound the uniform base skid, in retired
	// instructions, for precise events. Non-precise events use
	// SkidMin/Max. Even PREC_DIST skids: "even precise variants are
	// affected by these undesirable phenomena, although to a lesser
	// extent".
	SkidPreciseMin, SkidPreciseMax int
	SkidMin, SkidMax               int

	// Shadowing, when true, prevents samples from landing on
	// long-latency instructions; the pending PMI slides to the next
	// instruction after them, piling samples up behind DIV/SQRT-class
	// operations.
	Shadowing bool

	// BiasStrength is the probability that a snapshot containing a
	// bias-prone branch is read starting at that branch, pinning it to
	// entry[0] of a truncated stack (the Section III.C anomaly).
	BiasStrength float64
	// BiasProne classifies branch source addresses as prone to the
	// entry[0] anomaly. Nil disables the anomaly.
	BiasProne func(addr uint64) bool

	// BranchSkidMax bounds the uniform delivery skid of the branch
	// counter, in retired taken branches.
	BranchSkidMax int

	// EntryDropProb is the probability that a delivered LBR snapshot is
	// missing one interior entry (speculation/interrupt interference in
	// real hardware — see Weaver's non-determinism studies). The two
	// streams adjacent to the dropped entry merge into one spurious
	// stream spanning code that did not execute straight-line, which
	// over-credits the blocks in between. Blocks covering more address
	// space intersect more such spans, so this noise grows mildly with
	// block length — part of why the paper finds EBS preferable on long
	// blocks.
	EntryDropProb float64
}

// DefaultConfig returns the calibrated Ivy Bridge-like model used across
// the evaluation.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		LBRDepth:       16,
		HistoryDepth:   64,
		SkidPreciseMin: 1,
		SkidPreciseMax: 4,
		SkidMin:        4,
		SkidMax:        12,
		Shadowing:      true,
		BiasStrength:   0.5,
		BiasProne:      DefaultBiasProne,
		BranchSkidMax:  2,
		EntryDropProb:  0.15,
	}
}

// DefaultBiasProne marks roughly 1 in 32 branch sites as bias-prone,
// deterministically by address, matching the paper's observation that
// the anomaly is tied to particular branches.
func DefaultBiasProne(addr uint64) bool {
	h := addr
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%32 == 0
}

// eventClass partitions sampling events by what makes their counter
// tick: the retirement counters tick per instruction, the branch
// counter on the dynamic taken outcome, and every other event never
// triggers a sampling counter. Classifying once at programming time
// gives every class one occurrence clock that all its counters share.
type eventClass uint8

const (
	classNone   eventClass = iota // never triggers a sampling counter
	classInstr                    // ticks once per retired instruction
	classBranch                   // ticks once per retired taken branch
	numClasses
)

// classify maps a sampling event to its counter class.
func classify(e Event) eventClass {
	switch e {
	case InstRetired, InstRetiredPrecDist:
		return classInstr
	case BrInstRetiredNearTaken:
		return classBranch
	}
	return classNone
}

// counterState is one programmed sampling counter. Its count lives in
// its class clock: the counter's value is clk[class] - base and its
// total (the counting-mode view) is clk[class], so advancing every
// counter of a class is one clock bump. An in-flight PMI is tracked by
// the class clock at which it first tries to land, so its skid drains
// with the clock too.
type counterState struct {
	base    uint64 // class clock at the last overflow
	period  uint64 // == cfg.Period, hoisted next to base
	due     uint64 // class clock at which the pending PMI first tries to land
	pending bool   // a PMI is in flight between overflow and delivery
	class   eventClass
	dropped uint64 // overflows lost because a PMI was already in flight
	cfg     Sampling
}

// countInstr accrues the counting-mode occurrences of one retired
// instruction into per-event totals. It is the single definition of
// the instruction-specific event rules: the per-block aggregate
// derivation and the per-instruction reference path both feed on it,
// so the two dispatch paths cannot drift apart. Branch events are
// dynamic (they depend on the taken outcome) and are counted by the
// callers.
func countInstr(info *isa.Info, counts *[numEvents]uint64) {
	counts[InstRetired]++
	if info.Cat == isa.CatDivide {
		counts[DivCycles] += uint64(info.Latency)
	}
	switch info.Ext {
	case isa.SSE:
		if info.FLOPs > 0 {
			counts[MathSSEFP]++
		}
		if info.VecBits == 128 && info.FLOPs == 0 && info.Packing == isa.Packed {
			counts[IntSIMD]++
		}
	case isa.AVX:
		if info.FLOPs > 0 {
			counts[MathAVXFP]++
		}
	case isa.X87:
		counts[X87Ops]++
	}
}

// blockAgg caches the counting-mode event occurrences one execution of
// a basic block contributes — static properties of the block's retired
// ops, derived once per block and reused on every subsequent
// execution; only the taken-branch trigger is dynamic and stays
// outside the aggregate.
type blockAgg struct {
	counts [numEvents]uint64
	folded uint64 // executions already folded into PMU.counts
}

// PMU consumes the retirement stream and delivers samples. It
// implements cpu.LoopListener (the block-granularity fast path, with
// bulk loop iterations) and cpu.Listener (the per-instruction
// reference path). A PMU instance observes a single program: the
// per-block aggregate cache is keyed by block ID.
type PMU struct {
	cfg      Config
	rng      *rand.Rand
	lbr      *lbrRing
	counters []counterState

	// clk is the per-class occurrence clock: retired instructions and
	// retired taken branches (the classNone clock never ticks). Every
	// counter of a class reads its value and total off it.
	clk [numClasses]uint64
	// room is how many more occurrences of each class can retire before
	// some counter of the class has work to do: an overflow, or a
	// pending PMI reaching its delivery point. Retirements use it up;
	// schedule recomputes it whenever a counter may have changed state.
	room [numClasses]uint64

	// Counting-mode totals for the instruction-specific events, used
	// for PMU-vs-instrumentation cross-checks like the paper's. The
	// block path defers its static per-block contributions to hits
	// and folds them in on read (Count), so counts alone is complete
	// only after a fold.
	counts [numEvents]uint64

	// aggs caches per-block event aggregates, grown lazily by block ID.
	aggs []blockAgg
	// hits counts each block's executions on the block path, the one
	// per-block word the fast path touches; 0 means the block has not
	// been seen and its aggregate not derived. Each execution
	// contributes the block's static aggregate to counts, applied
	// lazily as (hits - folded) × aggregate instead of per retirement.
	hits []uint64
	// ev is the reused retirement event of the block event path.
	ev cpu.RetireEvent
	// stackBuf is the reused LBR snapshot buffer of deliver; sample
	// handlers own the stack only for the duration of the call.
	stackBuf []BranchRecord
}

// New builds a PMU with the given config and sampling programmings. At
// most one precise event may be programmed, matching x86.
func New(cfg Config, samplings ...Sampling) (*PMU, error) {
	if cfg.LBRDepth <= 1 {
		return nil, fmt.Errorf("pmu: LBR depth %d too small", cfg.LBRDepth)
	}
	if cfg.HistoryDepth < 2*cfg.LBRDepth {
		return nil, fmt.Errorf("pmu: history depth %d < 2x LBR depth", cfg.HistoryDepth)
	}
	precise := 0
	p := &PMU{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		lbr: newLBRRing(cfg.HistoryDepth),
	}
	for _, s := range samplings {
		if s.Period == 0 {
			return nil, fmt.Errorf("pmu: event %v has zero period", s.Event)
		}
		if s.Handler == nil {
			return nil, fmt.Errorf("pmu: event %v has no handler", s.Event)
		}
		if s.Event.Precise() {
			precise++
			if precise > 1 {
				return nil, fmt.Errorf("pmu: precise events limited to one counter")
			}
		}
		p.counters = append(p.counters, counterState{cfg: s, period: s.Period, class: classify(s.Event)})
	}
	p.schedule()
	return p, nil
}

// derive computes the event aggregate of a block seen for the first
// time from its retired ops.
func (p *PMU) derive(bev *cpu.BlockEvent) {
	id := bev.BlockID()
	if id >= len(p.aggs) {
		p.aggs = append(p.aggs, make([]blockAgg, id+1-len(p.aggs))...)
		p.hits = append(p.hits, make([]uint64, id+1-len(p.hits))...)
	}
	infos := bev.Infos()
	for i := range infos {
		countInstr(&infos[i], &p.aggs[id].counts)
	}
}

// schedule recomputes each class's room from its counters. A counter
// has work when its value reaches the period, and, with a PMI in
// flight, also when its clock reaches the delivery point.
func (p *PMU) schedule() {
	room := [numClasses]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	for i := range p.counters {
		c := &p.counters[i]
		if c.class == classNone {
			continue
		}
		clk := p.clk[c.class]
		r := c.period - (clk - c.base) - 1
		if c.pending {
			if c.due <= clk {
				r = 0
			} else {
				r = min(r, c.due-clk-1)
			}
		}
		room[c.class] = min(room[c.class], r)
	}
	p.room = room
}

// RetireBlock implements cpu.BlockListener — the retirement fast path.
//
// Every counter reads its value off its class clock, and room says how
// many occurrences of each class can retire before any counter has work
// to do, so a block in which no counter overflows and no PMI lands is
// one compare, two clock bumps and — for a taken terminator — one LBR
// push, whatever the number of counters. The block's static
// counting-mode totals are deferred as a hit tally either way. A block
// that does hold an event is retired by retireBlockEvents, which jumps
// from event to event. Parity tests assert the block path is
// bit-identical to the per-instruction reference.
func (p *PMU) RetireBlock(bev *cpu.BlockEvent) {
	n := uint64(bev.Len())
	if n == 0 {
		return
	}
	id := bev.BlockID()
	if id >= len(p.hits) || p.hits[id] == 0 {
		p.derive(bev)
	}
	// The block's static event contributions are deferred: one hit
	// tally here, folded into counts on read. Only the dynamic
	// taken-branch effects happen inline.
	p.hits[id]++
	if n > p.room[classInstr] || bev.Taken && p.room[classBranch] == 0 {
		p.retireBlockEvents(bev)
		return
	}
	p.retireQuiet(bev, n)
}

// retireQuiet retires the last insts instructions of a block in which
// no counter has work left: the class clocks advance in bulk, and a
// taken terminator is counted and pushed onto the LBR.
func (p *PMU) retireQuiet(bev *cpu.BlockEvent, insts uint64) {
	p.clk[classInstr] += insts
	p.room[classInstr] -= insts
	if bev.Taken {
		p.clk[classBranch]++
		p.room[classBranch]--
		p.counts[BrInstRetiredNearTaken]++
		p.lbr.push(BranchRecord{From: bev.LastAddr(), To: bev.Target})
	}
}

// QuietIterations implements cpu.LoopListener: how many whole
// iterations of l fit in the room every class has left, so that none
// of them holds a counter event — n·insts ≤ room[instr] and
// n·taken ≤ room[branch], the bound under which retiring the body
// blocks one by one would take retireQuiet on every one of them. It is
// 0 while any body block is underived, so first executions still go
// through RetireBlock.
func (p *PMU) QuietIterations(l *cpu.Loop) uint64 {
	n := p.room[classInstr] / l.Insts()
	if t := l.Taken(); t > 0 {
		n = min(n, p.room[classBranch]/t)
	}
	if n == 0 {
		return 0
	}
	for _, id := range l.Body() {
		if int(id) >= len(p.hits) || p.hits[id] == 0 {
			return 0
		}
	}
	return n
}

// RetireIterations implements cpu.LoopListener: n quiet iterations of
// l in one step — the hit tallies and class clocks advance by n
// iterations' worth, and the LBR receives the iterations' taken
// branches, of which only the newest HistoryDepth are written.
func (p *PMU) RetireIterations(l *cpu.Loop, _, n uint64) {
	for _, id := range l.Body() {
		p.hits[id] += n
	}
	insts, taken := n*l.Insts(), n*l.Taken()
	p.clk[classInstr] += insts
	p.room[classInstr] -= insts
	p.clk[classBranch] += taken
	p.room[classBranch] -= taken
	p.counts[BrInstRetiredNearTaken] += taken
	p.lbr.pushRepeated(l.Branches(), n)
}

// retireBlockEvents retires a block that holds at least one counter
// event, jumping from event to event instead of replaying every
// instruction. The next event is where the instruction class runs out
// of room or, on a taken terminator, where the branch class has none
// left; the instructions before it only advance the instruction clock.
// At an event every counter runs the reference step in counter order,
// so RNG draws, skid, shadowing and delivery are exactly those of the
// per-instruction path.
func (p *PMU) retireBlockEvents(bev *cpu.BlockEvent) {
	n := uint64(bev.Len())
	for i := uint64(0); i < n; {
		e := n // block index of the next event; n when none is left
		if p.room[classInstr] < n-i {
			e = i + p.room[classInstr]
		}
		if bev.Taken && p.room[classBranch] == 0 {
			e = min(e, n-1)
		}
		if e == n {
			p.retireQuiet(bev, n-i)
			return
		}
		p.clk[classInstr] += e - i
		p.room[classInstr] -= e - i
		p.tick(p.eventAt(bev, int(e)), &bev.Infos()[e])
		i = e + 1
	}
}

// eventAt fills the reused retirement event for instruction i of the
// block — the per-instruction view EachRetire would hand out there.
func (p *PMU) eventAt(bev *cpu.BlockEvent, i int) *cpu.RetireEvent {
	ev := &p.ev
	ev.Addr, ev.Op, ev.Cycle = bev.Addrs()[i], bev.Ops()[i], bev.Cycle(i)
	ev.Block, ev.Ring = bev.Block(), bev.Ring()
	if i == bev.Len()-1 && bev.Taken {
		ev.Taken, ev.Target = true, bev.Target
	} else {
		ev.Taken, ev.Target = false, 0
	}
	return ev
}

// foldCounts folds the block executions not yet folded into the
// counting-mode totals. Idempotent.
func (p *PMU) foldCounts() {
	for id, hits := range p.hits {
		a := &p.aggs[id]
		if hits == a.folded {
			continue
		}
		for e, occ := range a.counts {
			p.counts[e] += occ * (hits - a.folded)
		}
		a.folded = hits
	}
}

// Retire implements cpu.Listener — the per-instruction reference path.
func (p *PMU) Retire(ev *cpu.RetireEvent) {
	info := ev.Op.Info()
	countInstr(&info, &p.counts)
	p.tick(ev, &info)
}

// tick retires one instruction on the sampling side: the dynamic
// taken-branch effects and the class clocks, then every counter's step
// in counter order. The steps decide from the clocks alone; room only
// says when to reschedule: when some class had none left, a counter
// may have changed state, otherwise the occurrence just used one up.
func (p *PMU) tick(ev *cpu.RetireEvent, info *isa.Info) {
	work := p.room[classInstr] == 0
	p.clk[classInstr]++
	p.room[classInstr]--
	if ev.Taken {
		work = work || p.room[classBranch] == 0
		p.clk[classBranch]++
		p.room[classBranch]--
		p.counts[BrInstRetiredNearTaken]++
		p.lbr.push(BranchRecord{From: ev.Addr, To: ev.Target})
	}
	for i := range p.counters {
		p.step(&p.counters[i], ev, info)
	}
	if work {
		p.schedule()
	}
}

// step advances one sampling counter for the retirement ev, after the
// class clocks have ticked for it.
func (p *PMU) step(c *counterState, ev *cpu.RetireEvent, info *isa.Info) {
	// Both the counter and an in-flight PMI's skid advance only on an
	// occurrence of the counter's event: the branch counter's delivery
	// slips in retired taken branches, the instruction counters' in
	// retired instructions.
	branchCounter := c.class == classBranch
	if c.class == classNone || branchCounter && !ev.Taken {
		return
	}
	clk := p.clk[c.class]
	if clk-c.base >= c.period {
		c.base = clk
		p.overflow(c, ev.Addr)
	}
	if !c.pending || clk < c.due {
		return
	}
	if !branchCounter && p.cfg.Shadowing && info.IsLongLatency() {
		// The PMI cannot land on an instruction hiding in the shadow of
		// a long-latency operation; it slides to the next retirement.
		return
	}
	c.pending = false
	p.deliver(c, ev)
}

// overflow arms a pending PMI with the event-appropriate skid. Skid is
// largely deterministic for a given code location — it reflects the
// microarchitectural state the overflow finds, not a dice roll — with
// one instruction of jitter. The determinism matters: it lets sampling
// alias against loop periods, the systematic EBS pathology that made
// the paper pick prime sampling periods, and it keeps per-location
// displacement stable the way Weaver's determinism studies describe.
func (p *PMU) overflow(c *counterState, addr uint64) {
	if c.pending {
		c.dropped++
		return
	}
	var skid int
	switch {
	case c.cfg.Event == BrInstRetiredNearTaken:
		skid = 1 + p.rng.Intn(p.cfg.BranchSkidMax+1)
	case c.cfg.Event.Precise():
		// A per-location component (the microarchitectural state an
		// overflow finds at a given IP is stable) plus jitter.
		span := p.cfg.SkidPreciseMax - p.cfg.SkidPreciseMin + 1
		skid = p.cfg.SkidPreciseMin + int((addrHash(addr)+uint64(p.rng.Intn(3)))%uint64(span))
	default:
		skid = p.cfg.SkidMin + p.rng.Intn(p.cfg.SkidMax-p.cfg.SkidMin+1)
	}
	if skid < 1 {
		skid = 1
	}
	// A skid of s lands on the (s-1)th occurrence after this one.
	c.pending = true
	c.due = p.clk[c.class] + uint64(skid) - 1
}

// addrHash mixes an instruction address into a stable per-location
// value.
func addrHash(addr uint64) uint64 {
	h := addr * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// deliver captures the sample at the current retirement.
func (p *PMU) deliver(c *counterState, ev *cpu.RetireEvent) {
	depth := p.cfg.LBRDepth
	// The entry[0] bias anomaly (Section III.C): when a bias-prone
	// branch sits in the architectural window, the ring read may start
	// at that branch, delivering a truncated stack with the prone
	// branch pinned at entry[0]. Its own source — and every entry older
	// than it — is lost to the analysis, so the streams closing at and
	// before the prone branch go systematically uncounted.
	if p.cfg.BiasProne != nil && p.cfg.BiasStrength > 0 {
		if age, ok := p.lbr.findProne(depth, p.cfg.BiasProne); ok {
			if p.rng.Float64() < p.cfg.BiasStrength {
				depth = age + 1
			}
		}
	}
	// The snapshot fills a reused buffer: handlers own the stack only
	// for the duration of the call (see Sample), so delivery allocates
	// nothing.
	if cap(p.stackBuf) < depth {
		p.stackBuf = make([]BranchRecord, depth)
	}
	stack := p.lbr.snapshotInto(p.stackBuf[:depth], 0)
	if stack != nil && p.cfg.EntryDropProb > 0 && len(stack) > 3 &&
		p.rng.Float64() < p.cfg.EntryDropProb {
		// Drop one interior entry; its neighbours' streams merge.
		i := 1 + p.rng.Intn(len(stack)-2)
		stack = append(stack[:i], stack[i+1:]...)
	}
	c.cfg.Handler(Sample{
		Event: c.cfg.Event,
		IP:    ev.Addr,
		Stack: stack,
		Ring:  ev.Ring,
		Cycle: ev.Cycle,
	})
}

// Count returns the counting-mode total for an event — what a PMU
// counter programmed in counting (non-sampling) mode would read. Used to
// cross-check instrumentation results like the paper does.
func (p *PMU) Count(e Event) uint64 {
	p.foldCounts()
	return p.counts[e]
}

// Dropped returns how many overflows of event e were lost to PMI
// collisions.
func (p *PMU) Dropped(e Event) uint64 {
	var n uint64
	for i := range p.counters {
		if c := &p.counters[i]; c.cfg.Event == e {
			n += c.dropped
		}
	}
	return n
}

// Overflows returns how many overflows event e generated (delivered or
// dropped).
func (p *PMU) Overflows(e Event) uint64 {
	var n uint64
	for i := range p.counters {
		if c := &p.counters[i]; c.cfg.Event == e {
			n += p.clk[c.class] / c.period
		}
	}
	return n
}

var (
	_ cpu.Listener     = (*PMU)(nil)
	_ cpu.LoopListener = (*PMU)(nil)
)
