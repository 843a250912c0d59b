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
// its class clock, which is the dispatch state's: the counter's value
// is the clock minus base and its total (the counting-mode view) is the
// clock itself. An in-flight PMI is tracked by the class clock at which
// it first tries to land, so its skid drains with the clock too.
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
// the instruction-specific event rules: the fold of the bound block
// tally and the per-instruction reference path both feed on it, so the
// two dispatch paths cannot drift apart. Branch events are dynamic
// (they depend on the taken outcome) and are read off the branch
// clock.
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

// PMU consumes the retirement stream and delivers samples. It
// implements cpu.BoundListener (the block path: the machine calls it
// only for blocks that reach a counter event) and cpu.Listener (the
// per-instruction reference path). A PMU instance observes a single
// program.
type PMU struct {
	cfg      Config
	rng      *rand.Rand
	counters []counterState

	// st is the dispatch state the counters read their clocks and the
	// LBR from: the bound machine's, or own, which the per-instruction
	// reference path advances itself.
	st  *cpu.State
	own cpu.State
	// next is the class clock value at which some counter of the class
	// next has work: an overflow, or a pending PMI reaching its
	// delivery point. It is the deadline the PMU publishes.
	next [numClasses]uint64
	// counts holds the reference path's counting-mode totals of the
	// instruction-specific events; a bound PMU folds them from the
	// machine's block tally on read.
	counts [numEvents]uint64
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
	if cfg.SkidMin > cfg.SkidMax || cfg.SkidPreciseMin > cfg.SkidPreciseMax || cfg.BranchSkidMax < 0 {
		return nil, fmt.Errorf("pmu: empty skid range: [%d, %d], precise [%d, %d], branch max %d",
			cfg.SkidMin, cfg.SkidMax, cfg.SkidPreciseMin, cfg.SkidPreciseMax, cfg.BranchSkidMax)
	}
	precise := 0
	p := &PMU{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		own: cpu.State{History: cpu.NewBranchRing(cfg.HistoryDepth)},
	}
	p.st = &p.own
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
	return p, nil
}

// clocks returns the class clocks of the dispatch state.
func (p *PMU) clocks() [numClasses]uint64 {
	return [numClasses]uint64{classInstr: p.st.Retired, classBranch: p.st.TakenBranches}
}

// schedule recomputes each class's next deadline from its counters at
// the class clocks clk. A counter has work when its value reaches the
// period, and, with a PMI in flight, also at the first occurrence at or
// past the delivery point.
func (p *PMU) schedule(clk [numClasses]uint64) {
	next := [numClasses]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	for i := range p.counters {
		c := &p.counters[i]
		if c.class == classNone {
			continue
		}
		d := c.base + c.period
		if d < c.base {
			d = ^uint64(0)
		}
		if c.pending {
			d = min(d, max(c.due, clk[c.class]+1))
		}
		next[c.class] = min(next[c.class], d)
	}
	p.next = next
}

// Bind implements cpu.BoundListener: the counters read their clocks,
// and deliveries the LBR, from the machine's state from now on.
func (p *PMU) Bind(s *cpu.State) int {
	p.st = s
	p.schedule(p.clocks())
	return p.cfg.HistoryDepth
}

// Deadline implements cpu.BoundListener.
func (p *PMU) Deadline() cpu.Deadline {
	return cpu.Deadline{Instr: p.next[classInstr], Branch: p.next[classBranch]}
}

// RetireBlock implements cpu.BlockListener for a block that reaches a
// deadline. The machine has already applied the whole block to the
// state, so the walk rewinds the clocks to each event inside it —
// where the instruction clock reaches its deadline or, on a taken
// terminator, the final instruction when the branch clock reaches its
// own — and runs every counter's reference step there, so RNG draws,
// skid, shadowing and delivery are exactly those of the
// per-instruction path. Before the final instruction of a taken block,
// the block's own branch is already in the ring but not yet retired.
func (p *PMU) RetireBlock(bev *cpu.BlockEvent) {
	n := uint64(bev.Len())
	end := p.clocks()
	first := end[classInstr] - n // instruction clock before the block
	for {
		e := n // block index of the next event; n when none is left
		if d := p.next[classInstr]; d <= end[classInstr] {
			e = d - first - 1
		}
		if bev.Taken && p.next[classBranch] <= end[classBranch] {
			e = min(e, n-1)
		}
		if e == n {
			return
		}
		clk, unretired := end, 0
		clk[classInstr] = first + e + 1
		if bev.Taken && e < n-1 {
			clk[classBranch]--
			unretired = 1
		}
		p.stepAll(p.eventAt(bev, int(e)), &bev.Infos()[e], clk, unretired)
		p.schedule(clk)
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

// Retire implements cpu.Listener — the per-instruction reference path:
// it advances the state itself, one instruction at a time, and steps
// every counter at every instruction.
func (p *PMU) Retire(ev *cpu.RetireEvent) {
	info := ev.Op.Info()
	countInstr(&info, &p.counts)
	p.st.Retired++
	if ev.Taken {
		p.st.TakenBranches++
		p.st.History.Push(cpu.Branch{From: ev.Addr, To: ev.Target})
	}
	p.stepAll(ev, &info, p.clocks(), 0)
}

// stepAll runs every counter's step, in counter order, for the
// retirement ev at class clocks clk. The newest unretired branch
// records in the ring belong to instructions after ev.
func (p *PMU) stepAll(ev *cpu.RetireEvent, info *isa.Info, clk [numClasses]uint64, unretired int) {
	for i := range p.counters {
		c := &p.counters[i]
		// Both the counter and an in-flight PMI's skid advance only on
		// an occurrence of the counter's event: the branch counter's
		// delivery slips in retired taken branches, the instruction
		// counters' in retired instructions.
		branchCounter := c.class == classBranch
		if c.class == classNone || branchCounter && !ev.Taken {
			continue
		}
		now := clk[c.class]
		if now-c.base >= c.period {
			c.base = now
			p.overflow(c, ev.Addr, now)
		}
		if !c.pending || now < c.due {
			continue
		}
		if !branchCounter && p.cfg.Shadowing && info.IsLongLatency() {
			// The PMI cannot land on an instruction hiding in the
			// shadow of a long-latency operation; it slides to the
			// next retirement.
			continue
		}
		c.pending = false
		p.deliver(c, ev, unretired)
	}
}

// overflow arms a pending PMI with the event-appropriate skid. Skid is
// largely deterministic for a given code location — it reflects the
// microarchitectural state the overflow finds, not a dice roll — with
// one instruction of jitter. The determinism matters: it lets sampling
// alias against loop periods, the systematic EBS pathology that made
// the paper pick prime sampling periods, and it keeps per-location
// displacement stable the way Weaver's determinism studies describe.
func (p *PMU) overflow(c *counterState, addr, now uint64) {
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
	c.due = now + uint64(skid) - 1
}

// addrHash mixes an instruction address into a stable per-location
// value.
func addrHash(addr uint64) uint64 {
	h := addr * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// deliver captures the sample at the retirement ev, reading the LBR
// past the newest unretired records.
func (p *PMU) deliver(c *counterState, ev *cpu.RetireEvent, unretired int) {
	lbr := lbrRing{p.st.History, unretired}
	depth := p.cfg.LBRDepth
	// The entry[0] bias anomaly (Section III.C): when a bias-prone
	// branch sits in the architectural window, the ring read may start
	// at that branch, delivering a truncated stack with the prone
	// branch pinned at entry[0]. Its own source — and every entry older
	// than it — is lost to the analysis, so the streams closing at and
	// before the prone branch go systematically uncounted.
	if p.cfg.BiasProne != nil && p.cfg.BiasStrength > 0 {
		if age, ok := lbr.findProne(depth, p.cfg.BiasProne); ok {
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
	stack := lbr.snapshotInto(p.stackBuf[:depth], 0)
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
// cross-check instrumentation results like the paper does. A bound PMU
// folds the machine's block tally times each block's static
// contributions.
func (p *PMU) Count(e Event) uint64 {
	switch {
	case e == BrInstRetiredNearTaken:
		return p.st.TakenBranches
	case p.st == &p.own:
		return p.counts[e]
	}
	var total uint64
	for id, n := range p.st.Exec {
		if n == 0 {
			continue
		}
		var block [numEvents]uint64
		infos := p.st.Layout.Infos(id)
		for i := range infos {
			countInstr(&infos[i], &block)
		}
		total += n * block[e]
	}
	return total
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
			n += p.clocks()[c.class] / c.period
		}
	}
	return n
}

var (
	_ cpu.Listener      = (*PMU)(nil)
	_ cpu.BoundListener = (*PMU)(nil)
)
