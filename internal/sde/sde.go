// Package sde models the software-instrumentation reference tool — the
// role Intel's Software Development Emulator (SDE, built on Pin) plays in
// the paper.
//
// Three properties of the real tool matter to the evaluation and are
// reproduced here:
//
//  1. Exactness: per-block execution counts and the per-mnemonic
//     histogram are exact, so SDE output is the ground truth against
//     which PMU-based estimates are scored (Section VI.A).
//  2. Cost: instrumentation multiplies runtime by 2-76x depending on the
//     workload's block structure. The model charges a fixed dispatch
//     cost per block entry plus per-instruction emulation costs, so the
//     slowdown factor emerges from workload shape: short, branchy blocks
//     (povray-like, Hydro-post-like) are penalised the most, exactly as
//     in Table 1.
//  3. Blindness to ring 0: like Pin, the instrumenter only observes
//     user-mode execution. Kernel-side retirements are invisible
//     (Section VII.B), which is what HBBP's kernel coverage is compared
//     against in Table 7.
package sde

import (
	"hbbp/internal/cpu"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

// Cost model constants, in simulated cycles. Calibrated so that the
// SPEC-like suite lands near the paper's 4x average slowdown with
// extremes around 10-80x for short-block call-heavy code.
const (
	costBlockEntry = 20  // JIT dispatch / trace lookup per block entry
	costPerInst    = 3   // per-instruction bookkeeping
	costPerBranch  = 30  // branch resolution and chaining
	costPerMemOp   = 6   // effective-address re-translation
	costPerCall    = 220 // call/return tracing, stack validation, trace relinking
)

// opCount is one entry of a block's compacted mnemonic histogram.
type opCount struct {
	op isa.Op
	n  uint64
}

// opCost returns the modelled instrumentation cost of emulating one
// instruction, excluding the per-block dispatch cost. It is the single
// definition of the per-instruction cost rules: the blockProfile
// derivation and the per-instruction reference path both use it, so
// the two dispatch paths cannot drift apart.
func opCost(info *isa.Info) uint64 {
	cost := uint64(costPerInst)
	if info.IsBranch() {
		cost += costPerBranch
		if info.Cat == isa.CatCall || info.Cat == isa.CatReturn {
			cost += costPerCall
		}
	}
	if info.ReadsMem || info.WritesMem {
		cost += costPerMemOp
	}
	return cost
}

// blockProfile caches what one execution of a block contributes to the
// instrumentation totals: instruction count, the full modelled dispatch
// and emulation cost, and the compacted per-mnemonic tallies. All of it
// is static, so it is derived once per block at construction.
type blockProfile struct {
	insts  uint64
	cost   uint64
	ops    []opCount
	kernel bool // the block runs in ring 0
}

// Static is the per-program half of an instrumenter: the per-block
// cost and mnemonic profiles derived from the static image. Deriving
// it walks every block once; the table is immutable afterwards and
// safe to share across any number of concurrent Instrumenters of the
// same program, so callers that instrument one workload many times
// (the experiment harness, the workload registry's snapshotted images)
// pay the derivation once instead of per run.
type Static struct {
	prog   *program.Program
	blocks []blockProfile // per block ID, static contributions
}

// NewStatic derives the per-block profile table for p.
func NewStatic(p *program.Program) *Static {
	s := &Static{prog: p, blocks: make([]blockProfile, p.NumBlocks())}
	for _, blk := range p.Blocks() {
		ops := blk.EffectiveOps()
		bp := blockProfile{
			insts:  uint64(len(ops)),
			cost:   costBlockEntry,
			kernel: blk.Fn.Mod.Ring == program.RingKernel,
		}
	tally:
		for _, op := range ops {
			info := op.Info()
			bp.cost += opCost(&info)
			for i := range bp.ops {
				if bp.ops[i].op == op {
					bp.ops[i].n++
					continue tally
				}
			}
			bp.ops = append(bp.ops, opCount{op: op, n: 1})
		}
		s.blocks[blk.ID] = bp
	}
	return s
}

// Program returns the image the profiles were derived from.
func (s *Static) Program() *program.Program { return s.prog }

// Instrumenter observes a run and produces exact ground truth. It
// implements cpu.LoopListener (block-granularity fast path, with bulk
// loop iterations) and cpu.Listener (per-instruction reference path).
type Instrumenter struct {
	prog *program.Program

	// UserOnly hides ring-0 retirements, which is the faithful SDE/Pin
	// behaviour. Tests may disable it to get an all-ring oracle.
	UserOnly bool

	blockExec []uint64               // per block ID
	blocks    []blockProfile         // per block ID, static contributions
	mnemonics [isa.NumOps + 2]uint64 // per opcode
	insts     uint64
	extraCost uint64 // instrumentation cycles added on top of the clean run

	// fastExec tallies block-path retirements not yet folded into the
	// totals above: the fast path is one increment per block entry,
	// and the per-block static contributions are applied lazily as
	// count × profile when a result accessor needs them.
	fastExec []uint64
	dirty    bool
}

// New returns an instrumenter for program p with faithful user-only
// visibility, deriving a fresh static profile table. Callers that
// instrument the same program repeatedly should derive the table once
// with NewStatic and construct instrumenters with NewFromStatic.
func New(p *program.Program) *Instrumenter {
	return NewFromStatic(NewStatic(p))
}

// NewFromStatic returns an instrumenter sharing the precomputed
// profile table s — per-run state is fresh, the static table is the
// shared one. The instrumenter observes runs of s.Program().
func NewFromStatic(s *Static) *Instrumenter {
	return &Instrumenter{
		prog:      s.prog,
		UserOnly:  true,
		blockExec: make([]uint64, len(s.blocks)),
		blocks:    s.blocks,
		fastExec:  make([]uint64, len(s.blocks)),
	}
}

// RetireBlock implements cpu.BlockListener: one block entry is one
// tally — the block's static contributions (instructions, cost, the
// mnemonic histogram) are folded in lazily as count × profile, so the
// per-retirement work is O(1) regardless of block content.
func (in *Instrumenter) RetireBlock(ev *cpu.BlockEvent) {
	if in.UserOnly && ev.Ring() == program.RingKernel {
		return
	}
	if ev.Len() == 0 {
		return
	}
	in.fastExec[ev.BlockID()]++
	in.dirty = true
}

// QuietIterations implements cpu.LoopListener: instrumentation has no
// events, so any number of iterations retires in bulk.
func (in *Instrumenter) QuietIterations(*cpu.Loop) uint64 { return ^uint64(0) }

// RetireIterations implements cpu.LoopListener: n block entries per
// visible body block, tallied like RetireBlock's.
func (in *Instrumenter) RetireIterations(l *cpu.Loop, _, n uint64) {
	for _, id := range l.Body() {
		if in.UserOnly && in.blocks[id].kernel {
			continue
		}
		in.fastExec[id] += n
		in.dirty = true
	}
}

// fold applies the deferred block-path tallies to the totals.
// Idempotent: folded tallies are consumed.
func (in *Instrumenter) fold() {
	if !in.dirty {
		return
	}
	in.dirty = false
	for id, n := range in.fastExec {
		if n == 0 {
			continue
		}
		in.fastExec[id] = 0
		bp := &in.blocks[id]
		in.blockExec[id] += n
		in.insts += n * bp.insts
		in.extraCost += n * bp.cost
		for _, oc := range bp.ops {
			in.mnemonics[oc.op] += n * oc.n
		}
	}
}

// Retire implements cpu.Listener, the per-instruction reference path.
func (in *Instrumenter) Retire(ev *cpu.RetireEvent) {
	if in.UserOnly && ev.Ring == program.RingKernel {
		return
	}
	info := ev.Op.Info()
	if ev.Addr == ev.Block.Addr {
		in.blockExec[ev.Block.ID]++
		in.extraCost += costBlockEntry
	}
	in.mnemonics[ev.Op]++
	in.insts++
	in.extraCost += opCost(&info)
}

// BlockExec returns the exact execution count of the block with the
// given ID.
func (in *Instrumenter) BlockExec(id int) uint64 {
	in.fold()
	return in.blockExec[id]
}

// BBECs returns the exact per-block execution counts indexed by block
// ID. The returned slice is the instrumenter's live storage; callers
// must not modify it.
func (in *Instrumenter) BBECs() []uint64 {
	in.fold()
	return in.blockExec
}

// Mnemonics returns the exact per-mnemonic execution histogram.
func (in *Instrumenter) Mnemonics() map[isa.Op]uint64 {
	in.fold()
	out := make(map[isa.Op]uint64)
	for op, n := range in.mnemonics {
		if n > 0 {
			out[isa.Op(op)] = n
		}
	}
	return out
}

// Instructions returns the total retired instructions observed.
func (in *Instrumenter) Instructions() uint64 {
	in.fold()
	return in.insts
}

// ExtraCycles returns the instrumentation cost accumulated on top of the
// clean run's cycles. InstrumentedCycles = cleanCycles + ExtraCycles.
func (in *Instrumenter) ExtraCycles() uint64 {
	in.fold()
	return in.extraCost
}

// SlowdownFactor returns the modelled runtime multiplier relative to a
// clean run that took cleanCycles.
func (in *Instrumenter) SlowdownFactor(cleanCycles uint64) float64 {
	if cleanCycles == 0 {
		return 1
	}
	in.fold()
	return float64(cleanCycles+in.extraCost) / float64(cleanCycles)
}

var (
	_ cpu.Listener     = (*Instrumenter)(nil)
	_ cpu.LoopListener = (*Instrumenter)(nil)
)
