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
// instruction, excluding the per-block dispatch cost: the single
// definition of the per-instruction cost rules, which the blockProfile
// derivation sums per block.
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
// (the experiment harness, the workload registry's compiled images)
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
// implements cpu.BoundListener (it reads the machine's block tally and
// is never called during a run) and cpu.Listener (the per-instruction
// reference path).
type Instrumenter struct {
	prog *program.Program

	// UserOnly hides ring-0 retirements, which is the faithful SDE/Pin
	// behaviour. Tests may disable it to get an all-ring oracle.
	UserOnly bool

	blocks []blockProfile // per block ID, static contributions
	// st is the block tally being observed: the bound machine's, or own,
	// which the per-instruction reference path advances itself. The
	// results are done, the totals of the tallies observed before it,
	// plus st's tally times the static per-block contributions.
	st   *cpu.State
	own  cpu.State
	done totals
	view totals // the last result, reused across reads
}

// totals are the instrumentation results.
type totals struct {
	exec      []uint64               // per block ID
	mnemonics [isa.NumOps + 2]uint64 // per opcode
	insts     uint64
	cost      uint64 // instrumentation cycles added on top of the clean run
}

// add folds a block tally into t: n executions of a visible block add
// n times its static profile.
func (t *totals) add(in *Instrumenter, tally []uint64) {
	for id, n := range tally {
		bp := &in.blocks[id]
		if n == 0 || in.UserOnly && bp.kernel {
			continue
		}
		t.exec[id] += n
		t.insts += n * bp.insts
		t.cost += n * bp.cost
		for _, oc := range bp.ops {
			t.mnemonics[oc.op] += n * oc.n
		}
	}
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
	n := len(s.blocks)
	in := &Instrumenter{
		prog:     s.prog,
		UserOnly: true,
		blocks:   s.blocks,
		own:      cpu.State{Exec: make([]uint64, n)},
		done:     totals{exec: make([]uint64, n)},
		view:     totals{exec: make([]uint64, n)},
	}
	in.st = &in.own
	return in
}

// Bind implements cpu.BoundListener: the instrumenter observes the
// machine's tally from now on, after folding the tally it observed
// before, so results accumulate across runs.
func (in *Instrumenter) Bind(s *cpu.State) int {
	in.done.add(in, in.st.Exec)
	if in.st == &in.own {
		clear(in.own.Exec)
	}
	in.st = s
	return 0
}

// Deadline implements cpu.BoundListener: instrumentation has no events.
func (in *Instrumenter) Deadline() cpu.Deadline { return cpu.NoDeadline }

// RetireBlock implements cpu.BlockListener. It is never called: the
// instrumenter has no deadline.
func (in *Instrumenter) RetireBlock(*cpu.BlockEvent) {}

// Retire implements cpu.Listener, the per-instruction reference path:
// one tally per block entry, in the instrumenter's own state.
func (in *Instrumenter) Retire(ev *cpu.RetireEvent) {
	if in.st != &in.own {
		in.Bind(&in.own)
	}
	if ev.Addr == ev.Block.Addr {
		in.own.Exec[ev.Block.ID]++
	}
}

// results returns the totals so far.
func (in *Instrumenter) results() *totals {
	v := &in.view
	copy(v.exec, in.done.exec)
	v.mnemonics, v.insts, v.cost = in.done.mnemonics, in.done.insts, in.done.cost
	v.add(in, in.st.Exec)
	return v
}

// BlockExec returns the exact execution count of the block with the
// given ID.
func (in *Instrumenter) BlockExec(id int) uint64 {
	n := in.done.exec[id]
	if !in.UserOnly || !in.blocks[id].kernel {
		n += in.st.Exec[id]
	}
	return n
}

// BBECs returns the exact per-block execution counts indexed by block
// ID. The returned slice is the instrumenter's storage, valid until the
// next call of a result accessor; callers must not modify it.
func (in *Instrumenter) BBECs() []uint64 {
	return in.results().exec
}

// Mnemonics returns the exact per-mnemonic execution histogram.
func (in *Instrumenter) Mnemonics() map[isa.Op]uint64 {
	out := make(map[isa.Op]uint64)
	for op, n := range in.results().mnemonics {
		if n > 0 {
			out[isa.Op(op)] = n
		}
	}
	return out
}

// Instructions returns the total retired instructions observed.
func (in *Instrumenter) Instructions() uint64 {
	return in.results().insts
}

// ExtraCycles returns the instrumentation cost accumulated on top of the
// clean run's cycles. InstrumentedCycles = cleanCycles + ExtraCycles.
func (in *Instrumenter) ExtraCycles() uint64 {
	return in.results().cost
}

// SlowdownFactor returns the modelled runtime multiplier relative to a
// clean run that took cleanCycles.
func (in *Instrumenter) SlowdownFactor(cleanCycles uint64) float64 {
	if cleanCycles == 0 {
		return 1
	}
	return float64(cleanCycles+in.ExtraCycles()) / float64(cleanCycles)
}

var (
	_ cpu.Listener      = (*Instrumenter)(nil)
	_ cpu.BoundListener = (*Instrumenter)(nil)
)
