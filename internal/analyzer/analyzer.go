// Package analyzer turns BBECs into dynamic instruction mixes and
// user-facing views — the analysis half of the paper's tool (Section
// V.B).
//
// "Dynamic (sample) information is mapped onto static basic block maps.
// Using the adjusted sample data, we produce a histogram of BBECs
// according to HBBP" — and from BBECs, since every instruction of a
// block executes exactly as often as the block, per-mnemonic execution
// histograms follow directly. The analyzer joins those dynamic counts
// with the static instruction attributes (class, ISA, packing, operand
// and memory behaviour) so mixes can be filtered, aggregated and broken
// down by module, function, basic block, instruction family or custom
// taxonomy.
package analyzer

import (
	"hbbp/internal/isa"
	"hbbp/internal/metrics"
	"hbbp/internal/profstore"
	"hbbp/internal/program"
)

// Scope filters which retirements contribute to a view.
type Scope uint8

// Scopes.
const (
	// ScopeAll covers user and kernel code.
	ScopeAll Scope = iota
	// ScopeUser covers ring 3 only — the visibility software
	// instrumentation is limited to.
	ScopeUser
	// ScopeKernel covers ring 0 only.
	ScopeKernel
)

func (s Scope) admits(r program.Ring) bool {
	switch s {
	case ScopeUser:
		return r == program.RingUser
	case ScopeKernel:
		return r == program.RingKernel
	}
	return true
}

// Options configure mix generation.
type Options struct {
	// Scope filters by ring.
	Scope Scope
	// LiveText uses the live (trace-point-patched) instruction
	// sequence of each block rather than the static disassembly; this
	// is the paper's kernel re-patching remedy applied at mix level.
	LiveText bool
	// Module restricts the mix to one module name (empty: all).
	Module string
	// Function restricts the mix to one function name (empty: all).
	Function string
}

// blockOps returns the instruction sequence attributed to a block under
// the options.
func blockOps(blk *program.Block, live bool) []isa.Op {
	if live {
		return blk.EffectiveOps()
	}
	return blk.Ops
}

// admit applies the option filters to a block.
func (o Options) admit(blk *program.Block) bool {
	if !o.Scope.admits(blk.Fn.Mod.Ring) {
		return false
	}
	if o.Module != "" && blk.Fn.Mod.Name != o.Module {
		return false
	}
	if o.Function != "" && blk.Fn.Name != o.Function {
		return false
	}
	return true
}

// Mix produces the per-mnemonic execution histogram implied by BBECs
// (block ID indexed).
func Mix(p *program.Program, bbecs []float64, opts Options) metrics.Mix {
	mix := make(metrics.Mix)
	for _, blk := range p.Blocks() {
		count := bbecs[blk.ID]
		if count <= 0 || !opts.admit(blk) {
			continue
		}
		for _, op := range blockOps(blk, opts.LiveText) {
			mix[op] += count
		}
	}
	return mix
}

// MixFromExact produces the histogram from exact integer BBECs (oracle
// or instrumentation data).
func MixFromExact(p *program.Program, bbecs []uint64, opts Options) metrics.Mix {
	f := make([]float64, len(bbecs))
	for i, v := range bbecs {
		f[i] = float64(v)
	}
	return Mix(p, f, opts)
}

// ToMix converts an exact mnemonic histogram (e.g. from the SDE
// reference) to the metrics type.
func ToMix(m map[isa.Op]uint64) metrics.Mix {
	out := make(metrics.Mix, len(m))
	for op, n := range m {
		out[op] = float64(n)
	}
	return out
}

// StoredMix converts a stored profile's per-op mass into a mix under
// the scope filter. Stored rings share the program model's numbering.
// Mnemonics this build's ISA table does not know (a stored profile may
// come from a newer build) are skipped.
func StoredMix(sp *profstore.Profile, s Scope) metrics.Mix {
	mix := make(metrics.Mix)
	for _, o := range sp.Ops {
		if !s.admits(program.Ring(o.Ring)) {
			continue
		}
		op, err := isa.Parse(o.Mnemonic)
		if err != nil {
			continue
		}
		mix[op] += float64(o.Mass)
	}
	return mix
}
