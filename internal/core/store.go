package core

import (
	"math"

	"hbbp/internal/isa"
	"hbbp/internal/profstore"
	"hbbp/internal/program"
)

// This file bridges live profiles into the fleet profile store:
// program-relative float estimates become the store's integer mass
// keyed by stable identities, so runs from different sessions,
// machines or days merge exactly.

// Capture quantizes one run's hybrid per-block counts into a
// mergeable stored profile. unit names the deployable unit the run
// profiled (conventionally the workload name); it scopes block
// identities like a build ID, so two different builds sharing module
// names (e.g. a before/after pair) never conflate.
func Capture(prof *Profile, unit string) *profstore.Profile {
	return CaptureCounts(prof.Prog, prof.BBECs, unit)
}

// CaptureCounts quantizes an arbitrary per-block count vector (block
// ID indexed — e.g. a profile's raw EBS or LBR estimate) into a
// stored profile representing one run of unit.
//
// Quantization rounds each block's estimate to the nearest integer
// execution count; per-op mass is then derived from those integers
// (count times the op's occurrences in the block's live instruction
// sequence), so the stored blocks and ops sections are exactly
// consistent with each other and all later merging is integer-exact.
// The rows leave sorted by profstore.Canonical, which states the
// store's row order once for every producer.
func CaptureCounts(p *program.Program, counts []float64, unit string) *profstore.Profile {
	out := &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: unit, Runs: 1}},
	}
	// Op mass accumulates under numeric (opcode, ring) keys across the
	// whole program — hashing small integers per distinct op instead of
	// strings per retirement entry; mnemonic strings materialize once
	// per distinct key at emission.
	type opRing struct {
		op   isa.Op
		ring uint8
	}
	perOp := make(map[opRing]uint64)
	for _, blk := range p.Blocks() {
		c := counts[blk.ID]
		if !(c > 0) { // skip zero, negative and NaN estimates
			continue
		}
		count := uint64(math.Round(c))
		if count == 0 {
			continue
		}
		ops := blk.EffectiveOps()
		ring := profstore.RingUser
		if blk.Fn.Mod.Ring == program.RingKernel {
			ring = profstore.RingKernel
		}
		out.Blocks = append(out.Blocks, profstore.Block{
			Unit:     unit,
			Module:   blk.Fn.Mod.Name,
			Function: blk.Fn.Name,
			Addr:     blk.Addr,
			Ring:     ring,
			Len:      uint32(len(ops)),
			Count:    count,
		})
		for _, op := range ops {
			perOp[opRing{op, ring}] += count
		}
	}
	for k, mass := range perOp {
		out.Ops = append(out.Ops, profstore.OpMass{Mnemonic: k.op.String(), Ring: k.ring, Mass: mass})
	}
	return profstore.Canonical(out)
}
