package analyzer

import (
	"fmt"

	"hbbp/internal/isa"
	"hbbp/internal/pivot"
	"hbbp/internal/program"
)

// Pivot dimension names emitted by BuildPivot. These are the
// granularity levels the paper lists: binary module, symbol (function),
// basic block, plus the static instruction annotations.
const (
	DimModule   = "module"
	DimFunction = "function"
	DimBlock    = "block"
	DimRing     = "ring"
	DimMnemonic = "mnemonic"
	DimExt      = "ext"
	DimPacking  = "packing"
	DimCategory = "category"
	DimMemory   = "memory"
)

// BuildPivot explodes BBECs into one pivot record per (block,
// mnemonic-position) with the full set of static attributes attached —
// the analyzer's "seamless mixing of dynamic and static information".
func BuildPivot(p *program.Program, bbecs []float64, opts Options) *pivot.Table {
	tab := pivot.New()
	for _, blk := range p.Blocks() {
		count := bbecs[blk.ID]
		if count <= 0 || !opts.admit(blk) {
			continue
		}
		perOp := make(map[isa.Op]float64)
		for _, op := range blockOps(blk, opts.LiveText) {
			perOp[op] += count
		}
		for op, v := range perOp {
			info := op.Info()
			tab.Add(map[string]string{
				DimModule:   blk.Fn.Mod.Name,
				DimFunction: blk.Fn.Name,
				DimBlock:    fmt.Sprintf("%s.bb%d", blk.Fn.Name, blk.Index),
				DimRing:     blk.Fn.Mod.Ring.String(),
				DimMnemonic: info.Name,
				DimExt:      info.Ext.String(),
				DimPacking:  info.Packing.String(),
				DimCategory: info.Cat.String(),
				DimMemory:   isa.MemoryAccess(op),
			}, v)
		}
	}
	return tab
}

// TopMnemonics returns the n most-executed mnemonics view.
func TopMnemonics(tab *pivot.Table, n int) []pivot.ResultRow {
	return tab.Pivot(pivot.Query{GroupBy: []string{DimMnemonic}, Limit: n})
}

// TopFunctions returns the n hottest functions by retired instructions.
func TopFunctions(tab *pivot.Table, n int) []pivot.ResultRow {
	return tab.Pivot(pivot.Query{GroupBy: []string{DimFunction}, Limit: n})
}

// ExtBreakdown returns retirements grouped by ISA extension.
func ExtBreakdown(tab *pivot.Table) []pivot.ResultRow {
	return tab.Pivot(pivot.Query{GroupBy: []string{DimExt}, Sort: pivot.OrderByKey})
}

// PackingView returns the CLForward-style view of Table 8: instruction
// set by packing.
func PackingView(tab *pivot.Table) []pivot.ResultRow {
	return tab.Pivot(pivot.Query{
		GroupBy: []string{DimExt, DimPacking},
		Sort:    pivot.OrderByKey,
	})
}

// RingBreakdown splits retirements between user and kernel mode.
func RingBreakdown(tab *pivot.Table) []pivot.ResultRow {
	return tab.Pivot(pivot.Query{GroupBy: []string{DimRing}, Sort: pivot.OrderByKey})
}
