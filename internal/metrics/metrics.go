// Package metrics implements the paper's error definitions (Section VI).
//
// The reference is software instrumentation; the error for a mnemonic M
// is |Vref(M)-Vmeasured(M)| / Vref(M), and aggregate results use the
// average weighted error: the sum over mnemonics of Error(M) times M's
// share of the reference instruction total.
package metrics

import (
	"math"
	"slices"
	"sort"

	"hbbp/internal/isa"
)

// Error returns the relative error of measured against ref, as a
// fraction (0.02 = 2%). When the reference is zero the error is 0 for a
// zero measurement and 1 (100%) for any spurious nonzero measurement, so
// phantom counts are penalised instead of dividing by zero.
func Error(ref, measured float64) float64 {
	if ref == 0 {
		if measured == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(ref-measured) / ref
}

// Mix is a per-mnemonic execution histogram. Values are execution counts
// (possibly fractional for PMU-estimated mixes).
type Mix map[isa.Op]float64

// Total returns the instruction total of the mix, added in ascending
// op order (see inOrder).
func (m Mix) Total() float64 {
	var t float64
	m.inOrder(func(_ isa.Op, v float64) { t += v })
	return t
}

// inOrder calls fn for every op of the mix in ascending op order. Every
// sum over a mix adds in this order, not map order, so one mix always
// sums to the same bits.
func (m Mix) inOrder(fn func(op isa.Op, v float64)) {
	var buf [isa.NumOps + 1]isa.Op
	ops := buf[:0]
	for op := range m {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	for _, op := range ops {
		fn(op, m[op])
	}
}

// TopN returns the n most-executed mnemonics in descending count order,
// breaking ties by mnemonic name for determinism.
func (m Mix) TopN(n int) []isa.Op {
	ops := make([]isa.Op, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if m[ops[i]] != m[ops[j]] {
			return m[ops[i]] > m[ops[j]]
		}
		return ops[i].String() < ops[j].String()
	})
	if n < len(ops) {
		ops = ops[:n]
	}
	return ops
}

// AvgWeightedError computes the paper's aggregate metric between a
// reference mix and a measured mix:
//
//	sum over M of Error(M) * Vref(M) / #instructions_ref
//
// Mnemonics absent from the reference but present in the measurement do
// not contribute (their reference weight is zero), matching the paper's
// definition exactly.
func AvgWeightedError(ref, measured Mix) float64 {
	total := ref.Total()
	if total == 0 {
		return 0
	}
	var sum float64
	ref.inOrder(func(op isa.Op, vref float64) {
		sum += Error(vref, measured[op]) * vref / total
	})
	return sum
}

// PerMnemonicErrors returns Error(M) for every mnemonic in the
// reference.
func PerMnemonicErrors(ref, measured Mix) map[isa.Op]float64 {
	out := make(map[isa.Op]float64, len(ref))
	for op, vref := range ref {
		out[op] = Error(vref, measured[op])
	}
	return out
}

// WeightedBBECError aggregates per-block errors the same way the
// mnemonic metric does, weighting each block's relative error by its
// share of reference retirements (executions x block length). It is the
// metric used to compare raw estimators at the BBEC level and to build
// training labels.
func WeightedBBECError(ref []uint64, lens []int, measured []float64) float64 {
	var totalInsts float64
	for id, r := range ref {
		totalInsts += float64(r) * float64(lens[id])
	}
	if totalInsts == 0 {
		return 0
	}
	var sum float64
	for id, r := range ref {
		w := float64(r) * float64(lens[id]) / totalInsts
		sum += Error(float64(r), measured[id]) * w
	}
	return sum
}
