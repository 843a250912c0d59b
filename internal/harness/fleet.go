package harness

import (
	"fmt"
	"strings"

	"hbbp/internal/analyzer"
	"hbbp/internal/core"
	"hbbp/internal/metrics"
	"hbbp/internal/profstore"
)

// ---------------------------------------------------------------- Fleet

// The fleet experiment closes the loop between the paper's pitch —
// profiling cheap enough to leave on everywhere — and what a fleet
// actually consumes: one merged profile-store view over many
// concurrent runs. Every SPEC stand-in's evaluation run is captured
// into the store's integer form and merged; the merged fleet mix is
// then scored against the union of the per-run instrumentation
// references with the same average-weighted-error metric used
// throughout the evaluation. The experiment answers the question the
// per-workload tables cannot: does per-block quantization plus
// cross-workload merging preserve HBBP's accuracy at fleet scale?

// FleetRow is one workload's contribution to the merged fleet view.
type FleetRow struct {
	Name string
	// Mass is the workload's retired-instruction mass in the merged
	// profile (quantized HBBP counts).
	Mass uint64
	// Share is Mass over the fleet total.
	Share float64
	// SDEBug marks workloads excluded from the error union (the
	// reference tool miscounts them).
	SDEBug bool
}

// FleetResult is the merged-fleet experiment outcome.
type FleetResult struct {
	// Merged is the fleet profile: every suite evaluation run captured
	// into the profile store and merged.
	Merged *profstore.Profile
	// Rows lists per-workload contributions in suite order.
	Rows []FleetRow
	// ErrHBBP, ErrEBS and ErrLBR are average weighted errors of the
	// merged user-mode fleet mix built from each estimator's captured
	// counts, against the union of the instrumentation references
	// (SDE-bug workloads excluded from both sides).
	ErrHBBP, ErrEBS, ErrLBR float64
	// Excluded lists the SDE-bug benchmarks left out of the error
	// union.
	Excluded []string
}

// Fleet captures the suite's evaluation runs into the profile store,
// merges them, and scores the merged mix against the ground-truth
// union. It shares the suite evaluations (and thus the trained model)
// with the other experiments.
func (r *Runner) Fleet() (*FleetResult, error) {
	suite, err := r.SuiteEvals()
	if err != nil {
		return nil, err
	}
	res := &FleetResult{}
	var all, hybrid, ebs, lbr []*profstore.Profile
	unionRef := make(metrics.Mix)
	for _, ev := range suite {
		sp := core.Capture(ev.Profile, ev.Name)
		all = append(all, sp)
		res.Rows = append(res.Rows, FleetRow{
			Name:   ev.Name,
			Mass:   sp.TotalMass(),
			SDEBug: ev.SDEBug,
		})
		if ev.SDEBug {
			res.Excluded = append(res.Excluded, ev.Name)
			continue
		}
		// The error union compares like with like: per-estimator
		// captures on one side, summed references on the other, both
		// restricted to the non-SDE-bug workloads and user mode.
		hybrid = append(hybrid, sp)
		ebs = append(ebs, core.CaptureCounts(ev.Profile.Prog, ev.Profile.EBS, ev.Name))
		lbr = append(lbr, core.CaptureCounts(ev.Profile.Prog, ev.Profile.LBR, ev.Name))
		for op, v := range ev.RefMix {
			unionRef[op] += v
		}
	}
	res.Merged = profstore.Merge(all...)
	total := res.Merged.TotalMass()
	for i := range res.Rows {
		if total > 0 {
			res.Rows[i].Share = float64(res.Rows[i].Mass) / float64(total)
		}
	}
	res.ErrHBBP = metrics.AvgWeightedError(unionRef, analyzer.StoredMix(profstore.Merge(hybrid...), analyzer.ScopeUser))
	res.ErrEBS = metrics.AvgWeightedError(unionRef, analyzer.StoredMix(profstore.Merge(ebs...), analyzer.ScopeUser))
	res.ErrLBR = metrics.AvgWeightedError(unionRef, analyzer.StoredMix(profstore.Merge(lbr...), analyzer.ScopeUser))
	return res, nil
}

// Render prints the fleet table: per-workload mass shares, the merged
// totals, and the merged-mix accuracy line.
func (f *FleetResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet: merged profile store over %d concurrent workloads (%d runs, %.3gG retired insts)\n",
		len(f.Rows), f.Merged.TotalRuns(), float64(f.Merged.TotalMass())/1e9)
	nameW := len("WORKLOAD")
	for _, row := range f.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %12s  %7s\n", nameW, "WORKLOAD", "MASS", "SHARE")
	for _, row := range f.Rows {
		note := ""
		if row.SDEBug {
			note = "  (excluded from error union)"
		}
		fmt.Fprintf(&sb, "%-*s  %12d  %6.2f%%%s\n", nameW, row.Name, row.Mass, row.Share*100, note)
	}
	fmt.Fprintf(&sb, "merged user-mode mix vs instrumentation union (avg weighted error): HBBP %.2f%%, EBS %.2f%%, LBR %.2f%%\n",
		f.ErrHBBP*100, f.ErrEBS*100, f.ErrLBR*100)
	top := f.Merged.TopOps(8)
	if len(top) > 0 {
		names := make([]string, len(top))
		for i, o := range top {
			names[i] = o.Mnemonic
		}
		fmt.Fprintf(&sb, "hottest merged mnemonics: %s\n", strings.Join(names, ", "))
	}
	return sb.String()
}
