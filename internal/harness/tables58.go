package harness

import (
	"fmt"
	"sort"
	"strings"

	"hbbp/internal/analyzer"
	"hbbp/internal/isa"
	"hbbp/internal/metrics"
	"hbbp/internal/workloads"
)

// ---------------------------------------------------------------- Table 5

// Table5Result reproduces Table 5: Test40 runtimes and accuracy under
// clean execution, HBBP and SDE.
type Table5Result struct {
	CleanSeconds float64
	HBBPSeconds  float64
	SDESeconds   float64
	HBBPPenalty  float64 // fraction
	SDEPenalty   float64 // fraction
	AvgWErr      float64 // HBBP average weighted error
}

// Table5 evaluates Test40.
func (r *Runner) Table5() (*Table5Result, error) {
	ev, err := r.eval("test40")
	if err != nil {
		return nil, err
	}
	return &Table5Result{
		CleanSeconds: ev.CleanSeconds,
		HBBPSeconds:  ev.HBBPSeconds,
		SDESeconds:   ev.SDESeconds,
		HBBPPenalty:  ev.HBBPOverhead,
		SDEPenalty:   ev.SDEFactor - 1,
		AvgWErr:      ev.ErrHBBP,
	}, nil
}

// Render prints the Test40 evaluation.
func (t *Table5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 5: Test40 evaluation\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s %10s\n", "", "Clean", "HBBP", "SDE")
	fmt.Fprintf(&sb, "%-14s %10.1f %10.1f %10.1f\n", "Runtime [s]",
		t.CleanSeconds, t.HBBPSeconds, t.SDESeconds)
	fmt.Fprintf(&sb, "%-14s %10s %9.1f%% %9.0f%%\n", "Time penalty", "N/A",
		t.HBBPPenalty*100, t.SDEPenalty*100)
	fmt.Fprintf(&sb, "%-14s %10s %9.2f%% %10s\n", "Avg W Error", "N/A",
		t.AvgWErr*100, "0%")
	return sb.String()
}

// ---------------------------------------------------------------- Table 6

// Table6Cell holds one Fitter variant's numbers (millions, except
// TimePerTrack in microseconds).
type Table6Cell struct {
	X87Inst      float64
	SSEInst      float64
	AVXInst      float64
	Calls        float64
	TimePerTrack float64 // microseconds
	AvgWErr      float64 // measured half only
}

// Table6Result reproduces Table 6: expected vs measured values per
// Fitter variant; "AVX" is the broken build, "AVX fix" the corrected
// one.
type Table6Result struct {
	Variants []workloads.FitterVariant
	Expected map[workloads.FitterVariant]Table6Cell
	Measured map[workloads.FitterVariant]Table6Cell
}

// Table6 profiles all four Fitter builds. Expected values come from the
// instrumentation reference, measured values from HBBP.
func (r *Runner) Table6() (*Table6Result, error) {
	res := &Table6Result{
		Variants: workloads.FitterVariants(),
		Expected: map[workloads.FitterVariant]Table6Cell{},
		Measured: map[workloads.FitterVariant]Table6Cell{},
	}
	names := make([]string, len(res.Variants))
	for i, v := range res.Variants {
		names[i] = v.WorkloadName()
	}
	evs, err := r.evalNamed(names)
	if err != nil {
		return nil, err
	}
	for i, v := range res.Variants {
		ev := evs[i]
		tracks := trackCount(ev)
		cyclesPerTrack := float64(ev.Profile.Collection.Stats.Cycles) / tracks
		usPerTrack := cyclesPerTrack * float64(ev.Scale) / tracks2us
		scale := float64(ev.Scale) / 1e6

		res.Expected[v] = fitterCell(ev.RefMix, scale, usPerTrack, 0)
		hbbpMix := analyzer.Mix(ev.Profile.Prog, ev.Profile.BBECs,
			analyzer.Options{Scope: analyzer.ScopeUser, LiveText: true})
		res.Measured[v] = fitterCell(hbbpMix, scale, usPerTrack, ev.ErrHBBP)
	}
	return res, nil
}

// tracks2us converts scaled cycles per track into microseconds.
const tracks2us = ClockHz / 1e6

// trackCount recovers how many tracks the evaluated run fitted: the
// fit_track function's entry block executions.
func trackCount(ev *WorkloadEval) float64 {
	fit := ev.Profile.Prog.FuncByName("fit_track")
	n := ev.refBBECs[fit.Entry().ID]
	if n == 0 {
		return 1
	}
	return n
}

// fitterCell aggregates a mix into the Table 6 rows.
func fitterCell(mix metrics.Mix, scale, usPerTrack, avgW float64) Table6Cell {
	cell := Table6Cell{TimePerTrack: usPerTrack, AvgWErr: avgW}
	for op, n := range mix {
		info := op.Info()
		switch info.Ext {
		case isa.X87:
			cell.X87Inst += n * scale
		case isa.SSE:
			cell.SSEInst += n * scale
		case isa.AVX:
			cell.AVXInst += n * scale
		}
		if op == isa.CALL {
			cell.Calls += n * scale
		}
	}
	return cell
}

// Render prints the two-half table.
func (t *Table6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 6: expected vs measured values (millions) for the Fitter benchmark\n")
	fmt.Fprintf(&sb, "%-10s %-14s", "", "")
	for _, v := range t.Variants {
		fmt.Fprintf(&sb, " %10s", v)
	}
	sb.WriteByte('\n')
	half := func(label string, cells map[workloads.FitterVariant]Table6Cell) {
		rows := []struct {
			name string
			get  func(Table6Cell) float64
			fmtS string
		}{
			{"x87 inst", func(c Table6Cell) float64 { return c.X87Inst }, "%10.0f"},
			{"SSE inst", func(c Table6Cell) float64 { return c.SSEInst }, "%10.0f"},
			{"AVX inst", func(c Table6Cell) float64 { return c.AVXInst }, "%10.0f"},
			{"CALLs", func(c Table6Cell) float64 { return c.Calls }, "%10.0f"},
			{"Time/track", func(c Table6Cell) float64 { return c.TimePerTrack }, "%8.2fus"},
		}
		for i, row := range rows {
			lbl := ""
			if i == 0 {
				lbl = label
			}
			fmt.Fprintf(&sb, "%-10s %-14s", lbl, row.name)
			for _, v := range t.Variants {
				fmt.Fprintf(&sb, " "+row.fmtS, row.get(cells[v]))
			}
			sb.WriteByte('\n')
		}
	}
	half("Expected", t.Expected)
	half("Measured", t.Measured)
	fmt.Fprintf(&sb, "%-10s %-14s", "", "AvgW Err")
	for _, v := range t.Variants {
		fmt.Fprintf(&sb, " %9.2f%%", t.Measured[v].AvgWErr*100)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// ---------------------------------------------------------------- Table 7

// Table7Result reproduces Table 7: per-mnemonic instruction counts
// (millions) for the prime benchmark — SDE on the user copy, HBBP on
// both the user copy and the kernel module copy that SDE cannot see.
type Table7Result struct {
	Mnemonics []isa.Op
	// SDEUser, HBBPKernel and HBBPUser are counts in millions.
	SDEUser, HBBPKernel, HBBPUser    map[isa.Op]float64
	TotalSDE, TotalKernel, TotalUser float64
}

// Table7 runs the kernel-prime workload.
func (r *Runner) Table7() (*Table7Result, error) {
	ev, err := r.eval("kernel-prime")
	if err != nil {
		return nil, err
	}
	prof := ev.Profile
	scale := float64(ev.Scale) / 1e6

	hbbpUser := scaleMix(analyzer.Mix(prof.Prog, prof.BBECs, analyzer.Options{
		Scope: analyzer.ScopeUser, LiveText: true, Function: "hello_u",
	}), scale)
	hbbpKernel := scaleMix(analyzer.Mix(prof.Prog, prof.BBECs, analyzer.Options{
		Scope: analyzer.ScopeKernel, LiveText: true, Function: "hello_k",
	}), scale)
	// The SDE column reports the hello_u function only, like the paper.
	sdeUserFn := scaleMix(analyzer.MixFromExact(prof.Prog, uintBBECs(ev), analyzer.Options{
		Scope: analyzer.ScopeUser, LiveText: true, Function: "hello_u",
	}), scale)

	res := &Table7Result{
		SDEUser:    sdeUserFn,
		HBBPKernel: hbbpKernel,
		HBBPUser:   hbbpUser,
	}
	res.Mnemonics = table7Mnemonics(sdeUserFn)
	for _, m := range res.Mnemonics {
		res.TotalSDE += sdeUserFn[m]
		res.TotalKernel += hbbpKernel[m]
		res.TotalUser += hbbpUser[m]
	}
	return res, nil
}

func uintBBECs(ev *WorkloadEval) []uint64 {
	out := make([]uint64, len(ev.refBBECs))
	for i, v := range ev.refBBECs {
		out[i] = uint64(v)
	}
	return out
}

func scaleMix(m metrics.Mix, scale float64) map[isa.Op]float64 {
	out := make(map[isa.Op]float64, len(m))
	for op, v := range m {
		out[op] = v * scale
	}
	return out
}

// table7Mnemonics returns the loop-body mnemonics sorted by name, the
// paper's row set.
func table7Mnemonics(mix map[isa.Op]float64) []isa.Op {
	var ops []isa.Op
	for op := range mix {
		switch op.Info().Cat {
		case isa.CatCall, isa.CatReturn, isa.CatStack:
			continue // scaffolding rows are not in the paper's table
		}
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	return ops
}

// Render prints the three-column comparison.
func (t *Table7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 7: instructions in the kernel sample (millions)\n")
	fmt.Fprintf(&sb, "%-10s %12s %14s %12s\n", "Function",
		"SDE hello_u", "HBBP hello.ko", "HBBP hello_u")
	for _, op := range t.Mnemonics {
		fmt.Fprintf(&sb, "%-10s %12.0f %14.0f %12.0f\n", op,
			t.SDEUser[op], t.HBBPKernel[op], t.HBBPUser[op])
	}
	fmt.Fprintf(&sb, "%-10s %12.0f %14.0f %12.0f\n", "Total",
		t.TotalSDE, t.TotalKernel, t.TotalUser)
	return sb.String()
}

// ---------------------------------------------------------------- Table 8

// Table8Row is one (instruction set, packing) bucket in billions.
type Table8Row struct {
	InstSet string
	Packing string
	Before  float64
	After   float64
}

// Table8Result reproduces Table 8: the HBBP packing view of CLForward
// before and after the vectorization fix.
type Table8Result struct {
	Rows        []Table8Row
	TotalBefore float64
	TotalAfter  float64
}

// table8Workloads is the CLForward build pair. Order matters: the
// builder reads before-fix at index 0.
var table8Workloads = []string{"clforward-before", "clforward-after"}

// Table8 profiles both CLForward builds and renders the ext x packing
// pivot. The fixed build's invocation count is calibrated against the
// pre-fix build through the registry's memoized calibration, so the
// two builds evaluate concurrently without ordering concerns.
func (r *Runner) Table8() (*Table8Result, error) {
	evs, err := r.evalNamed(table8Workloads)
	if err != nil {
		return nil, err
	}
	views := map[bool]map[string]float64{}
	var totals [2]float64
	for idx, fixed := range []bool{false, true} {
		ev := evs[idx]
		tab := analyzer.BuildPivot(ev.Profile.Prog, ev.Profile.BBECs,
			analyzer.Options{Scope: analyzer.ScopeUser, LiveText: true})
		view := map[string]float64{}
		scale := float64(ev.Scale) / 1e9 // paper reports billions
		for _, row := range analyzer.PackingView(tab) {
			view[row.Keys[0]+"/"+row.Keys[1]] = row.Value * scale
		}
		views[fixed] = view
		totals[idx] = tab.Total(nil) * scale
	}
	res := &Table8Result{TotalBefore: totals[0], TotalAfter: totals[1]}
	keys := map[string]bool{}
	for _, v := range views {
		for k := range v {
			keys[k] = true
		}
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		parts := strings.SplitN(k, "/", 2)
		res.Rows = append(res.Rows, Table8Row{
			InstSet: parts[0], Packing: parts[1],
			Before: views[false][k], After: views[true][k],
		})
	}
	return res, nil
}

// Render prints the before/after packing view.
func (t *Table8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 8: HBBP view of CLForward vectorization (billions of instructions)\n")
	fmt.Fprintf(&sb, "%-9s %-8s %8s %8s\n", "INST SET", "PACKING", "BEFORE", "AFTER")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-9s %-8s %8.1f %8.1f\n", row.InstSet, row.Packing, row.Before, row.After)
	}
	fmt.Fprintf(&sb, "%-9s %-8s %8.1f %8.1f\n", "TOTAL", "", t.TotalBefore, t.TotalAfter)
	return sb.String()
}
