package harness

import (
	"fmt"
	"strings"

	"hbbp/internal/collector"
	"hbbp/internal/pmu"
	"hbbp/internal/workloads"
)

// ---------------------------------------------------------------- Table 1

// Table1Row compares clean and instrumented wall-clock runtime for one
// workload or group.
type Table1Row struct {
	Name         string
	CleanSeconds float64
	SDESeconds   float64
	Factor       float64
}

// Table1Result reproduces Table 1: "a comparison of wall clock runtimes
// of select benchmarks: clean (1), using software instrumentation with
// SDE (2)".
type Table1Result struct {
	Rows []Table1Row
}

// table1Extras is the non-SPEC benchmark set of Table 1. Order
// matters: the builder treats the last entry (hydro-post) as its own
// row.
var table1Extras = []string{
	"test40",
	"fitter-sse",
	"fitter-x87",
	"clforward-before",
	"kernel-prime",
	"hydro-post",
}

// Table1 measures the SPEC suite (aggregate plus the povray and
// omnetpp extremes), the non-SPEC benchmark set, and the Hydro-post
// benchmark.
func (r *Runner) Table1() (*Table1Result, error) {
	suite, err := r.SuiteEvals()
	if err != nil {
		return nil, err
	}
	var all, allSDE float64
	byName := map[string]*WorkloadEval{}
	for _, ev := range suite {
		all += ev.CleanSeconds
		allSDE += ev.SDESeconds
		byName[ev.Name] = ev
	}
	res := &Table1Result{}
	add := func(name string, clean, sdeSec float64) {
		res.Rows = append(res.Rows, Table1Row{
			Name: name, CleanSeconds: clean, SDESeconds: sdeSec,
			Factor: sdeSec / clean,
		})
	}
	add("SPEC all", all, allSDE)
	for _, name := range []string{"povray", "omnetpp"} {
		ev := byName[name]
		add("SPEC "+name, ev.CleanSeconds, ev.SDESeconds)
	}

	evs, err := r.evalNamed(table1Extras)
	if err != nil {
		return nil, err
	}
	hydro := evs[len(evs)-1]
	var others, othersSDE float64
	for _, ev := range evs[:len(evs)-1] {
		others += ev.CleanSeconds
		othersSDE += ev.SDESeconds
	}
	add("All other benchmarks", others, othersSDE)
	add("Hydro-post benchmark", hydro.CleanSeconds, hydro.SDESeconds)
	return res, nil
}

// Render prints the table in the paper's layout.
func (t *Table1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1: wall clock runtimes [s]: clean vs software instrumentation (SDE)\n")
	fmt.Fprintf(&sb, "%-24s %12s %12s %8s\n", "Benchmark", "(1) Clean", "(2) SDE", "Factor")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-24s %12.0f %12.0f %7.2fx\n",
			row.Name, row.CleanSeconds, row.SDESeconds, row.Factor)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Result reproduces Table 2: instruction-specific event support
// across PMU generations.
type Table2Result struct {
	Events      []pmu.Event
	Generations []pmu.Generation
	Support     map[pmu.Generation]map[pmu.Event]pmu.Support
}

// Table2 builds the capability matrix. It is static — the paper's point
// is the trend, "dictated by a general trend of reducing PMU
// complexity".
func Table2() *Table2Result {
	res := &Table2Result{
		Events:      pmu.InstructionSpecificEvents(),
		Generations: pmu.Generations(),
		Support:     map[pmu.Generation]map[pmu.Event]pmu.Support{},
	}
	for _, g := range res.Generations {
		res.Support[g] = map[pmu.Event]pmu.Support{}
		for _, e := range res.Events {
			res.Support[g][e] = pmu.Supports(g, e)
		}
	}
	return res
}

// rowLabels gives Table 2's human row names.
var table2RowLabels = map[pmu.Event]string{
	pmu.DivCycles: "DIV (cycles)",
	pmu.MathSSEFP: "Math SSE FP",
	pmu.MathAVXFP: "Math AVX FP",
	pmu.IntSIMD:   "INT SIMD",
	pmu.X87Ops:    "X87",
}

// Render prints the matrix.
func (t *Table2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 2: instruction-specific event support on Intel server PMUs\n")
	fmt.Fprintf(&sb, "%-14s", "")
	for _, g := range t.Generations {
		fmt.Fprintf(&sb, " %-18s", fmt.Sprintf("%s (%d)", g, g.Year()))
	}
	sb.WriteByte('\n')
	for _, e := range t.Events {
		fmt.Fprintf(&sb, "%-14s", table2RowLabels[e])
		for _, g := range t.Generations {
			fmt.Fprintf(&sb, " %-18s", t.Support[g][e])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one basic block's BBEC under each method, in millions.
type Table3Row struct {
	BB       int
	EBS, LBR float64
	SDE      float64
	EBSBad   bool // error > 25%
	LBRBad   bool
}

// Table3Result reproduces Table 3: per-block BBECs from EBS and LBR on
// the Fitter SSE variant, against the instrumentation reference, with
// errors above 25% flagged.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 profiles Fitter-SSE and reports the fit_track function's
// blocks plus the main driver's, numbered from 1 as in the paper.
func (r *Runner) Table3() (*Table3Result, error) {
	ev, err := r.eval(workloads.FitterSSE.WorkloadName())
	if err != nil {
		return nil, err
	}
	prof := ev.Profile
	scale := float64(ev.Scale) / 1e6 // counts -> paper-style millions
	res := &Table3Result{}
	prog := prof.Prog
	n := 0
	for _, fn := range []string{"fit_track", "main"} {
		f := prog.FuncByName(fn)
		for _, blk := range f.Blocks {
			n++
			if n > 15 {
				break
			}
			refCount := refBBEC(ev, blk.ID) * scale
			row := Table3Row{
				BB:  n,
				EBS: prof.EBS[blk.ID] * scale,
				LBR: prof.LBR[blk.ID] * scale,
				SDE: refCount,
			}
			if refCount > 0 {
				row.EBSBad = relErr(row.EBS, refCount) > 0.25
				row.LBRBad = relErr(row.LBR, refCount) > 0.25
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func relErr(meas, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	d := meas - ref
	if d < 0 {
		d = -d
	}
	return d / ref
}

// refBBEC recovers the reference execution count of a block from the
// SDE mix side channel: the evaluation keeps exact per-block counts in
// the profile's collection listeners; here we re-derive them from the
// reference instrumenter attached during evalWorkload.
func refBBEC(ev *WorkloadEval, blockID int) float64 {
	return ev.refBBECs[blockID]
}

// Render prints the per-block table.
func (t *Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: BBECs (millions) from EBS and LBR on Fitter (SSE), vs instrumentation\n")
	fmt.Fprintf(&sb, "%3s %10s %10s %10s %s\n", "BB", "EBS", "LBR", "SDE", "flags(>25% error)")
	for _, row := range t.Rows {
		var flags []string
		if row.EBSBad {
			flags = append(flags, "EBS!")
		}
		if row.LBRBad {
			flags = append(flags, "LBR!")
		}
		fmt.Fprintf(&sb, "%3d %10.2f %10.2f %10.2f %s\n",
			row.BB, row.EBS, row.LBR, row.SDE, strings.Join(flags, " "))
	}
	return sb.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one runtime class's sampling periods.
type Table4Row struct {
	Class     collector.RuntimeClass
	EBSPeriod uint64
	LBRPeriod uint64
}

// Table4Result reproduces Table 4: EBS and LBR sampling periods by
// workload runtime.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 lists the period selection rules.
func Table4() *Table4Result {
	res := &Table4Result{}
	for _, c := range []collector.RuntimeClass{
		collector.ClassSeconds, collector.ClassMinuteOrTwo, collector.ClassMinutes,
	} {
		ebs, lbr := collector.PeriodsFor(c)
		res.Rows = append(res.Rows, Table4Row{Class: c, EBSPeriod: ebs, LBRPeriod: lbr})
	}
	return res
}

// Render prints the period table.
func (t *Table4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 4: EBS and LBR sampling periods in HBBP\n")
	fmt.Fprintf(&sb, "%-26s %18s %18s\n", "Runtime", "EBS period", "LBR period")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%-26s %18d %18d\n", row.Class, row.EBSPeriod, row.LBRPeriod)
	}
	return sb.String()
}
