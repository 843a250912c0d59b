package harness

import (
	"fmt"
	"strings"

	"hbbp/internal/analyzer"
	"hbbp/internal/isa"
	"hbbp/internal/metrics"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Result reproduces Figure 1: the decision tree learned from the
// HBBP training data, with Gini impurities and sample counts, plus the
// feature importances the paper quotes.
type Figure1Result struct {
	TreeText    string
	RootRule    string
	Cutoff      float64
	Importances map[string]float64
}

// Figure1 trains (or reuses) the model and renders the tree.
func (r *Runner) Figure1() (*Figure1Result, error) {
	model, err := r.Model()
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		TreeText:    model.Tree.Render(),
		RootRule:    model.Tree.RootRule(),
		Cutoff:      model.LenCutoff,
		Importances: map[string]float64{},
	}
	for i, imp := range model.Tree.FeatureImportances() {
		res.Importances[model.Tree.FeatureNames[i]] = imp
	}
	return res, nil
}

// Render prints the tree and importances.
func (f *Figure1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: decision tree learned from HBBP training data\n")
	sb.WriteString(f.TreeText)
	fmt.Fprintf(&sb, "root rule: %s\n", f.RootRule)
	fmt.Fprintf(&sb, "length cutoff: %.1f (paper: ~18)\n", f.Cutoff)
	sb.WriteString("feature importances:\n")
	for _, name := range []string{"block_len", "bias", "log_exec", "long_latency", "mem_frac"} {
		fmt.Fprintf(&sb, "  %-14s %.3f\n", name, f.Importances[name])
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 2

// Figure2Result reproduces Figure 2: per-SPEC-benchmark SDE and HBBP
// overheads plus average weighted errors for HBBP, LBR and EBS, and the
// suite-level aggregates quoted in Section VIII.A.
type Figure2Result struct {
	Rows []*WorkloadEval
	// Overall averages exclude SDE-bug workloads, like the paper
	// excludes x264ref.
	MeanHBBP, MeanLBR, MeanEBS float64
	// Excluded lists the SDE-bug benchmarks left out of the averages.
	Excluded []string
}

// Figure2 evaluates the full suite.
func (r *Runner) Figure2() (*Figure2Result, error) {
	suite, err := r.SuiteEvals()
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Rows: suite}
	var n float64
	for _, ev := range suite {
		if ev.SDEBug {
			res.Excluded = append(res.Excluded, ev.Name)
			continue
		}
		res.MeanHBBP += ev.ErrHBBP
		res.MeanLBR += ev.ErrLBR
		res.MeanEBS += ev.ErrEBS
		n++
	}
	if n > 0 {
		res.MeanHBBP /= n
		res.MeanLBR /= n
		res.MeanEBS /= n
	}
	return res, nil
}

// Render prints the per-benchmark rows and aggregates.
func (f *Figure2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: SDE vs HBBP overhead and avg weighted errors on SPEC2006\n")
	fmt.Fprintf(&sb, "%-12s %8s %9s %8s %8s %8s  %s\n",
		"benchmark", "SDE", "HBBP ovh", "errHBBP", "errLBR", "errEBS", "note")
	for _, ev := range f.Rows {
		note := ""
		if ev.SDEBug {
			note = "excluded (SDE miscounts; PMU counting verification)"
		}
		fmt.Fprintf(&sb, "%-12s %7.2fx %8.3f%% %7.2f%% %7.2f%% %7.2f%%  %s\n",
			ev.Name, ev.SDEFactor, ev.HBBPOverhead*100,
			ev.ErrHBBP*100, ev.ErrLBR*100, ev.ErrEBS*100, note)
	}
	fmt.Fprintf(&sb, "%-12s %8s %9s %7.2f%% %7.2f%% %7.2f%%  (paper: 1.83%% / 3.15%% / 4.43%%)\n",
		"OVERALL", "", "", f.MeanHBBP*100, f.MeanLBR*100, f.MeanEBS*100)
	return sb.String()
}

// ---------------------------------------------------------------- Figure 3

// Figure3Row is one mnemonic's execution count and HBBP error.
type Figure3Row struct {
	Mnemonic isa.Op
	Count    float64 // reference executions (paper-scale)
	HBBPErr  float64
}

// Figure3Result reproduces Figure 3: Test40's top-20 instruction
// retiring mnemonics with HBBP's per-mnemonic errors.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3 profiles Test40 and extracts the top-20 view.
func (r *Runner) Figure3() (*Figure3Result, error) {
	rows, err := r.test40PerMnemonic()
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for _, row := range rows {
		res.Rows = append(res.Rows, Figure3Row{
			Mnemonic: row.Mnemonic, Count: row.Count, HBBPErr: row.HBBP,
		})
	}
	return res, nil
}

// Render prints counts (bars in the paper) and error dots.
func (f *Figure3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Test40 top-20 mnemonics: counts and HBBP error\n")
	fmt.Fprintf(&sb, "%-12s %14s %9s\n", "mnemonic", "count", "err")
	for _, row := range f.Rows {
		fmt.Fprintf(&sb, "%-12s %14.0f %8.2f%%\n", row.Mnemonic, row.Count, row.HBBPErr*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 4

// Figure4Row is one mnemonic's error under each method.
type Figure4Row struct {
	Mnemonic       isa.Op
	Count          float64
	HBBP, LBR, EBS float64
}

// Figure4Result reproduces Figure 4: Test40 per-mnemonic errors for
// HBBP, LBR and EBS on the top-20 mnemonics.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4 profiles Test40 and compares all three methods per mnemonic.
func (r *Runner) Figure4() (*Figure4Result, error) {
	rows, err := r.test40PerMnemonic()
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Rows: rows}, nil
}

// Render prints the three error series.
func (f *Figure4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 4: Test40 per-mnemonic error: HBBP vs LBR vs EBS (top 20)\n")
	fmt.Fprintf(&sb, "%-12s %9s %9s %9s\n", "mnemonic", "HBBP", "LBR", "EBS")
	for _, row := range f.Rows {
		fmt.Fprintf(&sb, "%-12s %8.2f%% %8.2f%% %8.2f%%\n",
			row.Mnemonic, row.HBBP*100, row.LBR*100, row.EBS*100)
	}
	return sb.String()
}

// test40PerMnemonic computes the shared Figure 3/4 data: top-20
// mnemonics by reference count with per-method errors.
func (r *Runner) test40PerMnemonic() ([]Figure4Row, error) {
	ev, err := r.eval("test40")
	if err != nil {
		return nil, err
	}
	prof := ev.Profile
	opts := analyzer.Options{Scope: analyzer.ScopeUser, LiveText: true}
	hbbpMix := analyzer.Mix(prof.Prog, prof.BBECs, opts)
	lbrMix := analyzer.Mix(prof.Prog, prof.LBR, opts)
	ebsMix := analyzer.Mix(prof.Prog, prof.EBS, opts)

	var rows []Figure4Row
	for _, op := range ev.RefMix.TopN(20) {
		ref := ev.RefMix[op]
		rows = append(rows, Figure4Row{
			Mnemonic: op,
			Count:    ref * float64(ev.Scale),
			HBBP:     metrics.Error(ref, hbbpMix[op]),
			LBR:      metrics.Error(ref, lbrMix[op]),
			EBS:      metrics.Error(ref, ebsMix[op]),
		})
	}
	return rows, nil
}
