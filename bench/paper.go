package main

import (
	"fmt"
	"strconv"
	"time"

	"hbbp/internal/analyzer"
	"hbbp/internal/bbec"
	"hbbp/internal/collector"
	"hbbp/internal/core"
	"hbbp/internal/cpu"
	"hbbp/internal/metrics"
	"hbbp/internal/profstore"
	"hbbp/internal/sde"
	"hbbp/internal/workloads"
)

// paperPath is the paper's profiling pipeline over a list of workloads.
// One op profiles one workload: collection under the PMU, HBBP analysis
// with the shipped model, capture into a stored profile, and encoding.
type paperPath struct {
	seed  int64
	ws    []*workloads.Workload
	model *core.Model
	buf   []byte // encode scratch, valid until the next op
}

// newPaperPath builds the named workloads from a fresh registry, so
// every set-up pays compilation and calibration again. scale below 1
// shrinks each workload's repeat count (the smoke test's short runs).
func newPaperPath(names []string, seed int64, scale float64, tr *tracer) (*paperPath, error) {
	reg := workloads.NewRegistry()
	var register func(name string) error
	register = func(name string) error {
		if _, ok := reg.Lookup(name); ok {
			return nil
		}
		spec, ok := workloads.Default().Lookup(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if spec.RepeatOf != "" {
			if err := register(spec.RepeatOf); err != nil {
				return err
			}
		}
		return reg.Register(spec)
	}
	pp := &paperPath{seed: seed, model: core.DefaultModel()}
	for _, name := range names {
		if err := register(name); err != nil {
			return nil, err
		}
		sp := tr.begin("workloads.build", 0, 0)
		w, err := reg.Build(name)
		tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		if scale > 0 && scale < 1 {
			w = w.Scaled(scale)
		}
		pp.ws = append(pp.ws, w)
	}
	return pp, nil
}

func (pp *paperPath) options(w *workloads.Workload) collector.Options {
	return collector.Options{Class: w.Class, Scale: w.Scale, Seed: pp.seed,
		Repeat: w.Repeat, Layout: w.Layout}
}

// op profiles workload i once. It returns the encoded capture (valid
// until the next op), the collection, and the op's wall time.
func (pp *paperPath) op(i int, tr *tracer) ([]byte, *collector.Result, time.Duration, error) {
	w := pp.ws[i]
	t0 := time.Now()
	id := tr.newOp()
	root := tr.begin("paper.op", 0, id)
	sp := tr.begin("collector.collect", root, id)
	res, err := collector.Collect(w.Prog, w.Entry, pp.options(w))
	if err != nil {
		tr.end(sp, 0)
		tr.end(root, 0)
		return nil, nil, time.Since(t0), err
	}
	retired := int64(res.Stats.Retired)
	tr.end(sp, retired)
	sp = tr.begin("core.analyze", root, id)
	prof, err := core.Analyze(w.Prog, pp.model, res, true)
	tr.end(sp, retired)
	if err != nil {
		tr.end(root, 0)
		return nil, res, time.Since(t0), err
	}
	sp = tr.begin("core.capture", root, id)
	c := core.Capture(prof, w.Name)
	tr.end(sp, 1)
	sp = tr.begin("profstore.encode", root, id)
	pp.buf, err = profstore.AppendSave(pp.buf[:0], c)
	tr.end(sp, int64(len(pp.buf)))
	tr.end(root, retired)
	d := time.Since(t0)
	if err == nil && tr != nil {
		err = pp.siblings(w, res, id, tr)
	}
	return pp.buf, res, d, err
}

// siblings re-runs pieces of op beside it, outside its span, for the
// per-layer ledger: the clean run and the SDE run of the same execution
// (Table 1's host-side columns), and each BBEC estimator on the op's own
// collection.
func (pp *paperPath) siblings(w *workloads.Workload, res *collector.Result, id int64, tr *tracer) error {
	cfg := cpu.Config{Seed: pp.seed, Repeat: w.Repeat, Layout: w.Layout}
	sp := tr.begin("cpu.clean", 0, id)
	st, err := cpu.Run(w.Prog, w.Entry, cfg)
	tr.end(sp, int64(st.Retired))
	if err != nil {
		return err
	}
	sp = tr.begin("sde.run", 0, id)
	st, err = cpu.Run(w.Prog, w.Entry, cfg, sde.NewFromStatic(w.SDE))
	tr.end(sp, int64(st.Retired))
	if err != nil {
		return err
	}
	retired := int64(res.Stats.Retired)
	sp = tr.begin("bbec.from_ebs", 0, id)
	bbec.FromEBS(w.Prog, res.EBSIPs, res.EBSPeriod)
	tr.end(sp, retired)
	sp = tr.begin("bbec.from_lbr", 0, id)
	bbec.FromLBR(w.Prog, res.Stacks, res.LBRPeriod, bbec.LBROptions{KernelLivePatched: true})
	tr.end(sp, retired)
	sp = tr.begin("bbec.detect_bias", 0, id)
	bbec.DetectBias(w.Prog, res.Stacks, bbec.DefaultBiasOptions())
	tr.end(sp, retired)
	return nil
}

// captureAll profiles every workload once and returns copies of the
// encoded captures: the warm-up pass of set-up.
func (pp *paperPath) captureAll(tr *tracer) ([][]byte, error) {
	out := make([][]byte, len(pp.ws))
	for i := range pp.ws {
		c, _, _, err := pp.op(i, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pp.ws[i].Name, err)
		}
		out[i] = append([]byte(nil), c...)
	}
	return out, nil
}

// accuracy is what the paper's path computes, as opposed to how fast:
// deterministic for a seed, so it repeats exactly.
type accuracy struct {
	errPct       float64 // mean avg weighted error of the user-mode HBBP mix against SDE
	overheadPct  float64 // mean modelled collection overhead
	pmisPerMinst float64
	lostPerKpmi  float64
	lbrShare     float64 // share of estimated instruction mass whose block chose LBR
}

// accuracy runs every workload once, untimed, with the SDE reference
// attached to the collection, and scores it as the paper does: user-mode
// mixes, workloads the reference miscounts left out of the error mean.
func (pp *paperPath) accuracy() (accuracy, error) {
	var a accuracy
	var scored int
	var pmis, lost, retired uint64
	var lbrMass, mass float64
	mixOpts := analyzer.Options{Scope: analyzer.ScopeUser, LiveText: true}
	for _, w := range pp.ws {
		ref := sde.NewFromStatic(w.SDE)
		res, err := collector.Collect(w.Prog, w.Entry, pp.options(w), ref)
		if err != nil {
			return a, fmt.Errorf("%s: %w", w.Name, err)
		}
		prof, err := core.Analyze(w.Prog, pp.model, res, true)
		if err != nil {
			return a, fmt.Errorf("%s: %w", w.Name, err)
		}
		if !w.SDEBug {
			refMix := analyzer.ToMix(ref.Mnemonics())
			a.errPct += 100 * metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.BBECs, mixOpts))
			scored++
		}
		a.overheadPct += 100 * (res.OverheadFactor() - 1)
		pmis += res.PMIs
		lost += res.LostEBS + res.LostLBR
		retired += res.Stats.Retired
		for id, src := range prof.Choices {
			m := prof.BBECs[id] * float64(len(w.Prog.BlockByID(id).EffectiveOps()))
			mass += m
			if src == core.SourceLBR {
				lbrMass += m
			}
		}
	}
	if scored == 0 || retired == 0 || pmis == 0 || mass == 0 {
		return a, fmt.Errorf("accuracy pass over %d workloads measured nothing", len(pp.ws))
	}
	// metrics.AvgWeightedError sums its per-mnemonic terms in map order,
	// which moves the last bits from run to run; twelve significant
	// digits make the figure repeat exactly.
	a.errPct, _ = strconv.ParseFloat(strconv.FormatFloat(a.errPct/float64(scored), 'g', 12, 64), 64)
	a.overheadPct /= float64(len(pp.ws))
	a.pmisPerMinst = float64(pmis) / float64(retired) * 1e6
	a.lostPerKpmi = float64(lost) / float64(pmis) * 1e3
	a.lbrShare = lbrMass / mass
	return a, nil
}
