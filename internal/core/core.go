// Package core implements HBBP — Hybrid Basic Block Profiling, the
// paper's contribution (Section IV).
//
// Given the two PMU-derived BBEC estimates (EBS and LBR) for a profiled
// run, HBBP chooses, per basic block, which estimate to trust. The
// choice is a classification-tree rule learned offline from training
// workloads whose ground truth is known from software instrumentation:
// each training block is labelled with whichever estimator came closer,
// features are simple static/dynamic block attributes (instruction
// length, bias flag, execution count, instruction-related information),
// and samples are weighted by execution count. The learned rule is
// dominated by block length with a cutoff near 18 instructions — blocks
// at or below the cutoff use LBR, longer blocks use EBS.
package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"hbbp/internal/bbec"
	"hbbp/internal/collector"
	"hbbp/internal/cpu"
	"hbbp/internal/mltree"
	"hbbp/internal/program"
)

// Source identifies which estimator supplies a block's BBEC.
type Source uint8

// Data sources. The numeric values double as mltree class indices.
const (
	SourceLBR Source = iota
	SourceEBS
)

// String returns "LBR" or "EBS".
func (s Source) String() string {
	if s == SourceEBS {
		return "EBS"
	}
	return "LBR"
}

// ClassNames returns the mltree class-name vector in Source order.
func ClassNames() []string { return []string{"LBR", "EBS"} }

// FeatureNames lists the block features in vector order. They mirror
// Section IV.B: "basic block lengths, instruction-related information,
// execution counts and bias flags".
func FeatureNames() []string {
	return []string{
		"block_len",    // instruction length of the block
		"bias",         // LBR entry[0] anomaly flag (0/1)
		"log_exec",     // log10(1 + estimated executions)
		"long_latency", // block contains a long-latency instruction (0/1)
		"mem_frac",     // fraction of memory-touching instructions
	}
}

// Features computes the feature vector of one block. execEstimate is
// the analysis-time execution estimate (available without ground
// truth); biased is the block's bias flag from LBR anomaly detection.
func Features(blk *program.Block, biased bool, execEstimate float64) []float64 {
	var longLat, mem float64
	for _, op := range blk.Ops {
		info := op.Info()
		if info.IsLongLatency() {
			longLat = 1
		}
		if info.ReadsMem || info.WritesMem {
			mem++
		}
	}
	biasF := 0.0
	if biased {
		biasF = 1
	}
	if execEstimate < 0 {
		execEstimate = 0
	}
	return []float64{
		float64(blk.Len()),
		biasF,
		math.Log10(1 + execEstimate),
		longLat,
		mem / float64(max(1, blk.Len())),
	}
}

// Model is a trained HBBP chooser.
type Model struct {
	// Tree is the learned classification tree. When nil, the model
	// falls back to the published threshold rule.
	Tree *mltree.Tree
	// LenCutoff is the fallback rule's block-length cutoff: length <=
	// cutoff selects LBR. The paper's learned value is 18.
	LenCutoff float64
}

// DefaultLenCutoff is the paper's published rule: blocks with 18
// instructions or fewer use LBR data, longer blocks use EBS data.
const DefaultLenCutoff = 18

// MinEBSSamples is the minimum per-block EBS sample support below which
// the hybrid falls back to the LBR value even when the rule prefers
// EBS.
const MinEBSSamples = 24

// DefaultModel returns the shipped rule-of-thumb model (Figure 1's
// outcome) for use without local training.
func DefaultModel() *Model { return &Model{LenCutoff: DefaultLenCutoff} }

// Choose returns the data source for a feature vector.
func (m *Model) Choose(features []float64) Source {
	if m.Tree != nil {
		return Source(m.Tree.Predict(features))
	}
	if features[0] <= m.LenCutoff {
		return SourceLBR
	}
	return SourceEBS
}

// Describe summarises the model's decision rule.
func (m *Model) Describe() string {
	if m.Tree != nil {
		if rule := m.Tree.RootRule(); rule != "" {
			return "learned tree: " + rule
		}
		return "learned tree (single leaf)"
	}
	return fmt.Sprintf("threshold rule: block_len <= %.0f -> LBR else EBS", m.LenCutoff)
}

// Hybrid combines the two estimates into the HBBP BBECs and reports the
// per-block choices. ebs, lbr and biasFlags are indexed by block ID.
func (m *Model) Hybrid(p *program.Program, ebs, lbr []float64, biasFlags []bool) (counts []float64, choices []Source) {
	n := p.NumBlocks()
	counts = make([]float64, n)
	choices = make([]Source, n)
	for id := 0; id < n; id++ {
		blk := p.BlockByID(id)
		biased := biasFlags != nil && biasFlags[id]
		est := (ebs[id] + lbr[id]) / 2
		src := m.Choose(Features(blk, biased, est))
		choices[id] = src
		if src == SourceEBS {
			counts[id] = ebs[id]
		} else {
			counts[id] = lbr[id]
		}
	}
	return counts, choices
}

// Options configures an end-to-end HBBP profiling run.
type Options struct {
	// Collector configures sampling (periods, scale, seed).
	Collector collector.Options
	// KernelLivePatched re-patches static kernel text from the live
	// image before LBR analysis (Section III.C's remedy). On by
	// default through DefaultOptions.
	KernelLivePatched bool
}

// DefaultOptions returns the tool's standard configuration for a
// workload of the given runtime class.
func DefaultOptions(class collector.RuntimeClass, seed int64) Options {
	return Options{
		Collector:         collector.Options{Class: class, Seed: seed},
		KernelLivePatched: true,
	}
}

// Profile is a completed HBBP profiling run.
type Profile struct {
	Prog *program.Program
	// BBECs are the hybrid per-block execution counts (block ID
	// indexed).
	BBECs []float64
	// EBS and LBR are the raw single-source estimates.
	EBS, LBR []float64
	// Choices records the per-block data source decisions.
	Choices []Source
	// Bias is the LBR anomaly report.
	Bias bbec.BiasReport
	// Collection is the underlying raw collection result.
	Collection *collector.Result
}

// Run profiles entry under the model: one collection pass, both
// estimators, bias detection, then the per-block hybrid choice. Extra
// listeners observe the same execution (e.g. reference instrumentation
// for evaluation runs).
func Run(p *program.Program, entry *program.Function, model *Model, opts Options, extra ...cpu.Listener) (*Profile, error) {
	res, err := collector.Collect(p, entry, opts.Collector, extra...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return Analyze(p, model, res, opts.KernelLivePatched)
}

// AnalyzeReplay reconstructs a profile from a serialized collection:
// it replays the perffile stream through the same sinks a live run
// dispatches to, then analyzes the result. The file records samples,
// not configuration, so the sampling periods and scale are resolved
// from opts, which must match the options used at collection time.
// Run statistics (cycle counts, PMI totals) are not in the file either;
// the returned profile's overhead model reports a clean factor of 1.
func AnalyzeReplay(p *program.Program, model *Model, rd io.Reader, opts Options) (*Profile, error) {
	ctx := opts.Collector.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := collector.ReplayResultContext(ctx, rd, opts.Collector.Sinks...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.EBSPeriod, res.LBRPeriod = opts.Collector.Periods()
	res.Scale = opts.Collector.EffectiveScale()
	return Analyze(p, model, res, opts.KernelLivePatched)
}

// Analyze computes the HBBP profile from an existing collection. It
// consumes the sink outputs (EBS IPs, LBR stacks) in place — no
// copies, no reparse — and works identically on a live Result and on
// one reconstructed from a perffile via AnalyzeReplay. It never writes
// to res, so one Result may be analyzed any number of times, at once.
func Analyze(p *program.Program, model *Model, res *collector.Result, kernelLivePatched bool) (*Profile, error) {
	if model == nil {
		model = DefaultModel()
	}
	ebsEst, lbrEst, bias := estimate(p, res, kernelLivePatched)
	hybrid, choices := model.Hybrid(p, ebsEst, lbrEst, bias.BlockBias)
	// Low-support guard: an EBS value resting on a handful of samples
	// is noise; fall back to the LBR value there. The threshold is in
	// samples: estimate * len / period.
	for id := range hybrid {
		if choices[id] != SourceEBS {
			continue
		}
		blk := p.BlockByID(id)
		samples := ebsEst[id] * float64(blk.Len()) / float64(res.EBSPeriod)
		if samples < MinEBSSamples && lbrEst[id] > 0 {
			choices[id] = SourceLBR
			hybrid[id] = lbrEst[id]
		}
	}
	return &Profile{
		Prog:       p,
		BBECs:      hybrid,
		EBS:        ebsEst,
		LBR:        lbrEst,
		Choices:    choices,
		Bias:       bias,
		Collection: res,
	}, nil
}

// estimate is the estimator sequence of an analysis: both BBEC
// estimates, the LBR mass normalization and bias detection. The LBR
// estimate and the bias statistics come from res.Estimate when the
// collection credited them for p under the same options; otherwise
// (replay, kernelLivePatched false, a hand-built Result) the same
// accumulator walks res.Stacks here. It never writes to res.
func estimate(p *program.Program, res *collector.Result, kernelLivePatched bool) (ebs, lbr []float64, bias bbec.BiasReport) {
	ebs, _ = bbec.FromEBS(p, res.EBSIPs, res.EBSPeriod)
	lbrOpts := bbec.LBROptions{KernelLivePatched: kernelLivePatched}
	biasOpts := bbec.DefaultBiasOptions()
	acc := res.Estimate
	if acc == nil || !acc.Matches(p, lbrOpts, biasOpts, len(res.Stacks)) {
		acc = bbec.NewAccumulator(p, lbrOpts, biasOpts)
		acc.Add(res.Stacks)
	}
	lbr, _ = acc.LBR(res.LBRPeriod)
	normalizeLBRMass(p, ebs, lbr)
	return ebs, lbr, acc.Bias(res.Stacks)
}

// normalizeLBRMass rescales the LBR estimate so each module's total
// retired-instruction mass matches the EBS estimate's.
//
// LBR anomalies (truncated stacks, dropped streams) lose count mass;
// EBS mass is unbiased — every retirement is equally likely to be
// sampled, and skid rarely crosses module boundaries — so the EBS
// channel, collected in the same run, provides a calibration target per
// module. This is the "adjusted sample data" step: after it, LBR's
// residual errors are relative distortions within a module, which the
// per-block hybrid choice addresses.
func normalizeLBRMass(p *program.Program, ebs, lbr []float64) {
	type mass struct{ e, l float64 }
	byMod := make(map[*program.Module]*mass)
	for _, blk := range p.Blocks() {
		m := byMod[blk.Fn.Mod]
		if m == nil {
			m = &mass{}
			byMod[blk.Fn.Mod] = m
		}
		n := float64(len(blk.EffectiveOps()))
		m.e += ebs[blk.ID] * n
		m.l += lbr[blk.ID] * n
	}
	for _, blk := range p.Blocks() {
		m := byMod[blk.Fn.Mod]
		if m.e > 0 && m.l > 0 {
			lbr[blk.ID] *= m.e / m.l
		}
	}
}
