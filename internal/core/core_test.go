package core

import (
	"strings"
	"testing"

	"hbbp/internal/analyzer"
	"hbbp/internal/collector"
	"hbbp/internal/isa"
	"hbbp/internal/metrics"
	"hbbp/internal/program"
	"hbbp/internal/sde"
	"hbbp/internal/workloads"
)

// buildWorkload compiles one registry workload for the tests here and
// in the parity/ablation files.
func buildWorkload(t testing.TB, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.Default().Build(name)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return w
}

func TestSourceStrings(t *testing.T) {
	if SourceLBR.String() != "LBR" || SourceEBS.String() != "EBS" {
		t.Fatal("bad source names")
	}
	names := ClassNames()
	if names[SourceLBR] != "LBR" || names[SourceEBS] != "EBS" {
		t.Fatal("class names out of order")
	}
}

func TestFeaturesVector(t *testing.T) {
	b := program.NewBuilder("f")
	mod := b.Module("m", program.RingUser)
	fn := b.Function(mod, "fn")
	blk := b.Block(fn, isa.MOV, isa.DIV, isa.PUSH, isa.ADD)
	b.Return(blk)
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	f := Features(blk, true, 999)
	if len(f) != len(FeatureNames()) {
		t.Fatalf("feature vector length %d != %d names", len(f), len(FeatureNames()))
	}
	if f[0] != 5 { // MOV DIV PUSH ADD RET_NEAR
		t.Errorf("block_len = %v, want 5", f[0])
	}
	if f[1] != 1 {
		t.Errorf("bias = %v, want 1", f[1])
	}
	if f[2] < 2.9 || f[2] > 3.1 {
		t.Errorf("log_exec = %v, want ~3", f[2])
	}
	if f[3] != 1 {
		t.Errorf("long_latency = %v, want 1 (DIV present)", f[3])
	}
	// MOV reads mem, PUSH writes, RET reads: 3 of 5.
	if f[4] < 0.55 || f[4] > 0.65 {
		t.Errorf("mem_frac = %v, want 0.6", f[4])
	}
}

func TestDefaultModelRule(t *testing.T) {
	m := DefaultModel()
	short := []float64{18, 0, 2, 0, 0.3}
	long := []float64{19, 0, 2, 0, 0.3}
	if m.Choose(short) != SourceLBR {
		t.Error("length 18 should choose LBR (paper: '18 instructions or less')")
	}
	if m.Choose(long) != SourceEBS {
		t.Error("length 19 should choose EBS")
	}
	if !strings.Contains(m.Describe(), "18") {
		t.Errorf("Describe() = %q", m.Describe())
	}
}

func TestHybridSelection(t *testing.T) {
	b := program.NewBuilder("h")
	mod := b.Module("m", program.RingUser)
	fn := b.Function(mod, "fn")
	shortOps := []isa.Op{isa.MOV, isa.ADD}
	longOps := make([]isa.Op, 0, 24)
	for i := 0; i < 24; i++ {
		longOps = append(longOps, isa.ADD)
	}
	shortBlk := b.Block(fn, shortOps...)
	longBlk := b.Block(fn, longOps...)
	b.Fallthrough(shortBlk, longBlk)
	b.Return(longBlk)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ebs := []float64{100, 200}
	lbr := []float64{111, 222}
	counts, choices := DefaultModel().Hybrid(p, ebs, lbr, nil)
	if choices[shortBlk.ID] != SourceLBR || counts[shortBlk.ID] != 111 {
		t.Errorf("short block: %v/%v, want LBR/111", choices[shortBlk.ID], counts[shortBlk.ID])
	}
	if choices[longBlk.ID] != SourceEBS || counts[longBlk.ID] != 200 {
		t.Errorf("long block: %v/%v, want EBS/200", choices[longBlk.ID], counts[longBlk.ID])
	}
}

// collectCorpusRuns profiles the training corpus once per test binary.
var corpusRuns []*TrainingRun

func trainingRuns(t *testing.T) []*TrainingRun {
	t.Helper()
	if corpusRuns != nil {
		return corpusRuns
	}
	for i, name := range workloads.TrainingNames() {
		w := buildWorkload(t, name).Scaled(0.5)
		run, err := CollectTrainingRun(w.Prog, w.Entry, collector.Options{
			// Training samples at the production class periods so the
			// learned rule internalises production sampling noise.
			Class: w.Class,
			Scale: w.Scale, Seed: int64(100 + i),
			Repeat: w.Repeat,
		})
		if err != nil {
			t.Fatalf("training run %s: %v", w.Name, err)
		}
		corpusRuns = append(corpusRuns, run)
	}
	return corpusRuns
}

// TestTrainLearnsLengthRule is the reproduction of Section IV.B /
// Figure 1: training on ~1,100 diverse blocks must yield a tree whose
// root splits on block length with a cutoff in the paper's
// neighbourhood, and block length must dominate feature importance.
func TestTrainLearnsLengthRule(t *testing.T) {
	runs := trainingRuns(t)
	model, err := Train(runs, TrainParams{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	tree := model.Tree
	if tree == nil || tree.Root.IsLeaf() {
		t.Fatal("no tree learned")
	}
	t.Logf("learned tree:\n%s", tree.Render())
	t.Logf("importances: %v (features %v)", tree.FeatureImportances(), FeatureNames())
	t.Logf("rule: %s", model.Describe())

	if tree.Root.Feature != 0 {
		t.Errorf("root splits on %q, want block_len", FeatureNames()[tree.Root.Feature])
	}
	if model.LenCutoff < 8 || model.LenCutoff > 32 {
		t.Errorf("learned cutoff %.1f outside the plausible band around 18", model.LenCutoff)
	}
	imp := tree.FeatureImportances()
	if imp[0] < 0.5 {
		t.Errorf("block_len importance %.2f, want > 0.5 (paper: > 0.7)", imp[0])
	}
	// Short blocks must route to LBR and long blocks to EBS.
	if got := model.Choose([]float64{3, 0, 3, 0, 0.3}); got != SourceLBR {
		t.Errorf("len-3 block routed to %v, want LBR", got)
	}
	if got := model.Choose([]float64{34, 0, 3, 0, 0.3}); got != SourceEBS {
		t.Errorf("len-34 block routed to %v, want EBS", got)
	}
}

// TestHBBPBeatsRawEstimators reproduces the headline accuracy claim on
// a held-out workload: the hybrid's weighted BBEC error must beat both
// raw estimators.
func TestHBBPBeatsRawEstimators(t *testing.T) {
	runs := trainingRuns(t)
	model, err := Train(runs, TrainParams{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}

	w := buildWorkload(t, "test40").Scaled(0.5)
	ref := sde.New(w.Prog)
	ref.UserOnly = false
	prof, err := Run(w.Prog, w.Entry, model, Options{
		Collector: collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: 4242, Repeat: w.Repeat,
		},
		KernelLivePatched: true,
	}, ref)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Score with the paper's metric: per-mnemonic average weighted
	// error against the instrumentation reference (Section VI.B).
	refMix := analyzer.ToMix(ref.Mnemonics())
	mixOpts := analyzer.Options{LiveText: true}
	errH := metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.BBECs, mixOpts))
	errE := metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.EBS, mixOpts))
	errL := metrics.AvgWeightedError(refMix, analyzer.Mix(w.Prog, prof.LBR, mixOpts))
	t.Logf("avg weighted errors: HBBP=%.4f EBS=%.4f LBR=%.4f", errH, errE, errL)

	if errH > errE {
		t.Errorf("HBBP (%.4f) worse than raw EBS (%.4f)", errH, errE)
	}
	// The paper itself reports one benchmark (LBM) where HBBP is
	// slightly behind raw LBR while both are small; allow that margin.
	if errH > errL*1.2 {
		t.Errorf("HBBP (%.4f) worse than raw LBR (%.4f)", errH, errL)
	}
	if errH > 0.05 {
		t.Errorf("HBBP avg weighted error %.2f%% far above the paper-scale ~1-2%% band", errH*100)
	}
}

func TestRunWithDefaultModel(t *testing.T) {
	w := buildWorkload(t, "kernel-prime").Scaled(0.3)
	opts := Options{
		Collector:         collector.Options{Class: w.Class, Seed: 9},
		KernelLivePatched: true,
	}
	prof, err := Run(w.Prog, w.Entry, nil, opts) // nil model -> default

	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(prof.BBECs) != w.Prog.NumBlocks() {
		t.Fatalf("BBEC vector size %d", len(prof.BBECs))
	}
	// Kernel blocks must have nonzero estimates — the coverage SDE
	// cannot provide.
	kfn := w.Prog.FuncByName("hello_k")
	var kernelCovered bool
	for _, blk := range kfn.Blocks {
		if prof.BBECs[blk.ID] > 0 {
			kernelCovered = true
		}
	}
	if !kernelCovered {
		t.Error("no kernel block received a BBEC estimate")
	}
}

func TestBuildDatasetFiltersCold(t *testing.T) {
	runs := trainingRuns(t)
	dsAll := BuildDataset(runs, TrainParams{MinExec: 1})
	dsHot := BuildDataset(runs, TrainParams{MinExec: 500})
	if len(dsHot.X) >= len(dsAll.X) {
		t.Errorf("MinExec filter did nothing: %d vs %d", len(dsHot.X), len(dsAll.X))
	}
	if len(dsHot.X) == 0 {
		t.Error("filter removed everything")
	}
	// The corpus should supply on the order of the paper's ~1,100
	// training blocks.
	if n := len(dsAll.X); n < 500 || n > 4000 {
		t.Errorf("corpus yields %d training blocks, want on the order of 1,100", n)
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, TrainParams{}); err == nil {
		t.Fatal("Train on no runs succeeded")
	}
}
