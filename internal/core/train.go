package core

import (
	"fmt"

	"hbbp/internal/collector"
	"hbbp/internal/cpu"
	"hbbp/internal/metrics"
	"hbbp/internal/mltree"
	"hbbp/internal/program"
)

// TrainingRun is one profiled training workload with ground truth: the
// raw estimator outputs plus exact per-block execution counts gathered
// by instrumentation during the same run.
type TrainingRun struct {
	Prog *program.Program
	// Ref holds exact per-block executions (block ID indexed).
	Ref []uint64
	// EBS and LBR are the estimator outputs for the same run.
	EBS, LBR []float64
	// Bias flags blocks with the LBR entry[0] anomaly.
	Bias []bool
}

// CollectTrainingRun executes one workload with both the PMU collection
// and an exact all-ring oracle attached, producing a labelled run.
func CollectTrainingRun(p *program.Program, entry *program.Function, opt collector.Options) (*TrainingRun, error) {
	oracle := cpu.NewCountingListener(p)
	res, err := collector.Collect(p, entry, opt, oracle)
	if err != nil {
		return nil, fmt.Errorf("core: training run %s: %w", p.Name, err)
	}
	ebsEst, lbrEst, bias := estimate(p, res, true)
	return &TrainingRun{
		Prog: p,
		Ref:  oracle.Exec,
		EBS:  ebsEst,
		LBR:  lbrEst,
		Bias: bias.BlockBias,
	}, nil
}

// TrainParams configure dataset construction and tree growth.
type TrainParams struct {
	// MinExec drops blocks executed fewer than this many times: their
	// estimates are dominated by sampling noise and their labels are
	// coin flips. Zero means 300.
	MinExec uint64
	// Tree bounds the classification tree (zero values get mltree
	// defaults; the paper keeps trees small for interpretability).
	Tree mltree.Params
}

func (tp TrainParams) withDefaults() TrainParams {
	if tp.MinExec == 0 {
		tp.MinExec = 300
	}
	if tp.Tree.MaxDepth == 0 {
		tp.Tree.MaxDepth = 3
	}
	return tp
}

// BuildDataset turns training runs into an mltree dataset. Each block
// executed at least MinExec times contributes one example: features per
// Features, label = whichever estimator landed closer to ground truth,
// weight = the block's share of retired instructions (executions times
// block length), matching the paper's execution-count weighting.
func BuildDataset(runs []*TrainingRun, tp TrainParams) *mltree.Dataset {
	tp = tp.withDefaults()
	ds := &mltree.Dataset{
		FeatureNames: FeatureNames(),
		ClassNames:   ClassNames(),
	}
	for _, run := range runs {
		for id, ref := range run.Ref {
			if ref < tp.MinExec {
				continue
			}
			blk := run.Prog.BlockByID(id)
			refF := float64(ref)
			errEBS := metrics.Error(refF, run.EBS[id])
			errLBR := metrics.Error(refF, run.LBR[id])
			label := int(SourceLBR)
			if errEBS < errLBR {
				label = int(SourceEBS)
			}
			biased := run.Bias != nil && run.Bias[id]
			est := (run.EBS[id] + run.LBR[id]) / 2
			ds.X = append(ds.X, Features(blk, biased, est))
			ds.Y = append(ds.Y, label)
			ds.W = append(ds.W, refF*float64(blk.Len()))
		}
	}
	return ds
}

// Train learns an HBBP model from training runs. The returned model
// carries both the tree and, as a fallback, the root threshold when the
// root split is on block length.
func Train(runs []*TrainingRun, tp TrainParams) (*Model, error) {
	tp = tp.withDefaults()
	ds := BuildDataset(runs, tp)
	if len(ds.X) == 0 {
		return nil, fmt.Errorf("core: no training blocks survived the MinExec=%d filter", tp.MinExec)
	}
	tree, err := mltree.Train(ds, tp.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{Tree: tree, LenCutoff: DefaultLenCutoff}
	if !tree.Root.IsLeaf() && tree.Root.Feature == 0 {
		m.LenCutoff = tree.Root.Threshold
	}
	return m, nil
}
