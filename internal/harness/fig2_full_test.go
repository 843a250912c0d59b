package harness

import "testing"

// TestFigure2FullScale asserts the paper's headline ordering — HBBP's
// suite-average weighted error beats both raw estimators' — at full
// production sampling density. The fast-mode shape test tolerates more
// noise; this one does not. It runs in about 0.3 s (0.23-0.28 s over
// three runs on a 2-vCPU Intel Xeon KVM host, go1.24.0).
// Run with -short to skip.
func TestFigure2FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale suite evaluation")
	}
	r := New(Config{Seed: 1})
	res, err := r.Figure2()
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	t.Logf("suite means: HBBP=%.4f LBR=%.4f EBS=%.4f (paper: 0.0183/0.0315/0.0443)",
		res.MeanHBBP, res.MeanLBR, res.MeanEBS)
	if res.MeanHBBP >= res.MeanLBR {
		t.Errorf("HBBP mean %.4f should beat LBR %.4f", res.MeanHBBP, res.MeanLBR)
	}
	if res.MeanHBBP >= res.MeanEBS {
		t.Errorf("HBBP mean %.4f should beat EBS %.4f", res.MeanHBBP, res.MeanEBS)
	}
	if res.MeanHBBP > 0.04 {
		t.Errorf("HBBP mean %.2f%% far above the paper's 1.83%%", res.MeanHBBP*100)
	}
	// HBBP is never catastrophically worse than the better raw source
	// on any single benchmark.
	for _, ev := range res.Rows {
		better := ev.ErrLBR
		if ev.ErrEBS < better {
			better = ev.ErrEBS
		}
		if ev.ErrHBBP > better*3 && ev.ErrHBBP > 0.08 {
			t.Errorf("%s: HBBP %.3f vs best raw %.3f", ev.Name, ev.ErrHBBP, better)
		}
	}
}
