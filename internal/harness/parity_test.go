package harness

import "testing"

// TestFastPathParityAcrossPipeline is the end-to-end guarantee of the
// run budget: a runner at full parallelism renders the identical
// learned model and the identical tables as a runner running strictly
// sequentially. Same seeds ⇒ same samples ⇒ same model ⇒ same rendered
// bytes, across the Test40 evaluation (Table 5) and the kernel workload
// (Table 7). The block fast path itself is checked against the
// per-instruction reference below the harness, by the collector's
// parity suite.
func TestFastPathParityAcrossPipeline(t *testing.T) {
	render := func(parallelism int) (model, t5, t7 string) {
		r := New(Config{Fast: true, FastFactor: 0.1, Seed: 3, Parallelism: parallelism})
		m, err := r.Model()
		if err != nil {
			t.Fatalf("Model (parallelism=%d): %v", parallelism, err)
		}
		tab5, err := r.Table5()
		if err != nil {
			t.Fatalf("Table5 (parallelism=%d): %v", parallelism, err)
		}
		tab7, err := r.Table7()
		if err != nil {
			t.Fatalf("Table7 (parallelism=%d): %v", parallelism, err)
		}
		return m.Describe(), tab5.Render(), tab7.Render()
	}
	seqModel, seqT5, seqT7 := render(1)
	parModel, parT5, parT7 := render(4)
	if parModel != seqModel {
		t.Errorf("model differs from sequential run:\nparallel:   %s\nsequential: %s", parModel, seqModel)
	}
	if parT5 != seqT5 {
		t.Errorf("Table 5 differs from sequential run:\nparallel:\n%s\nsequential:\n%s", parT5, seqT5)
	}
	if parT7 != seqT7 {
		t.Errorf("Table 7 differs from sequential run:\nparallel:\n%s\nsequential:\n%s", parT7, seqT7)
	}
}
