package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A root with two overlapping children, one running past the root's end,
// and a grandchild under the first child.
func syntheticTree() []span {
	return []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 6, Name: "op", Start: 200, End: 300},
	}
}

func TestSelfTimesSyntheticTree(t *testing.T) {
	spans := syntheticTree()
	self := selfTimes(spans)
	// op: 100 minus [10,60] and [90,100] = 40; a: 30 minus 5; the rest
	// have no children.
	want := []int64{40, 25, 30, 30, 5, 100}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, self[i], want[i])
		}
	}
	// Over both op spans: 60 of 200 covered.
	if pct := coverage(spans, self, "op"); !near(pct, 30) {
		t.Errorf("coverage = %v%%, want 30%%", pct)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, tr.newOp())
	tr.end(id, 1)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned span %d and spans %v", id, tr.snapshot())
	}
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.begin("op", 0, op)
	tr.end(tr.begin("child", root, op), 7)
	tr.end(root, 7)
	path := filepath.Join(t.TempDir(), "traces", "t.json")
	if err := tr.write(path, &result{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result result `json:"result"`
		Spans  []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Result.Workload != "w" || len(doc.Spans) != 2 || doc.Spans[1].Parent != root ||
		doc.Spans[1].Op != op || doc.Spans[1].Count != 7 || doc.Spans[1].End < doc.Spans[1].Start {
		t.Errorf("written trace = %+v", doc)
	}
}

// Each paper op's stage spans (collect, analyze, capture, encode) must
// account for the op: what the benchmark times is what the layers do.
func TestPaperOpChildrenCoverOpSpan(t *testing.T) {
	tr := newTracer()
	pp, err := newPaperPath([]string{"test40", "kernel-prime"}, 1, 0.2, tr)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := pp.captureAll(tr); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	ops := 0
	for i, s := range spans {
		if s.Name != "paper.op" {
			continue
		}
		ops++
		if cov := 100 * float64(s.dur()-self[i]) / float64(s.dur()); cov < 95 {
			t.Errorf("op %d: stage spans cover %.2f%% of the op span, want >= 95%%", s.Op, cov)
		}
	}
	if ops != 4 {
		t.Errorf("traced %d paper ops, want 4", ops)
	}
}
