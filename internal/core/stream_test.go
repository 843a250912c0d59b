package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"hbbp/internal/bbec"
	"hbbp/internal/collector"
	"hbbp/internal/workloads"
)

// shortblockNames are the short-block, dense-PMI workloads of Tables 3,
// 5 and 7, where the LBR estimator weighs most.
var shortblockNames = []string{"test40", "fitter-avx", "callgraph-deep",
	"megamorphic-branchy", "hydro-post", "kernel-prime"}

// sameBits reports whether two estimates are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBias compares two bias reports field by field.
func checkBias(t *testing.T, what string, got, want bbec.BiasReport) {
	t.Helper()
	if !reflect.DeepEqual(got.Branches, want.Branches) {
		t.Errorf("%s: Branches differ (%d vs %d sources)", what, len(got.Branches), len(want.Branches))
	}
	if !reflect.DeepEqual(got.BlockBias, want.BlockBias) {
		t.Errorf("%s: BlockBias differs", what)
	}
}

// TestStreamedEstimateParity checks, for every suite and short-block
// workload at two seeds, that the LBR estimate and bias statistics a
// collection credits while the run executes are bit-identical to
// FromLBR and DetectBias over the collected stacks afterwards, and that
// the profile analyzed from them equals AnalyzeReplay of the same run's
// recording, which has no streamed state and walks the stacks itself.
func TestStreamedEstimateParity(t *testing.T) {
	names := append(append([]string(nil), workloads.SPECNames()...), shortblockNames...)
	if len(names) != 35 {
		t.Fatalf("%d workloads, want the 29 suite and 6 short-block ones", len(names))
	}
	for _, name := range names {
		w := buildWorkload(t, name)
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var raw bytes.Buffer
				opts := Options{
					Collector: collector.Options{Class: w.Class, Scale: w.Scale, Seed: seed,
						Repeat: w.Repeat, Layout: w.Layout, RawOut: &raw},
					KernelLivePatched: true,
				}
				res, err := collector.Collect(w.Prog, w.Entry, opts.Collector)
				if err != nil {
					t.Fatalf("Collect: %v", err)
				}
				if res.Estimate == nil || len(res.Stacks) == 0 {
					t.Fatalf("no streamed estimate (%d stacks)", len(res.Stacks))
				}
				got, gotDropped := res.Estimate.LBR(res.LBRPeriod)
				want, wantDropped := bbec.FromLBR(w.Prog, res.Stacks, res.LBRPeriod, bbec.LBROptions{KernelLivePatched: true})
				if !sameBits(got, want) {
					t.Errorf("streamed LBR counts differ from FromLBR")
				}
				if gotDropped != wantDropped {
					t.Errorf("streamed dropped streams %d, FromLBR %d", gotDropped, wantDropped)
				}
				checkBias(t, "streamed vs DetectBias", res.Estimate.Bias(res.Stacks),
					bbec.DetectBias(w.Prog, res.Stacks, bbec.DefaultBiasOptions()))

				live, err := Analyze(w.Prog, nil, res, true)
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				opts.Collector.RawOut = nil
				replayed, err := AnalyzeReplay(w.Prog, nil, bytes.NewReader(raw.Bytes()), opts)
				if err != nil {
					t.Fatalf("AnalyzeReplay: %v", err)
				}
				if replayed.Collection.Estimate != nil {
					t.Fatal("a replayed result carries a streamed estimate")
				}
				if !sameBits(live.LBR, replayed.LBR) || !sameBits(live.BBECs, replayed.BBECs) {
					t.Errorf("live LBR or hybrid estimate differs from AnalyzeReplay")
				}
				checkBias(t, "live vs AnalyzeReplay", live.Bias, replayed.Bias)
			})
		}
	}
}

// TestAnalyzeSharedResult analyzes one collection from several
// goroutines at once, under both kernel-text settings: the streamed
// state is only read, so every analysis agrees with one of a copy of
// the result that carries none.
func TestAnalyzeSharedResult(t *testing.T) {
	w := buildWorkload(t, "kernel-prime").Scaled(0.3)
	res, err := collector.Collect(w.Prog, w.Entry, collector.Options{
		Class: w.Class, Scale: w.Scale, Seed: 3, Repeat: w.Repeat, Layout: w.Layout})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	bare := *res
	bare.Estimate = nil
	for _, patched := range []bool{true, false} {
		want, err := Analyze(w.Prog, nil, &bare, patched)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Analyze(w.Prog, nil, res, patched)
				if err != nil {
					t.Errorf("Analyze: %v", err)
					return
				}
				if !sameBits(got.LBR, want.LBR) || !sameBits(got.BBECs, want.BBECs) ||
					!reflect.DeepEqual(got.Bias, want.Bias) {
					t.Errorf("KernelLivePatched=%v: shared-result analysis differs from a fresh walk", patched)
				}
			}()
		}
		wg.Wait()
	}
}
