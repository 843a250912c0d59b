package collector

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hbbp/internal/bbec"
	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
)

// TestCancelledCollectJoinsEstimator cancels a collection after the
// estimator has been handed a few batches and checks that Collect
// returns the cancellation and leaves no goroutine behind.
func TestCancelledCollectJoinsEstimator(t *testing.T) {
	p, main := mixedProgram(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stacks := 0
	sink := sinkFunc(func(s *perffile.Sample) {
		if pmu.Event(s.Event) != pmu.BrInstRetiredNearTaken {
			return
		}
		if stacks++; stacks == 2*estimatorBatch+1 {
			cancel()
		}
	})
	_, err := Collect(p, main, Options{Class: ClassSeconds, Seed: 9, Repeat: 50,
		Context: ctx, Sinks: []SampleSink{sink}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect = %v, want a cancellation (%d stacks seen)", err, stacks)
	}
	// The estimator goroutine closes its done channel as its last act,
	// so it may take a moment to leave the count after Collect returns;
	// one that was never joined stays in it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Collect, %d after:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamedEstimateMatchesStacks checks the estimate a collection
// carries against the serial estimators over its stacks, for a run too
// short to fill one hand-off batch and for runs spanning many, each
// ending with a partial batch.
func TestStreamedEstimateMatchesStacks(t *testing.T) {
	p, main := mixedProgram(t)
	for _, opt := range []Options{
		{Class: ClassSeconds, Seed: 4, Scale: 100},
		{Class: ClassSeconds, Seed: 4},
		{Class: ClassSeconds, Seed: 4, Repeat: 20},
	} {
		res, err := Collect(p, main, opt)
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		if res.Estimate == nil || len(res.Stacks) == 0 {
			t.Fatalf("no streamed estimate (%d stacks)", len(res.Stacks))
		}
		got, gotDropped := res.Estimate.LBR(res.LBRPeriod)
		want, wantDropped := bbec.FromLBR(p, res.Stacks, res.LBRPeriod, streamLBROptions)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("%d stacks: block %d streamed %g, FromLBR %g", len(res.Stacks), id, got[id], want[id])
			}
		}
		if gotDropped != wantDropped {
			t.Errorf("%d stacks: streamed dropped %d, FromLBR %d", len(res.Stacks), gotDropped, wantDropped)
		}
		if !res.Estimate.Matches(p, streamLBROptions, bbec.DefaultBiasOptions(), len(res.Stacks)) {
			t.Errorf("estimate does not cover the %d collected stacks", len(res.Stacks))
		}
	}
}
