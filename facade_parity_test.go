package hbbp

// The façade is a mapping, not a fork: every public entry point must
// produce bit-identical results to the pre-redesign internal paths it
// subsumed. These tests freeze that mapping — samples (including the
// serialized byte stream), trained models, profiles and rendered
// tables are compared against direct internal invocations configured
// the way the commands and examples used to.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hbbp/internal/collector"
	"hbbp/internal/core"
	"hbbp/internal/harness"
	"hbbp/internal/workloads"
)

// testWorkload builds a registry workload the way the pre-redesign
// internal callers constructed one.
func testWorkload(t *testing.T, name string) *Workload {
	t.Helper()
	w, err := workloads.Default().Build(name)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return w
}

// internalOptions reproduces the exact collector configuration the
// pre-redesign callers (cmd/hbbp, the examples) built by hand.
func internalOptions(w *Workload, seed int64) core.Options {
	return core.Options{
		Collector: collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: seed, Repeat: w.Repeat,
		},
		KernelLivePatched: true,
	}
}

// TestProfileParity asserts Session.Profile is bit-identical to the
// internal core.Run path: same BBECs, same raw estimates, same
// choices, same sample sets, same stats — and the same serialized
// perffile byte-for-byte.
func TestProfileParity(t *testing.T) {
	w := testWorkload(t, "test40").Scaled(0.2)
	const seed = 42

	var rawInternal bytes.Buffer
	opts := internalOptions(w, seed)
	opts.Collector.RawOut = &rawInternal
	want, err := core.Run(w.Prog, w.Entry, core.DefaultModel(), opts)
	if err != nil {
		t.Fatalf("internal core.Run: %v", err)
	}

	var rawFacade bytes.Buffer
	s, err := New(WithSeed(seed), WithRawOutput(&rawFacade))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := s.Profile(context.Background(), w)
	if err != nil {
		t.Fatalf("Session.Profile: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("façade profile differs from internal path:\n got: %+v\nwant: %+v", got, want)
	}
	if !bytes.Equal(rawFacade.Bytes(), rawInternal.Bytes()) {
		t.Errorf("serialized collection differs: façade %d bytes, internal %d bytes",
			rawFacade.Len(), rawInternal.Len())
	}
	if rawFacade.Len() == 0 {
		t.Fatal("no raw bytes captured; parity test is vacuous")
	}
}

// TestReplayParity asserts Session.Replay of a façade-written stream
// matches both the internal core.AnalyzeReplay path and the live
// profile's estimates.
func TestReplayParity(t *testing.T) {
	w := testWorkload(t, "kernel-prime").Scaled(0.5)
	const seed = 11

	var raw bytes.Buffer
	s, err := New(WithSeed(seed), WithRawOutput(&raw))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	live, err := s.Profile(context.Background(), w)
	if err != nil {
		t.Fatalf("Session.Profile: %v", err)
	}

	want, err := core.AnalyzeReplay(w.Prog, core.DefaultModel(),
		bytes.NewReader(raw.Bytes()), internalOptions(w, seed))
	if err != nil {
		t.Fatalf("internal core.AnalyzeReplay: %v", err)
	}
	got, err := s.Replay(context.Background(), w, bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("Session.Replay: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("façade replay differs from internal path")
	}
	if !reflect.DeepEqual(got.BBECs, live.BBECs) {
		t.Errorf("replayed BBECs differ from live collection")
	}
	if !reflect.DeepEqual(got.Collection.EBSIPs, live.Collection.EBSIPs) {
		t.Errorf("replayed EBS sample set differs from live collection")
	}
	if len(got.Collection.EBSIPs) == 0 {
		t.Fatal("no EBS samples replayed; parity test is vacuous")
	}
}

// TestTrainParity asserts Session.Train learns the identical model as
// (a) the harness runner and (b) the strictly sequential pre-redesign
// training loop of cmd/hbbp, at a non-trivial parallelism.
func TestTrainParity(t *testing.T) {
	const seed, factor = 3, 0.1

	// (a) The harness path.
	r := harness.New(harness.Config{Fast: true, FastFactor: factor, Seed: seed})
	fromHarness, err := r.Model()
	if err != nil {
		t.Fatalf("harness Model: %v", err)
	}

	// (b) The sequential loop cmd/hbbp -trained used to run, on the
	// same scaled corpus.
	var runs []*core.TrainingRun
	for i, name := range workloads.TrainingNames() {
		w := testWorkload(t, name).Scaled(factor)
		run, err := core.CollectTrainingRun(w.Prog, w.Entry, collector.Options{
			Class: w.Class, Scale: w.Scale, Seed: seed + int64(100+i), Repeat: w.Repeat,
		})
		if err != nil {
			t.Fatalf("sequential training run %d: %v", i, err)
		}
		runs = append(runs, run)
	}
	sequential, err := core.Train(runs, core.TrainParams{})
	if err != nil {
		t.Fatalf("sequential core.Train: %v", err)
	}

	s, err := New(WithSeed(seed), WithFast(factor), WithParallelism(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := s.Train(context.Background())
	if err != nil {
		t.Fatalf("Session.Train: %v", err)
	}

	if !reflect.DeepEqual(got, fromHarness) {
		t.Errorf("façade model differs from harness path:\nfaçade:  %s\nharness: %s",
			got.Describe(), fromHarness.Describe())
	}
	if !reflect.DeepEqual(got, sequential) {
		t.Errorf("façade model differs from sequential pre-redesign path:\nfaçade:     %s\nsequential: %s",
			got.Describe(), sequential.Describe())
	}

	// The trained model must now be the session's active model.
	if prof := s.currentModel(); prof != got {
		t.Errorf("Train did not install the learned model on the session")
	}
}

// TestExperimentParity asserts the façade's experiment runner renders
// byte-identical tables to a directly configured harness, across a
// static table and a full collection-backed evaluation.
func TestExperimentParity(t *testing.T) {
	const seed, factor = 5, 0.1
	for _, name := range []string{"table4", "table5"} {
		var wantBuf bytes.Buffer
		r := harness.New(harness.Config{Out: &wantBuf, Fast: true, FastFactor: factor, Seed: seed})
		if err := r.Run(name); err != nil {
			t.Fatalf("harness %s: %v", name, err)
		}

		var gotBuf bytes.Buffer
		s, err := New(WithSeed(seed), WithFast(factor), WithExperimentOutput(&gotBuf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.RunExperiment(context.Background(), name); err != nil {
			t.Fatalf("Session.RunExperiment(%s): %v", name, err)
		}

		if gotBuf.String() != wantBuf.String() {
			t.Errorf("%s differs:\nfaçade:\n%s\nharness:\n%s", name, gotBuf.String(), wantBuf.String())
		}
		if gotBuf.Len() == 0 {
			t.Fatalf("%s rendered nothing; parity test is vacuous", name)
		}
	}
}

// countingSink tallies sample dispatches per event.
type countingSink struct{ samples, lost int }

func (c *countingSink) Sample(*Sample) { c.samples++ }
func (c *countingSink) Lost(Lost)      { c.lost++ }

// TestReplayDispatchesToSinks asserts WithSinks sinks observe replayed
// streams exactly like live ones — the documented "live collections
// and replays alike" contract.
func TestReplayDispatchesToSinks(t *testing.T) {
	w := testWorkload(t, "test40").Scaled(0.1)
	var raw bytes.Buffer
	liveSink := &countingSink{}
	s, err := New(WithSeed(1), WithRawOutput(&raw), WithSinks(liveSink))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Profile(context.Background(), w); err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if liveSink.samples == 0 {
		t.Fatal("live run dispatched no samples to the custom sink; test is vacuous")
	}

	replaySink := &countingSink{}
	s2, err := New(WithSeed(1), WithSinks(replaySink))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s2.Replay(context.Background(), w, bytes.NewReader(raw.Bytes())); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replaySink.samples != liveSink.samples {
		t.Errorf("replay dispatched %d samples to the custom sink, live run %d",
			replaySink.samples, liveSink.samples)
	}
}

// TestExperimentRunnerReusesCaches asserts the two expensive shared
// computations — the corpus-trained model and the SPEC-suite
// evaluations — carry across a session's experiment and training
// calls instead of being recomputed per invocation, and that the
// cached re-run renders byte-identical output.
func TestExperimentRunnerReusesCaches(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	// table1 needs both the trained model and the full suite.
	s, err := New(WithSeed(5), WithFast(0.1), WithExperimentOutput(&out))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RunExperiment(ctx, "table1"); err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	first := out.String()

	// A repeated call is served wholly from the session's run cache.
	rep, err := s.RunExperiments(ctx, "table1")
	if err != nil {
		t.Fatalf("repeated RunExperiments: %v", err)
	}
	if rep.RunsCollected != 0 {
		t.Errorf("repeated table1 collected %d runs, want 0", rep.RunsCollected)
	}

	// The cached re-run must render the identical bytes.
	out.Reset()
	if err := s.RunExperiment(ctx, "table1"); err != nil {
		t.Fatalf("second RunExperiment: %v", err)
	}
	if out.String() != first {
		t.Errorf("cache-backed re-run differs:\nfirst:\n%s\nsecond:\n%s", first, out.String())
	}

	// And match a fresh, cache-less harness exactly.
	var ref bytes.Buffer
	r := harness.New(harness.Config{Out: &ref, Fast: true, FastFactor: 0.1, Seed: 5})
	if err := r.Run("table1"); err != nil {
		t.Fatalf("harness table1: %v", err)
	}
	if first != ref.String() {
		t.Errorf("façade table1 differs from direct harness")
	}

	// Train must return the model the experiments trained, without a
	// second corpus pass.
	misses := runCacheMisses()
	m, err := s.Train(ctx)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if n := runCacheMisses() - misses; n != 0 {
		t.Errorf("Train collected %v runs instead of reusing the session cache", n)
	}
	refModel, err := r.Model()
	if err != nil {
		t.Fatalf("harness Model: %v", err)
	}
	if !reflect.DeepEqual(m, refModel) {
		t.Errorf("Train returned a model unlike the one the experiments trained")
	}
}

// runCacheMisses reads the process-wide count of collection runs the
// experiment harness executed.
func runCacheMisses() float64 {
	for _, m := range TelemetrySnapshot() {
		if m.Name == "hbbp_harness_runcache_total" && m.Labels == `result="miss"` {
			return m.Value
		}
	}
	return 0
}
