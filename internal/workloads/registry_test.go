package workloads

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"hbbp/internal/collector"
	"hbbp/internal/isa"
	"hbbp/internal/program"
)

func TestRegistryEnumerationSortedAndDeterministic(t *testing.T) {
	reg := Default()
	names := reg.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	// 9 case studies + 29 SPEC + 4 scenario families + 16 training.
	if len(names) != 58 {
		t.Errorf("registry has %d entries, want 58", len(names))
	}
	again := reg.Names()
	for i := range names {
		if names[i] != again[i] {
			t.Fatalf("enumeration not deterministic: %v vs %v", names, again)
		}
	}
	specs := reg.Specs()
	if len(specs) != len(names) {
		t.Fatalf("Specs() has %d entries, Names() %d", len(specs), len(names))
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if s.Name != names[i] {
			t.Errorf("Specs()[%d] = %s, want %s (sorted alignment)", i, s.Name, names[i])
		}
		if s.Description == "" {
			t.Errorf("%s: empty description", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{
		"test40", "hydro-post", "kernel-prime", "povray", "lbm",
		"pointer-chase", "phase-alternating", "megamorphic-branchy",
		"callgraph-deep", "trainloop01", "train10", "fitter-avxfix",
	} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

// TestLookupReturnsIsolatedCopies pins the aliasing contract: specs
// handed out by Lookup/Specs (and specs retained by callers after
// Register) share no mutable state with the registry, so mutating
// them cannot corrupt deterministic generation.
func TestLookupReturnsIsolatedCopies(t *testing.T) {
	reg := Default()
	before := build(t, "test40")
	s, ok := reg.Lookup("test40")
	if !ok || s.Synth == nil {
		t.Fatal("Lookup(test40) failed")
	}
	s.Synth.Seed = 0xBAD
	s.Synth.Profile.MeanBlockLen = 99
	after := build(t, "test40")
	requireProgramsIdentical(t, "test40", after.Prog, before.Prog)

	spec, _ := reg.Lookup("phase-alternating")
	if len(spec.Synth.PhaseMixes) == 0 {
		t.Fatal("phase-alternating lost its phases")
	}
	spec.Synth.PhaseMixes[0] = MixProfile{X87: 1}
	fresh, _ := reg.Lookup("phase-alternating")
	if fresh.Synth.PhaseMixes[0].X87 == 1 {
		t.Error("PhaseMixes mutation reached the registry")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := Default().Build("no-such-workload")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("Build(unknown) = %v, want ErrUnknown", err)
	}
	if _, ok := Default().Lookup("no-such-workload"); ok {
		t.Error("Lookup(unknown) reported ok")
	}
}

func TestRegisterValidation(t *testing.T) {
	reg := NewRegistry()
	synth := &SynthSpec{Name: "x", Seed: 1, Funcs: 1}
	cases := []struct {
		label string
		spec  ShapeSpec
	}{
		{"empty name", ShapeSpec{Scale: 1, Synth: synth, Repeat: 1}},
		{"no generator", ShapeSpec{Name: "a", Scale: 1, Repeat: 1}},
		{"two generators", ShapeSpec{Name: "a", Scale: 1, Repeat: 1, Synth: synth,
			Program: func() (*program.Program, *program.Function) { return nil, nil }}},
		{"no volume", ShapeSpec{Name: "a", Scale: 1, Synth: synth}},
		{"two volumes", ShapeSpec{Name: "a", Scale: 1, Synth: synth, Repeat: 1, TargetInst: 5}},
		{"no scale", ShapeSpec{Name: "a", Synth: synth, Repeat: 1}},
		{"dangling RepeatOf", ShapeSpec{Name: "a", Scale: 1, Synth: synth, RepeatOf: "ghost"}},
	}
	for _, c := range cases {
		if err := reg.Register(c.spec); err == nil {
			t.Errorf("%s: Register accepted a bad spec", c.label)
		}
	}
	good := ShapeSpec{Name: "a", Scale: 1, Synth: synth, Repeat: 1}
	if err := reg.Register(good); err != nil {
		t.Fatalf("Register(good): %v", err)
	}
	if err := reg.Register(good); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestRegistryConcurrentBuilds proves the memoized calibration is safe
// under concurrent construction — the property that lets harness
// workers build workloads inside the pool. Run with -race.
func TestRegistryConcurrentBuilds(t *testing.T) {
	reg := NewRegistry()
	for _, spec := range builtinSpecs() {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{
		"test40", "test40", "clforward-after", "clforward-after",
		"clforward-before", "kernel-prime", "povray", "povray",
		"pointer-chase", "callgraph-deep",
	}
	got := make([]*Workload, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := reg.Build(names[i])
			if err != nil {
				t.Errorf("Build(%s): %v", names[i], err)
				return
			}
			got[i] = w
		}()
	}
	wg.Wait()
	want := map[string]int{}
	for i, w := range got {
		if w == nil {
			continue
		}
		if prev, ok := want[names[i]]; ok && prev != w.Repeat {
			t.Errorf("%s: repeat %d vs %d across concurrent builds", names[i], w.Repeat, prev)
		}
		want[names[i]] = w.Repeat
	}
	// The calibration-by-reference chain resolves under concurrency.
	if want["clforward-before"] != want["clforward-after"] {
		t.Errorf("clforward repeats diverged: before %d, after %d",
			want["clforward-before"], want["clforward-after"])
	}
}

func TestBuildSpecCustomWorkload(t *testing.T) {
	custom := ShapeSpec{
		Name:        "custom-test",
		Description: "caller-authored spec",
		Class:       collector.ClassSeconds,
		Scale:       100,
		TargetInst:  50_000,
		Synth: &SynthSpec{
			Name: "custom-test", Seed: 7, Funcs: 3,
			Profile:    Profile{MeanBlockLen: 5, DiamondFrac: 0.3, LoopFrac: 0.2},
			OuterTrips: 5, LeafFrac: 1,
		},
	}
	w, err := Default().BuildSpec(custom)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	if w.Repeat < 1 || w.Prog == nil || w.Entry == nil {
		t.Fatalf("custom workload incomplete: %+v", w)
	}
	// Custom specs may calibrate against registered entries.
	ref := custom
	ref.TargetInst = 0
	ref.RepeatOf = "clforward-before"
	w2, err := Default().BuildSpec(ref)
	if err != nil {
		t.Fatalf("BuildSpec(RepeatOf): %v", err)
	}
	before := build(t, "clforward-before")
	if w2.Repeat != before.Repeat {
		t.Errorf("RepeatOf repeat %d, want %d", w2.Repeat, before.Repeat)
	}
	// Unregistered specs never pollute the registry.
	if _, ok := Default().Lookup("custom-test"); ok {
		t.Error("BuildSpec registered the spec")
	}
	// Invalid custom specs are rejected with an error, not a panic.
	bad := custom
	bad.Synth = nil
	if _, err := Default().BuildSpec(bad); err == nil {
		t.Error("BuildSpec accepted a generator-less spec")
	}
}

func TestScaledEdgeCases(t *testing.T) {
	w := build(t, "test40")

	// Factor exactly 1 is the identity.
	same := w.Scaled(1)
	if same.Repeat != w.Repeat {
		t.Errorf("Scaled(1): repeat %d, want %d", same.Repeat, w.Repeat)
	}
	if same == w {
		t.Error("Scaled must return a copy")
	}

	// Ordinary scaling halves the repeat.
	half := w.Scaled(0.5)
	if half.Repeat != w.Repeat/2 {
		t.Errorf("Scaled(0.5): repeat %d, want %d", half.Repeat, w.Repeat/2)
	}

	// Tiny factors floor at 1 instead of rounding to 0.
	tiny := w.Scaled(0.5 / float64(w.Repeat))
	if tiny.Repeat != 1 {
		t.Errorf("tiny factor: repeat %d, want the 1 floor", tiny.Repeat)
	}
	one := &Workload{Name: "one", Prog: w.Prog, Entry: w.Entry, Repeat: 1}
	if got := one.Scaled(0.25).Repeat; got != 1 {
		t.Errorf("Repeat 1 scaled: %d, want 1", got)
	}

	// Out-of-range factors are caller bugs and still panic.
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%g) should panic", bad)
				}
			}()
			w.Scaled(bad)
		}()
	}
}

// TestInstructionsPerRunError pins the error path: a workload whose
// dry run cannot complete reports ErrBuild instead of panicking.
func TestInstructionsPerRunError(t *testing.T) {
	w := build(t, "test40")
	if _, err := w.InstructionsPerRun(); err != nil {
		t.Fatalf("healthy workload: %v", err)
	}
	// A runaway workload trips the cpu retirement guard; the error is
	// classified, not thrown.
	b := program.NewBuilder("runaway")
	mod := b.Module("runaway", program.RingUser)
	f := b.Function(mod, "spin")
	head := b.Block(f, isa.ADD)
	latch := b.Block(f, isa.INC, isa.CMP)
	exit := b.Block(f, isa.POP)
	b.Fallthrough(head, latch)
	b.Loop(latch, isa.JNZ, head, exit, 1<<40) // far beyond MaxRetired
	b.Return(exit)
	prog := mustFinish(b, "runaway")
	runaway := &Workload{Name: "runaway", Prog: prog, Entry: f}
	if _, err := runaway.InstructionsPerRun(); !errors.Is(err, ErrBuild) {
		t.Fatalf("runaway dry run = %v, want ErrBuild", err)
	}
}

func TestBuildSharesSnapshotImage(t *testing.T) {
	reg := NewRegistry()
	for _, spec := range builtinSpecs() {
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	a, err := reg.Build("test40")
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Build("test40")
	if err != nil {
		t.Fatal(err)
	}
	// Repeated builds hand out one compiled image: the program and
	// every derived table are the same objects, not recompilations.
	if a.Prog != b.Prog {
		t.Error("repeated builds compiled separate program images")
	}
	if a.Layout == nil || a.Layout != b.Layout {
		t.Error("repeated builds do not share the execution layout")
	}
	if a.SDE == nil || a.SDE != b.SDE {
		t.Error("repeated builds do not share the instrumentation profile")
	}
	if a.Layout.Program() != a.Prog {
		t.Error("layout derived from a different program")
	}
	if a.SDE.Program() != a.Prog {
		t.Error("instrumentation profile derived from a different program")
	}
	// Scaling copies the struct, so the shared tables ride along and
	// stay consistent with the (unchanged) program.
	s := a.Scaled(0.5)
	if s.Prog != a.Prog || s.Layout != a.Layout {
		t.Error("Scaled dropped the shared image or layout")
	}
}
