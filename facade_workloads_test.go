package hbbp

// Tests for the workload half of the façade: registry enumeration,
// custom shape-spec workloads, the build-error sentinel and the
// per-profile workload scaling option.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// registrations numbers the specs tests add to the process-wide
// registry, so each run of a test registers a name of its own and the
// tests can repeat under -count=N.
var registrations atomic.Int64

// TestWorkloadsEnumeration pins the registry listing the façade
// exposes: sorted, described, and covering every workload family.
func TestWorkloadsEnumeration(t *testing.T) {
	infos := Workloads()
	if len(infos) < 58 {
		t.Fatalf("Workloads() returned %d entries, want >= 58", len(infos))
	}
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Workloads() not sorted: %v", names)
	}
	if !reflect.DeepEqual(names, WorkloadNames()) {
		t.Error("Workloads() and WorkloadNames() disagree")
	}
	for _, want := range []string{
		"test40", "povray", "pointer-chase", "phase-alternating",
		"megamorphic-branchy", "callgraph-deep", "trainloop01",
	} {
		if sort.SearchStrings(names, want) >= len(names) || names[sort.SearchStrings(names, want)] != want {
			t.Errorf("Workloads() missing %s", want)
		}
	}
	// Every enumerated name must build.
	for _, name := range []string{"pointer-chase", "phase-alternating", "megamorphic-branchy", "callgraph-deep"} {
		if _, err := LookupWorkload(name); err != nil {
			t.Errorf("LookupWorkload(%s): %v", name, err)
		}
	}
}

// TestLookupUnknownSuggestsList pins the unknown-name contract: the
// typed sentinel plus a message pointing at the enumeration.
func TestLookupUnknownSuggestsList(t *testing.T) {
	_, err := LookupWorkload("no-such-workload")
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("err = %v, want ErrUnknownWorkload", err)
	}
	if !strings.Contains(err.Error(), "-list") {
		t.Errorf("error %q does not suggest -list", err)
	}
}

// TestNewWorkloadCustomSpec builds a caller-authored spec through the
// façade and runs it end to end.
func TestNewWorkloadCustomSpec(t *testing.T) {
	spec := ShapeSpec{
		Name:        "facade-custom",
		Description: "caller-authored workload",
		Class:       ClassSeconds,
		Scale:       500,
		TargetInst:  100_000,
		Synth: &SynthSpec{
			Name: "facade-custom", Seed: 99, Funcs: 4,
			Profile: SynthProfile{
				MeanBlockLen: 6, DiamondFrac: 0.3, LoopFrac: 0.2, CallFrac: 0.2,
				Mix: MixProfile{Base: 0.7, SSEPacked: 0.3},
			},
			OuterTrips: 8, LeafFrac: 0.6,
		},
	}
	w, err := NewWorkload(spec)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	s, err := New(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.Profile(context.Background(), w)
	if err != nil {
		t.Fatalf("Profile(custom): %v", err)
	}
	if prof.Collection.Stats.Retired == 0 {
		t.Error("custom workload retired nothing")
	}
	// One-off builds stay out of the registry...
	if _, err := LookupWorkload("facade-custom"); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("NewWorkload leaked into the registry: %v", err)
	}
	// ...while RegisterWorkload makes the spec a first-class citizen.
	name := fmt.Sprintf("facade-registered-%d", registrations.Add(1))
	reg := spec
	reg.Name = name
	reg.Synth = &SynthSpec{Name: name, Seed: 99, Funcs: 2, OuterTrips: 4}
	if err := RegisterWorkload(reg); err != nil {
		t.Fatalf("RegisterWorkload: %v", err)
	}
	if _, err := LookupWorkload(name); err != nil {
		t.Errorf("registered spec not buildable: %v", err)
	}
	found := false
	for _, info := range Workloads() {
		if info.Name == name {
			found = true
		}
	}
	if !found {
		t.Error("registered spec not enumerated")
	}
	if err := RegisterWorkload(reg); err == nil {
		t.Error("duplicate RegisterWorkload accepted")
	}
}

// TestNewWorkloadCarriesTables pins that a one-off spec builds through
// the registry's own path: the workload carries an execution layout
// and an instrumentation profile derived from its own program, and
// profiling it matches profiling the same spec registered and looked
// up.
func TestNewWorkloadCarriesTables(t *testing.T) {
	spec := ShapeSpec{
		Name:        "facade-oneoff-tables",
		Description: "one-off spec checked against its registered twin",
		Class:       ClassSeconds,
		Scale:       500,
		TargetInst:  100_000,
		Synth: &SynthSpec{
			Name: "facade-oneoff-tables", Seed: 7, Funcs: 4,
			Profile: SynthProfile{
				MeanBlockLen: 5, DiamondFrac: 0.3, LoopFrac: 0.2, CallFrac: 0.2,
				Mix: MixProfile{Base: 0.8, SSEScalar: 0.2},
			},
			OuterTrips: 8, LeafFrac: 0.6,
		},
	}
	oneOff, err := NewWorkload(spec)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	if oneOff.Layout == nil || oneOff.Layout.Program() != oneOff.Prog {
		t.Error("one-off workload lacks a layout derived from its own program")
	}
	if oneOff.SDE == nil || oneOff.SDE.Program() != oneOff.Prog {
		t.Error("one-off workload lacks an instrumentation profile derived from its own program")
	}
	// The registry is process-wide: a repeated run (-count) finds the
	// spec registered already.
	if _, err := LookupWorkload(spec.Name); errors.Is(err, ErrUnknownWorkload) {
		if err := RegisterWorkload(spec); err != nil {
			t.Fatalf("RegisterWorkload: %v", err)
		}
	}
	registered, err := LookupWorkload(spec.Name)
	if err != nil {
		t.Fatalf("LookupWorkload: %v", err)
	}
	s, err := New(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Profile(context.Background(), oneOff)
	if err != nil {
		t.Fatalf("Profile(one-off): %v", err)
	}
	want, err := s.Profile(context.Background(), registered)
	if err != nil {
		t.Fatalf("Profile(registered): %v", err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"BBECs", got.BBECs, want.BBECs},
		{"EBS", got.EBS, want.EBS},
		{"LBR", got.LBR, want.LBR},
		{"Choices", got.Choices, want.Choices},
		{"Collection.Stats", got.Collection.Stats, want.Collection.Stats},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("one-off and registered profiles differ in %s", f.name)
		}
	}
}

// TestWorkloadBuildErrorSentinel pins the satellite contract: a
// workload whose calibration dry run cannot complete surfaces
// ErrWorkloadBuild through the façade instead of panicking.
func TestWorkloadBuildErrorSentinel(t *testing.T) {
	runaway := ShapeSpec{
		Name:        "runaway",
		Description: "spins past the calibration guard",
		Class:       ClassSeconds,
		Scale:       1,
		TargetInst:  1000,
		Synth: &SynthSpec{
			Name: "runaway", Seed: 1, Funcs: 1,
			Profile:    SynthProfile{MeanBlockLen: 8, LoopFrac: 0.8, InnerTripMin: 100, InnerTripMax: 200},
			OuterTrips: 1 << 40, // one entry invocation never finishes
		},
	}
	_, err := NewWorkload(runaway)
	if !errors.Is(err, ErrWorkloadBuild) {
		t.Fatalf("runaway spec: err = %v, want ErrWorkloadBuild", err)
	}
	// The cause stays on the unwrap chain: the retirement guard is
	// what stopped the dry run.
	if !errors.Is(err, ErrRetireLimit) {
		t.Fatalf("runaway spec: err = %v, want ErrRetireLimit on the chain", err)
	}
}

// TestWithWorkloadScale asserts the option is exactly Workload.Scaled
// applied at Profile time: same samples, same profile, bit for bit.
func TestWithWorkloadScale(t *testing.T) {
	w, err := Test40()
	if err != nil {
		t.Fatal(err)
	}

	scaled, err := New(WithSeed(5), WithWorkloadScale(0.2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scaled.Profile(context.Background(), w)
	if err != nil {
		t.Fatalf("Profile(scaled session): %v", err)
	}

	plain, err := New(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Profile(context.Background(), w.Scaled(0.2))
	if err != nil {
		t.Fatalf("Profile(pre-scaled workload): %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Error("WithWorkloadScale profile differs from manually scaled workload")
	}
	full, err := plain.Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Collection.Stats.Retired >= full.Collection.Stats.Retired {
		t.Error("scaled run did not shrink the collection")
	}

	// Out-of-range factors are rejected at New.
	for _, bad := range []float64{0, -1, 1.5} {
		if _, err := New(WithWorkloadScale(bad)); err == nil {
			t.Errorf("WithWorkloadScale(%g) accepted", bad)
		}
	}
}
