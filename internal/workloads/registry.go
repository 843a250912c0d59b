package workloads

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hbbp/internal/cpu"
	"hbbp/internal/program"
	"hbbp/internal/sde"
)

// Build and lookup sentinels. Errors returned by a Registry wrap
// these, so callers classify failures with errors.Is.
var (
	// ErrBuild reports a workload that failed to build — typically a
	// calibration dry run that did not complete.
	ErrBuild = errors.New("workloads: build failed")
	// ErrUnknown reports a name no spec is registered under.
	ErrUnknown = errors.New("workloads: unknown workload")
)

// Registry maps workload names to shape specs and compiles them to
// runnable Workloads on demand. It owns compilation and calibration:
// each entry is compiled, its execution layout and instrumentation
// profile tables derived and its dry-run repeat count resolved at most
// once, behind one per-entry memo, and every build hands out that one
// immutable image (runs never mutate a finished program). Any number
// of goroutines may Build concurrently — harness workers construct
// workloads inside the pool instead of serializing construction in
// the caller, and repeated builds of one entry skip synthesis,
// derivation and calibration entirely. BuildSpec compiles a one-off
// spec through the same path, unmemoized, so workloads from either
// carry the derived tables.
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
}

// image is one compiled workload program with the tables derived from
// it. It is immutable, so every run of the workload may share it.
type image struct {
	prog   *program.Program
	entry  *program.Function
	layout *cpu.Layout
	sde    *sde.Static
}

// compileImage compiles spec and derives its execution layout and
// instrumentation profile — the one build path of registered entries
// and one-off specs alike.
func compileImage(spec *ShapeSpec) image {
	prog, entry := spec.compile()
	return image{prog: prog, entry: entry, layout: cpu.NewLayout(prog), sde: sde.NewStatic(prog)}
}

// regEntry pairs a spec with its memoized image and calibration.
type regEntry struct {
	spec   ShapeSpec
	once   sync.Once
	img    image
	repeat int
	err    error
}

// NewRegistry returns an empty registry. Use [Default] for the
// registry pre-populated with every built-in workload.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// Register adds a spec. Names must be unique; a RepeatOf reference
// must name an already-registered spec (which makes calibration
// chains acyclic by construction).
func (r *Registry) Register(spec ShapeSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[spec.Name]; dup {
		return fmt.Errorf("workloads: duplicate spec %s", spec.Name)
	}
	if spec.RepeatOf != "" {
		if _, ok := r.entries[spec.RepeatOf]; !ok {
			return fmt.Errorf("workloads: spec %s calibrates against unregistered %s",
				spec.Name, spec.RepeatOf)
		}
	}
	r.entries[spec.Name] = &regEntry{spec: spec.clone()}
	return nil
}

// entry looks a registration up by name.
func (r *Registry) entry(name string) (*regEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns every registered name in sorted order — the
// deterministic enumeration the façade and cmd/hbbp -list print.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Specs returns deep copies of every registered spec, sorted by name.
// Mutating a returned spec — including through its Synth — does not
// affect the registry.
func (r *Registry) Specs() []ShapeSpec {
	names := r.Names()
	out := make([]ShapeSpec, 0, len(names))
	for _, name := range names {
		e, _ := r.entry(name)
		out = append(out, e.spec.clone())
	}
	return out
}

// Lookup returns a deep copy of the named spec.
func (r *Registry) Lookup(name string) (ShapeSpec, bool) {
	e, ok := r.entry(name)
	if !ok {
		return ShapeSpec{}, false
	}
	return e.spec.clone(), true
}

// Build returns the named spec as a runnable workload. The first
// build compiles the image, derives its tables and pays the
// calibration dry run; every later build hands the same image out in
// O(1). Runs never mutate a finished program (execution state lives in
// the machine, live-text patching copies), so concurrent runs of the
// same entry are safe. Unknown names match [ErrUnknown]; failed
// calibrations match [ErrBuild].
func (r *Registry) Build(name string) (*Workload, error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	img, repeat, err := r.built(e)
	if err != nil {
		return nil, err
	}
	return newWorkload(&e.spec, img, repeat), nil
}

// BuildSpec compiles an unregistered spec (a caller-authored custom
// workload) through the same path as a registered entry, so the
// workload carries its layout and instrumentation tables too. Nothing
// is memoized — one-off builds pay their own compilation and dry run —
// and RepeatOf resolves against this registry.
func (r *Registry) BuildSpec(spec ShapeSpec) (*Workload, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	img := compileImage(&spec)
	repeat, err := r.resolveVolume(&spec, img)
	if err != nil {
		return nil, err
	}
	return newWorkload(&spec, img, repeat), nil
}

// newWorkload assembles the workload spec describes from its compiled
// image and resolved repeat count.
func newWorkload(spec *ShapeSpec, img image, repeat int) *Workload {
	return &Workload{
		Name:        spec.Name,
		Prog:        img.prog,
		Entry:       img.entry,
		Layout:      img.layout,
		SDE:         img.sde,
		Repeat:      repeat,
		Class:       spec.Class,
		Scale:       spec.Scale,
		SDEBug:      spec.SDEBug,
		Description: spec.Description,
	}
}

// resolveVolume turns a spec's volume policy into a repeat count — the
// single definition of the Repeat/RepeatOf/TargetInst switch, shared
// by registered entries (through built's memo) and one-off BuildSpec
// compilations. A calibration dry run executes img, the spec's own
// compiled image, with its shared layout.
//
// The dry run is deliberately context-free: its result memoizes
// process-wide for registered entries, and honouring a caller's
// context would let the first (cancelled) builder poison the cache
// for everyone after it. Promptness is bounded instead by the
// calibration retirement guard.
func (r *Registry) resolveVolume(spec *ShapeSpec, img image) (int, error) {
	switch {
	case spec.Repeat > 0:
		return spec.Repeat, nil
	case spec.RepeatOf != "":
		// For registered entries, registration ordering makes the chain
		// acyclic: a spec can only reference entries registered before
		// it.
		ref, ok := r.entry(spec.RepeatOf)
		if !ok {
			return 0, fmt.Errorf("%w: %s calibrates against %q",
				ErrUnknown, spec.Name, spec.RepeatOf)
		}
		_, repeat, err := r.built(ref)
		return repeat, err
	default:
		per, err := newWorkload(spec, img, 1).InstructionsPerRun()
		if err != nil {
			return 0, fmt.Errorf("%s calibration: %w", spec.Name, err)
		}
		if per == 0 {
			return 1, nil
		}
		repeat := int(spec.TargetInst / per)
		if repeat < 1 {
			repeat = 1
		}
		return repeat, nil
	}
}

// built compiles a registered entry's image and resolves its repeat
// count exactly once, memoized behind the entry's sync.Once.
func (r *Registry) built(e *regEntry) (image, int, error) {
	e.once.Do(func() {
		e.img = compileImage(&e.spec)
		e.repeat, e.err = r.resolveVolume(&e.spec, e.img)
	})
	return e.img, e.repeat, e.err
}

// Default returns the registry holding every built-in workload: the
// paper's case studies, the SPEC CPU2006 stand-ins, the four extra
// scenario families and the training corpus. The registry — and its
// memoized calibrations — is shared process-wide.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultRegistry = NewRegistry()
		for _, spec := range builtinSpecs() {
			if err := defaultRegistry.Register(spec); err != nil {
				panic(err) // a broken built-in table is a programming error
			}
		}
	})
	return defaultRegistry
}

var (
	defaultOnce     sync.Once
	defaultRegistry *Registry
)

// builtinSpecs assembles the full built-in table: case studies first,
// then the SPEC suite, the extra scenario families, and the training
// corpus (registered so it is enumerable and runnable like any other
// workload).
func builtinSpecs() []ShapeSpec {
	specs := caseStudySpecs()
	specs = append(specs, specSuiteSpecs()...)
	specs = append(specs, familySpecs()...)
	specs = append(specs, trainingSpecs()...)
	return specs
}
