package hbbp

import (
	"errors"
	"fmt"

	"hbbp/internal/workloads"
)

// WorkloadInfo describes one entry of the workload registry.
type WorkloadInfo struct {
	// Name is the registry key accepted by [LookupWorkload].
	Name string
	// Class is the workload's runtime class (Table 4 periods).
	Class RuntimeClass
	// Description summarises what the workload models.
	Description string
}

// Workloads enumerates every registered workload — the paper's case
// studies, the SPEC CPU2006 stand-ins, the extra scenario families
// (pointer-chase, phase-alternating, megamorphic-branchy,
// callgraph-deep), the training corpus, and anything added with
// [RegisterWorkload] — sorted by name. Enumeration reads specs only;
// no workload is built.
func Workloads() []WorkloadInfo {
	specs := workloads.Default().Specs()
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = WorkloadInfo{Name: s.Name, Class: s.Class, Description: s.Description}
	}
	return out
}

// WorkloadNames lists every workload name accepted by
// [LookupWorkload], sorted.
func WorkloadNames() []string {
	return workloads.Default().Names()
}

// LookupWorkload builds a registered workload by name — any SPEC
// CPU2006 name (gcc, povray, lbm, ...), a case study (test40,
// hydro-post, kernel-prime, clforward-before, clforward-after,
// fitter-x87, fitter-sse, fitter-avx, fitter-avxfix), a scenario
// family (pointer-chase, phase-alternating, megamorphic-branchy,
// callgraph-deep) or a training workload (train01..., trainloop01...).
// Unknown names return an error matching [ErrUnknownWorkload]; builds
// that fail (a calibration dry run that cannot complete) match
// [ErrWorkloadBuild].
func LookupWorkload(name string) (*Workload, error) {
	w, err := workloads.Default().Build(name)
	if errors.Is(err, workloads.ErrUnknown) {
		return nil, fmt.Errorf("%w: %q (run 'hbbp -list' or call hbbp.Workloads() to enumerate the available workloads)",
			ErrUnknownWorkload, name)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// NewWorkload compiles a caller-authored [ShapeSpec] into a runnable
// workload without registering it. The spec goes through the same
// build path as a registered one: the same generic generator for its
// Synth shape, and the same derived execution and instrumentation
// tables, so profiling it matches profiling the spec registered.
// Calibration (TargetInst) pays its own dry run, and RepeatOf may
// reference any registered workload. Failures match [ErrWorkloadBuild].
func NewWorkload(spec ShapeSpec) (*Workload, error) {
	return workloads.Default().BuildSpec(spec)
}

// RegisterWorkload adds a caller-authored spec to the registry:
// [LookupWorkload], [Workloads] and cmd/hbbp -list see it like any
// built-in. Names must not collide with existing entries.
func RegisterWorkload(spec ShapeSpec) error {
	return workloads.Default().Register(spec)
}

// Test40 builds the Geant4-like simulation workload (short
// object-oriented methods — the hard case for plain EBS; Table 5,
// Figures 3 and 4).
func Test40() (*Workload, error) { return LookupWorkload("test40") }

// HydroPost builds the Hydro post-processing benchmark of Table 1.
func HydroPost() (*Workload, error) { return LookupWorkload("hydro-post") }

// KernelPrime builds the synthetic user+kernel prime search of
// Table 7: the same algorithm as a user-space function and as a
// kernel-module function reached through a syscall.
func KernelPrime() (*Workload, error) { return LookupWorkload("kernel-prime") }

// CLForward builds the CLForward vectorization case study of Table 8,
// before or after the vectorization fix.
func CLForward(fixed bool) (*Workload, error) {
	if fixed {
		return LookupWorkload("clforward-after")
	}
	return LookupWorkload("clforward-before")
}

// Fitter builds one variant of the track-fitting benchmark of
// Tables 3 and 6.
func Fitter(v FitterVariant) (*Workload, error) {
	return LookupWorkload(v.WorkloadName())
}

// FitterVariants lists the Fitter builds in Table 6 column order.
func FitterVariants() []FitterVariant { return workloads.FitterVariants() }

// SPECNames lists the SPEC CPU2006 stand-in names in Figure 2 suite
// order.
func SPECNames() []string { return workloads.SPECNames() }

// SPECSuite builds the full SPEC-like suite in Figure 2 order.
func SPECSuite() ([]*Workload, error) {
	names := workloads.SPECNames()
	out := make([]*Workload, len(names))
	for i, name := range names {
		w, err := LookupWorkload(name)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
