package analyzer

import (
	"math"
	"testing"

	"hbbp/internal/isa"
	"hbbp/internal/pivot"
	"hbbp/internal/program"
)

// twoRingProgram: user function (MOV ADD DIVSS + RET) and kernel
// function (MOV CMP + trace point + SYSRET).
func twoRingProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("an")
	mod := b.Module("app", program.RingUser)
	kmod := b.Module("vmlinux", program.RingKernel)

	uf := b.Function(mod, "hot")
	ub := b.Block(uf, isa.MOV, isa.ADD, isa.DIVSS, isa.VADDPS, isa.ADDSS)
	b.Return(ub)

	kf := b.Function(kmod, "sys_hot")
	k1 := b.Block(kf, isa.MOV, isa.CMP)
	k2 := b.Block(kf, isa.SUB)
	b.TracePoint(k1, k2)
	b.Return(k2)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func bbecsFor(p *program.Program, userCount, kernelCount float64) []float64 {
	out := make([]float64, p.NumBlocks())
	for _, blk := range p.Blocks() {
		if blk.Fn.Mod.Ring == program.RingKernel {
			out[blk.ID] = kernelCount
		} else {
			out[blk.ID] = userCount
		}
	}
	return out
}

func TestMixCountsPerMnemonic(t *testing.T) {
	p := twoRingProgram(t)
	mix := Mix(p, bbecsFor(p, 10, 3), Options{})
	if mix[isa.MOV] != 10+3 {
		t.Errorf("MOV = %v, want 13", mix[isa.MOV])
	}
	if mix[isa.DIVSS] != 10 {
		t.Errorf("DIVSS = %v, want 10", mix[isa.DIVSS])
	}
	if mix[isa.SYSRET] != 3 {
		t.Errorf("SYSRET = %v, want 3", mix[isa.SYSRET])
	}
	// Static view: the kernel trace point shows its JMP.
	if mix[isa.JMP] != 3 {
		t.Errorf("static JMP = %v, want 3", mix[isa.JMP])
	}
	if mix[isa.NOP] != 0 {
		t.Errorf("static NOP = %v, want 0", mix[isa.NOP])
	}
}

func TestMixLiveTextPatchesTracePoints(t *testing.T) {
	p := twoRingProgram(t)
	mix := Mix(p, bbecsFor(p, 10, 3), Options{LiveText: true})
	if mix[isa.JMP] != 0 {
		t.Errorf("live JMP = %v, want 0 (patched to NOPs)", mix[isa.JMP])
	}
	if mix[isa.NOP] != 6 {
		t.Errorf("live NOP = %v, want 6 (two per trace point execution)", mix[isa.NOP])
	}
}

func TestMixScopes(t *testing.T) {
	p := twoRingProgram(t)
	bb := bbecsFor(p, 10, 3)
	user := Mix(p, bb, Options{Scope: ScopeUser})
	kernel := Mix(p, bb, Options{Scope: ScopeKernel})
	if user[isa.SYSRET] != 0 || user[isa.MOV] != 10 {
		t.Errorf("user scope: %v", user)
	}
	if kernel[isa.MOV] != 3 || kernel[isa.DIVSS] != 0 {
		t.Errorf("kernel scope: %v", kernel)
	}
}

func TestMixModuleFunctionFilters(t *testing.T) {
	p := twoRingProgram(t)
	bb := bbecsFor(p, 10, 3)
	if m := Mix(p, bb, Options{Module: "vmlinux"}); m[isa.MOV] != 3 {
		t.Errorf("module filter: %v", m)
	}
	if m := Mix(p, bb, Options{Function: "hot"}); m[isa.MOV] != 10 {
		t.Errorf("function filter: %v", m)
	}
	if m := Mix(p, bb, Options{Function: "nope"}); len(m) != 0 {
		t.Errorf("missing function filter: %v", m)
	}
}

func TestMixFromExactMatchesFloat(t *testing.T) {
	p := twoRingProgram(t)
	ints := make([]uint64, p.NumBlocks())
	floats := make([]float64, p.NumBlocks())
	for i := range ints {
		ints[i] = uint64(i + 1)
		floats[i] = float64(i + 1)
	}
	a := MixFromExact(p, ints, Options{})
	bm := Mix(p, floats, Options{})
	for op, v := range a {
		if math.Abs(bm[op]-v) > 1e-9 {
			t.Errorf("%v: %v vs %v", op, v, bm[op])
		}
	}
}

func TestToMix(t *testing.T) {
	m := ToMix(map[isa.Op]uint64{isa.MOV: 5, isa.ADD: 7})
	if m[isa.MOV] != 5 || m[isa.ADD] != 7 {
		t.Errorf("ToMix: %v", m)
	}
}

func TestBuildPivotViews(t *testing.T) {
	p := twoRingProgram(t)
	tab := BuildPivot(p, bbecsFor(p, 10, 3), Options{LiveText: true})
	if tab.Len() == 0 {
		t.Fatal("empty pivot")
	}

	top := TopMnemonics(tab, 3)
	if len(top) != 3 {
		t.Fatalf("top mnemonics: %v", top)
	}
	if top[0].Keys[0] != "MOV" || top[0].Value != 13 {
		t.Errorf("top mnemonic = %v, want MOV/13", top[0])
	}

	fns := TopFunctions(tab, 10)
	if len(fns) != 2 {
		t.Fatalf("functions: %v", fns)
	}
	if fns[0].Keys[0] != "hot" {
		t.Errorf("hottest function = %v", fns[0])
	}

	rings := RingBreakdown(tab)
	var kernelTotal float64
	for _, r := range rings {
		if r.Keys[0] == "kernel" {
			kernelTotal = r.Value
		}
	}
	// Kernel live ops: (MOV CMP NOP NOP) + (SUB SYSRET) at 3 each = 18.
	if kernelTotal != 18 {
		t.Errorf("kernel retirements = %v, want 18", kernelTotal)
	}

	pk := PackingView(tab)
	var packedAVX float64
	for _, r := range pk {
		if r.Keys[0] == "AVX" && r.Keys[1] == "PACKED" {
			packedAVX = r.Value
		}
	}
	if packedAVX != 10 {
		t.Errorf("AVX/PACKED = %v, want 10", packedAVX)
	}

	// Rendering smoke check.
	out := pivot.Render([]string{"EXT", "PACKING"}, pk)
	if len(out) == 0 {
		t.Error("empty render")
	}
}

func TestPivotFilterByRing(t *testing.T) {
	p := twoRingProgram(t)
	tab := BuildPivot(p, bbecsFor(p, 10, 3), Options{})
	rows := tab.Pivot(pivot.Query{
		GroupBy: []string{DimMnemonic},
		Filter:  map[string]string{DimRing: "kernel"},
	})
	for _, r := range rows {
		if r.Keys[0] == "DIVSS" {
			t.Error("user-only mnemonic leaked into kernel filter")
		}
	}
}
