package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hbbp/internal/isa"
)

func TestErrorDefinition(t *testing.T) {
	// The paper's example: reference 500 MOVs, measured 510 -> 2%.
	if got := Error(500, 510); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("Error(500,510) = %v, want 0.02", got)
	}
	if got := Error(100, 100); got != 0 {
		t.Errorf("exact measurement error = %v", got)
	}
	if got := Error(100, 0); got != 1 {
		t.Errorf("missing measurement error = %v, want 1", got)
	}
	if got := Error(0, 0); got != 0 {
		t.Errorf("Error(0,0) = %v", got)
	}
	if got := Error(0, 5); got != 1 {
		t.Errorf("phantom count error = %v, want 1", got)
	}
	// Symmetric for over/undercount.
	if Error(100, 90) != Error(100, 110) {
		t.Error("error not symmetric around the reference")
	}
}

func TestAvgWeightedError(t *testing.T) {
	ref := Mix{isa.MOV: 500, isa.ADD: 500}
	meas := Mix{isa.MOV: 510, isa.ADD: 500}
	// Error(MOV)=0.02 weighted 0.5, ADD exact: total 0.01.
	if got := AvgWeightedError(ref, meas); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("AvgWeightedError = %v, want 0.01", got)
	}
	// Phantom mnemonics contribute nothing (zero reference weight).
	meas[isa.DIV] = 1000
	if got := AvgWeightedError(ref, meas); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("AvgWeightedError with phantom = %v, want 0.01", got)
	}
	if got := AvgWeightedError(Mix{}, meas); got != 0 {
		t.Errorf("empty reference = %v", got)
	}
}

func TestMixTotalAndTopN(t *testing.T) {
	m := Mix{isa.MOV: 50, isa.ADD: 100, isa.SUB: 25}
	if m.Total() != 175 {
		t.Errorf("Total = %v", m.Total())
	}
	top := m.TopN(2)
	if len(top) != 2 || top[0] != isa.ADD || top[1] != isa.MOV {
		t.Errorf("TopN = %v", top)
	}
	if got := m.TopN(10); len(got) != 3 {
		t.Errorf("TopN(10) = %v", got)
	}
	// Deterministic tie-break by name.
	tie := Mix{isa.XOR: 5, isa.AND: 5, isa.OR: 5}
	a := tie.TopN(3)
	if a[0] != isa.AND || a[1] != isa.OR || a[2] != isa.XOR {
		t.Errorf("tie order = %v", a)
	}
}

// Property: avg weighted error is 0 iff measurement matches reference on
// every referenced mnemonic, and always within [0, max per-mnemonic
// error].
func TestQuickAvgWeightedBounds(t *testing.T) {
	ops := isa.All()
	f := func(counts []uint16, deltas []int8) bool {
		ref := Mix{}
		meas := Mix{}
		var maxErr float64
		for i, c := range counts {
			if i >= len(ops) || c == 0 {
				break
			}
			op := ops[i]
			ref[op] = float64(c)
			d := 0.0
			if i < len(deltas) {
				d = float64(deltas[i])
			}
			meas[op] = math.Max(0, float64(c)+d)
			if e := Error(ref[op], meas[op]); e > maxErr {
				maxErr = e
			}
		}
		got := AvgWeightedError(ref, meas)
		return got >= -1e-12 && got <= maxErr+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// spreadMix is a fixed 60-op mix whose values span many orders of
// magnitude, so adding them in a different order changes the last
// bits of the sum.
func spreadMix(seed int64) Mix {
	rng := rand.New(rand.NewSource(seed))
	m := Mix{}
	for _, op := range isa.All()[:60] {
		m[op] = rng.Float64() * math.Pow(10, float64(rng.Intn(16)))
	}
	return m
}

// TestMixSumsAreRepeatable pins that the sums over a mix do not depend
// on map iteration order: 1,000 calls on the same mixes return the
// same bits.
func TestMixSumsAreRepeatable(t *testing.T) {
	ref, meas := spreadMix(1), spreadMix(2)
	total, avg := ref.Total(), AvgWeightedError(ref, meas)
	for i := 0; i < 1000; i++ {
		if got := ref.Total(); math.Float64bits(got) != math.Float64bits(total) {
			t.Fatalf("call %d: Total = %b, first call %b", i, got, total)
		}
		if got := AvgWeightedError(ref, meas); math.Float64bits(got) != math.Float64bits(avg) {
			t.Fatalf("call %d: AvgWeightedError = %b, first call %b", i, got, avg)
		}
	}
}
