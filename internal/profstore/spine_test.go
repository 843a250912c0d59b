package profstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// alignAll aligns each profile onto s, failing the test on a miss.
func alignAll(t *testing.T, s *Spine, profiles []*Profile) [][]uint64 {
	t.Helper()
	cols := make([][]uint64, len(profiles))
	for i, p := range profiles {
		cols[i] = make([]uint64, s.Len())
		if !s.Align(p, cols[i]) {
			t.Fatalf("profile %d holds a key its spine lacks", i)
		}
	}
	return cols
}

// sumColumns adds columns element by element.
func sumColumns(n int, cols ...[]uint64) []uint64 {
	sum := make([]uint64, n)
	for _, col := range cols {
		for i, v := range col {
			sum[i] += v
		}
	}
	return sum
}

// TestSpineMatchesOracle pins the three column primitives to the merge
// oracle: any subset of profiles aligned onto a spine grown from them
// sums and materializes to their merge, a profile with a key the spine
// lacks does not align, and a grown spine's remapped columns
// materialize as the old ones did.
func TestSpineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 40; round++ {
		in := make([]*Profile, 1+rng.Intn(8))
		for i := range in {
			in[i] = Canonical(oracleInput(rng, fmt.Sprintf("svc%d", rng.Intn(3)), shapeCanonical))
		}
		spine, _ := (*Spine)(nil).Grow(nil, in...)
		cols := alignAll(t, spine, in)
		for k := 0; k < 4; k++ {
			var pick []*Profile
			var picked [][]uint64
			for i := range in {
				if rng.Intn(2) == 0 {
					pick = append(pick, in[i])
					picked = append(picked, cols[i])
				}
			}
			what := fmt.Sprintf("round %d: %d of %d columns", round, len(pick), len(in))
			equalProfiles(t, what, spine.Materialize(sumColumns(spine.Len(), picked...)), oracleMerge(pick...))
		}

		foreign := Canonical(oracleInput(rng, "foreign", shapeCanonical))
		if spine.Align(foreign, make([]uint64, spine.Len())) {
			t.Fatalf("round %d: a profile with a foreign unit aligned", round)
		}

		// Grow by the foreign profile, keeping only some columns: the
		// kept columns must materialize as before, the foreign profile
		// must now align, and nothing given to Grow may change.
		keep := cols[:1+rng.Intn(len(cols))]
		before := make([][]uint64, len(keep))
		for i, col := range keep {
			before[i] = slices.Clone(col)
		}
		oldKeys := spine.keys.Clone()
		grown, moved := spine.Grow(keep, foreign)
		for i := range keep {
			if !slices.Equal(keep[i], before[i]) {
				t.Fatalf("round %d: Grow rewrote column %d in place", round, i)
			}
			equalProfiles(t, fmt.Sprintf("round %d: remapped column %d", round, i),
				grown.Materialize(moved[i]), spine.Materialize(keep[i]))
		}
		equalProfiles(t, fmt.Sprintf("round %d: old spine", round), &spine.keys, oldKeys)
		if !grown.Align(foreign, make([]uint64, grown.Len())) {
			t.Fatalf("round %d: the grown spine lacks the key that grew it", round)
		}
		if used := oracleMerge(append(in[:len(keep):len(keep)], foreign)...); grown.Len() !=
			len(used.Workloads)+len(used.Blocks)+len(used.Ops) {
			t.Fatalf("round %d: grown spine holds %d keys; its columns and the new profile use %d",
				round, grown.Len(), len(used.Workloads)+len(used.Blocks)+len(used.Ops))
		}
	}
}

// TestGrowDropsUnusedKeysWithoutTouchingColumns pins the case where a
// grown spine is no longer than the old one — one key dropped, one
// added — so a remap done in place would go unnoticed by length: the
// old column must keep its masses, and the remapped one must move
// them.
func TestGrowDropsUnusedKeysWithoutTouchingColumns(t *testing.T) {
	a := &Profile{Ops: []OpMass{{Mnemonic: "add", Mass: 3}}}
	b := &Profile{Ops: []OpMass{{Mnemonic: "mov", Mass: 5}}}
	c := &Profile{Ops: []OpMass{{Mnemonic: "xor", Mass: 7}}}
	spine, _ := (*Spine)(nil).Grow(nil, a, b)
	cols := alignAll(t, spine, []*Profile{b}) // "add" is unused
	grown, moved := spine.Grow(cols, c)
	if grown.Len() != 2 {
		t.Fatalf("grown spine holds %d keys, want 2 (mov, xor)", grown.Len())
	}
	if !slices.Equal(cols[0], []uint64{0, 5}) {
		t.Fatalf("old column rewritten: %v", cols[0])
	}
	if !slices.Equal(moved[0], []uint64{5, 0}) {
		t.Fatalf("remapped column %v, want [5 0]", moved[0])
	}
}

// TestNilSpine pins the empty spine: zero keys, only empty profiles
// align, and it materializes the empty profile.
func TestNilSpine(t *testing.T) {
	var s *Spine
	if s.Len() != 0 {
		t.Fatalf("nil spine has %d keys", s.Len())
	}
	if !s.Align(&Profile{}, nil) {
		t.Fatal("the empty profile does not align onto the empty spine")
	}
	if s.Align(&Profile{Ops: []OpMass{{Mnemonic: "add", Mass: 1}}}, nil) {
		t.Fatal("a non-empty profile aligned onto the empty spine")
	}
	equalProfiles(t, "nil spine", s.Materialize(nil), &Profile{})
}
