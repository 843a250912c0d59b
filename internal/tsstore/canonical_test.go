package tsstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hbbp/internal/profstore"
)

// nonCanonical returns a canonical epoch profile broken one of three
// ways — rows shuffled out of order, one key split into two rows, or
// zero-mass rows added — the inputs AppendEpoch must canonicalize.
func nonCanonical(rng *rand.Rand, epoch uint64, shape int) *profstore.Profile {
	p := epochProfile(rng, epoch).Clone()
	switch shape % 3 {
	case 0:
		rng.Shuffle(len(p.Blocks), func(i, j int) { p.Blocks[i], p.Blocks[j] = p.Blocks[j], p.Blocks[i] })
		slices.Reverse(p.Ops) // at least two distinct ops: now descending
	case 1:
		p.Workloads = append(p.Workloads, p.Workloads[0])
		p.Blocks = append(p.Blocks, p.Blocks[0])
		p.Ops = append(p.Ops, p.Ops[len(p.Ops)-1])
	case 2:
		p.Workloads = append(p.Workloads, profstore.WorkloadWeight{Name: "idle"})
		p.Blocks = append(p.Blocks, profstore.Block{Unit: "gcc", Module: "zero.so", Function: "never", Len: 1})
		p.Ops = append([]profstore.OpMass{{Mnemonic: "nop"}}, p.Ops...)
	}
	return p
}

// requireCanonicalWindows checks MergeCanonical's precondition on every
// retained window: each equals profstore.Canonical of itself, row for
// row. (Comparing saved bytes would not do: Save canonicalizes.) It
// also checks that the whole-series query, which merges the windows
// unchecked, agrees with a checked merge of them.
func requireCanonicalWindows(t *testing.T, what string, s *Series) {
	t.Helper()
	var profs []*profstore.Profile
	for i := 0; i < s.Len(); i++ {
		p, span := s.At(i)
		c := profstore.Canonical(p)
		if !slices.Equal(p.Workloads, c.Workloads) || !slices.Equal(p.Blocks, c.Blocks) || !slices.Equal(p.Ops, c.Ops) {
			t.Fatalf("%s: window %v is not canonical", what, span)
		}
		profs = append(profs, p)
	}
	if !bytes.Equal(profileBytes(t, s.Merged()), profileBytes(t, profstore.Merge(profs...))) {
		t.Fatalf("%s: the unchecked series merge differs from a checked one", what)
	}
}

// TestWindowsStayCanonical pins the precondition Window and Downsample
// rely on when they merge windows with profstore.MergeCanonical: after
// every mutation path — appends of unsorted, duplicate-key and
// zero-mass profiles into new and existing windows, folds at every
// rung of a four-level ladder, late arrivals into folded windows, and a
// save and reopen — every window is still canonical.
func TestWindowsStayCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ladder := Retention{Levels: []Level{{Width: 1, Keep: 2}, {Width: 2, Keep: 2}, {Width: 4, Keep: 2}, {Width: 8}}}
	widths := map[uint64]bool{}
	var s Series
	for e := uint64(0); e < 48; e++ {
		for k := 0; k < 3; k++ {
			s.AppendEpoch(e, nonCanonical(rng, e, int(e)+k))
			requireCanonicalWindows(t, fmt.Sprintf("append %d at epoch %d", k, e), &s)
		}
		s.Downsample(ladder, e)
		requireCanonicalWindows(t, fmt.Sprintf("downsample at epoch %d", e), &s)
		for _, sp := range s.Spans() {
			widths[sp.Epochs()] = true
		}
		if e >= 8 {
			late := uint64(rng.Intn(int(e - 6)))
			s.AppendEpoch(late, nonCanonical(rng, late, int(e)))
			requireCanonicalWindows(t, fmt.Sprintf("late arrival at epoch %d", late), &s)
		}
	}
	for _, w := range []uint64{2, 4, 8} {
		if !widths[w] {
			t.Errorf("no window of width %d was ever folded; widths seen %v", w, widths)
		}
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireCanonicalWindows(t, "saved and reopened", opened)
	if !bytes.Equal(profileBytes(t, opened.Merged()), profileBytes(t, s.Merged())) {
		t.Fatal("reopened series merges to different bytes")
	}
}
