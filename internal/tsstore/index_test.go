package tsstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hbbp/internal/profstore"
)

// indexProfile draws one per-run profile over a small key space, so
// most of an epoch's keys recur in every window. Units come from units;
// every mass is below 2^32, so no sum a test makes can wrap.
func indexProfile(rng *rand.Rand, units []string) *profstore.Profile {
	p := &profstore.Profile{}
	unit := units[rng.Intn(len(units))]
	p.Workloads = append(p.Workloads, profstore.WorkloadWeight{Name: unit, Runs: uint64(1 + rng.Intn(4))})
	for i, n := 0, 4+rng.Intn(12); i < n; i++ {
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: unit, Module: "a.out",
			Function: fmt.Sprintf("f%d", rng.Intn(3)),
			Addr:     uint64(0x1000 + 16*rng.Intn(6)),
			Ring:     uint8(rng.Intn(2)),
			Len:      uint32(1 + rng.Intn(2)),
			Count:    uint64(1 + rng.Int63n(1<<32-1)),
		})
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: []string{"add", "mov", "vaddps", "imul", "jmp"}[rng.Intn(5)],
			Ring:     uint8(rng.Intn(2)),
			Mass:     uint64(1 + rng.Int63n(1<<32-1)),
		})
	}
	return profstore.Canonical(p)
}

// randomLadder draws a valid retention ladder, or the empty one.
func randomLadder(rng *rand.Rand) Retention {
	if rng.Intn(4) == 0 {
		return Retention{}
	}
	r := Retention{Levels: []Level{{Width: 1, Keep: uint64(1 + rng.Intn(6))}}}
	width := uint64(1)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		width *= uint64(2 + rng.Intn(3))
		r.Levels = append(r.Levels, Level{Width: width, Keep: uint64(1 + rng.Intn(4))})
	}
	r.Levels[len(r.Levels)-1].Keep = 0
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}

// appended is one profile AppendEpoch took, for the flat-merge oracle.
type appended struct {
	epoch uint64
	prof  *profstore.Profile
}

// tracked is a series under test beside every profile appended to it.
type tracked struct {
	name string
	s    *Series
	log  []appended
}

func (tr *tracked) clone(name string) *tracked {
	return &tracked{name: name, s: tr.s.Clone(), log: append([]appended(nil), tr.log...)}
}

func (tr *tracked) append(e uint64, p *profstore.Profile) {
	tr.s.AppendEpoch(e, p)
	tr.log = append(tr.log, appended{e, p})
}

// check compares Window(since, until) with two oracles: MergeCanonical
// of the same windows' profiles, byte for byte, and the flat Merge of
// every profile appended to the returned spans.
func (tr *tracked) check(t *testing.T, stage string, since, until uint64) {
	t.Helper()
	got, spans := tr.s.Window(since, until)
	var profs []*profstore.Profile
	for k := range tr.s.Len() {
		p, sp := tr.s.At(k)
		if sp.End >= since && sp.Start <= until && since <= until {
			profs = append(profs, p)
		}
	}
	gotBytes := profileBytes(t, got)
	if want := profileBytes(t, profstore.MergeCanonical(profs...)); !bytes.Equal(gotBytes, want) {
		t.Fatalf("%s: %s.Window(%d, %d) differs from MergeCanonical of its %d windows", stage, tr.name, since, until, len(profs))
	}
	var flat []*profstore.Profile
	for _, a := range tr.log {
		for _, sp := range spans {
			if sp.Contains(a.epoch) {
				flat = append(flat, a.prof)
				break
			}
		}
	}
	if want := profileBytes(t, profstore.Merge(flat...)); !bytes.Equal(gotBytes, want) {
		t.Fatalf("%s: %s.Window(%d, %d) differs from the flat merge of its %d appended profiles", stage, tr.name, since, until, len(flat))
	}
}

// TestIndexedWindowMatchesMerge is the oracle property test of the
// column index: over random series built from appends, late arrivals,
// folds under random ladders, new keys partway through (spine growth)
// and churning units (windows left unindexed), with Index called over
// random ranges on originals, on clones appended to independently and
// on series reopened from disk, every Window serializes byte-identical
// to MergeCanonical of the same windows' profiles and to the flat merge
// of every profile appended to them.
func TestIndexedWindowMatchesMerge(t *testing.T) {
	var summed, wide int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ladder := randomLadder(rng)
		units := []string{"gcc", "mcf"}
		live := []*tracked{{name: "original", s: &Series{}}}
		top := uint64(0)
		for step := 0; step < 90; step++ {
			switch {
			case step == 30:
				units = append(units, "lbm", "namd") // new keys: the spine grows
			case step >= 60:
				units = []string{fmt.Sprintf("build-%d", step)} // a unit per build: keys churn
			}
			tr := live[rng.Intn(len(live))]
			switch op := rng.Intn(10); {
			case op < 4:
				top++
				for n := 1 + rng.Intn(3); n > 0; n-- {
					tr.append(top, indexProfile(rng, units))
				}
			case op < 6:
				tr.append(uint64(rng.Int63n(int64(top+1))), indexProfile(rng, units)) // late arrival
			case op == 6:
				tr.s.Downsample(ladder, top)
			case op == 7 && len(live) < 4:
				live = append(live, tr.clone(fmt.Sprintf("clone@%d", step)))
			case op == 8 && rng.Intn(3) == 0:
				dir := t.TempDir()
				if err := tr.s.Save(dir); err != nil {
					t.Fatal(err)
				}
				r, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				re := &tracked{name: fmt.Sprintf("reopened@%d", step), s: r, log: append([]appended(nil), tr.log...)}
				re.check(t, "reopened, unindexed", 0, top)
				re.s.Index(0, top)
				re.check(t, "reopened, indexed", 0, top)
				live[rng.Intn(len(live))] = re
			default:
				a := uint64(rng.Int63n(int64(top + 1)))
				tr.s.Index(a, a+uint64(rng.Int63n(int64(top-a+1))))
			}
			for _, tr := range live {
				for q := 0; q < 3; q++ {
					a := uint64(rng.Int63n(int64(top + 2)))
					b := a + uint64(rng.Int63n(int64(top+2-a)))
					tr.check(t, fmt.Sprintf("seed %d step %d", seed, step), a, b)
				}
				for _, w := range tr.s.windows {
					if w.col != nil {
						summed++
					}
					if w.wide {
						wide++
					}
				}
			}
		}
	}
	// The property is vacuous unless both paths ran.
	if summed == 0 || wide == 0 {
		t.Fatalf("indexed windows seen %d times, wide windows %d: the test no longer covers both paths", summed, wide)
	}
}

// TestIndexTelemetry pins the index's two counters over a scripted
// sequence: append, query, repeat the query, late arrival, query,
// fold, query. A repeated query builds no column, and a fold sums its
// windows' columns instead of aligning anew.
func TestIndexTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	units := []string{"gcc"}
	var s Series
	query := func(stage string, since, until uint64, built, byColumn, byMerge uint64) {
		t.Helper()
		b0, c0, m0 := columnsBuilt.Value(), windowsByColumn.Value(), windowsByMerge.Value()
		s.Index(since, until)
		s.Window(since, until)
		b, c, m := columnsBuilt.Value()-b0, windowsByColumn.Value()-c0, windowsByMerge.Value()-m0
		if b != built || c != byColumn || m != byMerge {
			t.Errorf("%s: built %d, by column %d, by merge %d; want %d, %d, %d", stage, b, c, m, built, byColumn, byMerge)
		}
	}
	for e := uint64(0); e < 4; e++ {
		s.AppendEpoch(e, indexProfile(rng, units))
		s.AppendEpoch(e, indexProfile(rng, units))
	}
	query("first query", 0, 3, 4, 4, 0)
	query("repeated query", 0, 3, 0, 4, 0)
	s.AppendEpoch(1, indexProfile(rng, units))
	query("after a late arrival", 0, 3, 1, 4, 0)
	if s.Downsample(Retention{Levels: []Level{{Width: 1, Keep: 2}, {Width: 2}}}, 3) != 1 {
		t.Fatal("the ladder folded nothing")
	}
	query("after a fold", 0, 3, 0, 3, 0)
	s.AppendEpoch(4, indexProfile(rng, units))
	b0, c0, m0 := columnsBuilt.Value(), windowsByColumn.Value(), windowsByMerge.Value()
	s.Window(0, 4) // not indexed first: the new window merges
	if b, c, m := columnsBuilt.Value()-b0, windowsByColumn.Value()-c0, windowsByMerge.Value()-m0; b != 0 || c != 3 || m != 1 {
		t.Errorf("unindexed new window: built %d, by column %d, by merge %d; want 0, 3, 1", b, c, m)
	}
	query("one window", 4, 4, 0, 0, 1)
}

// TestIndexLeavesWideWindowsUnindexed pins the memory rule: windows
// that share their keys are indexed; once every epoch brings a new
// build, no window holds a column larger than its rows — each
// one-build window stays unindexed, and an indexed window whose column
// the grown spine pushes past the rule loses it — and every query
// still answers the flat merge.
func TestIndexLeavesWideWindowsUnindexed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s Series
	for e := uint64(0); e < 10; e++ {
		s.AppendEpoch(e, indexProfile(rng, []string{"gcc"}))
		s.AppendEpoch(e, indexProfile(rng, []string{"gcc"}))
	}
	s.Index(0, 9)
	indexed := func() int {
		n := 0
		for _, w := range s.windows {
			if w.col != nil {
				n++
				if !fitsColumn(w.prof, len(w.col)) {
					t.Fatalf("window %s holds a %d-mass column larger than its rows", w.span, len(w.col))
				}
			}
		}
		return n
	}
	if n := indexed(); n != 10 {
		t.Fatalf("%d of 10 windows sharing their keys indexed", n)
	}
	for e := uint64(10); e < 40; e++ {
		s.AppendEpoch(e, indexProfile(rng, []string{fmt.Sprintf("build-%d", e)}))
	}
	s.Index(0, 39)
	indexed()
	for _, w := range s.windows[10:] {
		if w.col != nil || !w.wide {
			t.Fatalf("one-build window %s is indexed", w.span)
		}
	}
	for _, r := range [][2]uint64{{0, 9}, {0, 39}, {5, 20}} {
		got, _ := s.Window(r[0], r[1])
		if !bytes.Equal(profileBytes(t, got), profileBytes(t, s.windowFlat(r[0], r[1]))) {
			t.Fatalf("Window(%d, %d) over a partly indexed series differs from the flat merge", r[0], r[1])
		}
	}
}
