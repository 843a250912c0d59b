package tsstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hbbp/internal/profstore"
)

// epochProfile builds a small deterministic profile for one epoch,
// with enough shared and distinct keys across epochs that merging is
// non-trivial.
func epochProfile(rng *rand.Rand, epoch uint64) *profstore.Profile {
	p := &profstore.Profile{
		Workloads: []profstore.WorkloadWeight{{Name: "gcc", Runs: 1}},
	}
	mnems := []string{"add", "mov", "vaddps", "imul", "jmp"}
	for _, m := range mnems[:2+rng.Intn(3)] {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: m, Ring: uint8(rng.Intn(2)), Mass: uint64(1 + rng.Intn(1000)),
		})
	}
	for f := 0; f < 1+rng.Intn(3); f++ {
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: "gcc", Module: "a.out",
			Function: fmt.Sprintf("f%d", rng.Intn(4)),
			Addr:     uint64(0x1000 + 16*rng.Intn(8)),
			Ring:     profstore.RingUser,
			Len:      uint32(1 + rng.Intn(9)),
			Count:    uint64(1 + rng.Intn(500)),
		})
	}
	_ = epoch
	return profstore.Canonical(p)
}

// profileBytes serializes a profile for byte-level comparison.
func profileBytes(t *testing.T, p *profstore.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profstore.Save(&buf, p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestAppendAndWindowBasics pins the raw (pre-retention) behavior:
// appends land in per-epoch windows, queries merge inclusive ranges,
// and out-of-range or inverted queries come back empty.
func TestAppendAndWindowBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Series
	perEpoch := map[uint64][]*profstore.Profile{}
	for e := uint64(10); e < 16; e++ {
		for i := 0; i < 3; i++ {
			p := epochProfile(rng, e)
			perEpoch[e] = append(perEpoch[e], p)
			s.AppendEpoch(e, p)
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6 raw windows", s.Len())
	}
	lo, hi, ok := s.Bounds()
	if !ok || lo != 10 || hi != 15 {
		t.Fatalf("Bounds = %d,%d,%v", lo, hi, ok)
	}

	got, spans := s.Window(11, 13)
	var flat []*profstore.Profile
	for e := uint64(11); e <= 13; e++ {
		flat = append(flat, perEpoch[e]...)
	}
	if !bytes.Equal(profileBytes(t, got), profileBytes(t, profstore.Merge(flat...))) {
		t.Error("Window(11,13) diverges from flat merge of epochs 11..13")
	}
	if len(spans) != 3 || spans[0] != (Span{11, 11}) || spans[2] != (Span{13, 13}) {
		t.Errorf("spans = %v", spans)
	}

	if p, spans := s.Window(100, 200); len(spans) != 0 || len(p.Ops) != 0 {
		t.Errorf("out-of-range window not empty: %v %v", p, spans)
	}
	if p, spans := s.Window(13, 11); len(spans) != 0 || len(p.Ops) != 0 {
		t.Errorf("inverted window not empty: %v %v", p, spans)
	}

	// Nil appends are ignored; appends into an existing window merge.
	s.AppendEpoch(12, nil)
	if s.Len() != 6 {
		t.Errorf("nil append changed the series")
	}
}

// TestAppendOutOfOrderAndLateArrival pins that epochs can arrive in
// any order, including into a span already folded coarse.
func TestAppendOutOfOrderAndLateArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Series
	var all []*profstore.Profile
	for _, e := range []uint64{5, 2, 9, 0, 7, 2, 5} {
		p := epochProfile(rng, e)
		all = append(all, p)
		s.AppendEpoch(e, p)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5 distinct epochs", s.Len())
	}
	if !bytes.Equal(profileBytes(t, s.Merged()), profileBytes(t, profstore.Merge(all...))) {
		t.Error("out-of-order appends diverge from flat merge")
	}

	// Fold everything 4:1, then deliver a late arrival for epoch 1,
	// which now lives inside the folded window [0-2].
	s.Downsample(Retention{Levels: []Level{{Width: 1, Keep: 1}, {Width: 4}}}, 20)
	late := epochProfile(rng, 1)
	all = append(all, late)
	s.AppendEpoch(1, late)
	if !bytes.Equal(profileBytes(t, s.Merged()), profileBytes(t, profstore.Merge(all...))) {
		t.Error("late arrival into a folded window lost mass")
	}
}

// TestRegroupingInvariance is the acceptance keystone: ANY re-grouping
// of epochs — any retention ladder, applied at any cadence, in any
// interleaving with appends — merges bit-identical to the flat
// profstore.Merge of the same per-epoch profiles. Downsampling is
// lossless by construction, and this pins it to serialized bytes.
func TestRegroupingInvariance(t *testing.T) {
	ladders := []Retention{
		{}, // no folding at all
		{Levels: []Level{{Width: 1, Keep: 4}, {Width: 4}}},
		{Levels: []Level{{Width: 1, Keep: 8}, {Width: 4, Keep: 4}, {Width: 16}}},
		{Levels: []Level{{Width: 1, Keep: 1}, {Width: 2, Keep: 2}, {Width: 8, Keep: 1}, {Width: 16}}},
		{Levels: []Level{{Width: 1, Keep: 0}}}, // degenerate: everything raw
	}
	for li, ladder := range ladders {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(li)))
			var s Series
			var all []*profstore.Profile
			perEpoch := map[uint64][]*profstore.Profile{}
			nEpochs := uint64(20 + rng.Intn(40))
			for e := uint64(0); e < nEpochs; e++ {
				for i := 0; i < 1+rng.Intn(3); i++ {
					p := epochProfile(rng, e)
					all = append(all, p)
					perEpoch[e] = append(perEpoch[e], p)
					s.AppendEpoch(e, p)
				}
				// Downsample at a random cadence, mid-stream, like the
				// daemon does online.
				if rng.Intn(3) == 0 {
					s.Downsample(ladder, e)
				}
			}
			s.Downsample(ladder, nEpochs-1)

			want := profileBytes(t, profstore.Merge(all...))
			if got := profileBytes(t, s.Merged()); !bytes.Equal(got, want) {
				t.Fatalf("ladder %d seed %d: merged series diverges from flat merge (%d windows)",
					li, seed, s.Len())
			}

			// Every aligned sub-query is also exact: pick retained
			// window boundaries as query bounds and compare against
			// the flat merge of exactly those epochs.
			spans := s.Spans()
			for trial := 0; trial < 5 && len(spans) > 0; trial++ {
				i := rng.Intn(len(spans))
				j := i + rng.Intn(len(spans)-i)
				since, until := spans[i].Start, spans[j].End
				got, _ := s.Window(since, until)
				var flat []*profstore.Profile
				for e := since; e <= until; e++ {
					flat = append(flat, perEpoch[e]...)
				}
				if !bytes.Equal(profileBytes(t, got), profileBytes(t, profstore.Merge(flat...))) {
					t.Fatalf("ladder %d seed %d: Window(%d,%d) diverges from flat merge of those epochs",
						li, seed, since, until)
				}
			}
		}
	}
}

// TestDownsampleShapesLadder pins the fold geometry for the canonical
// 8-raw / 4:1 / 16:1 ladder: which spans exist after folding, that
// repeated application is idempotent, and that queries cut at fold
// boundaries are identical before and after.
func TestDownsampleShapesLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Series
	perEpoch := map[uint64]*profstore.Profile{}
	const latest = 63
	for e := uint64(0); e <= latest; e++ {
		p := epochProfile(rng, e)
		perEpoch[e] = p
		s.AppendEpoch(e, p)
	}
	before, _ := s.Window(0, 31) // 32-aligned: survives every fold below
	ladder := DefaultRetention()

	if folds := s.Downsample(ladder, latest); folds == 0 {
		t.Fatal("Downsample folded nothing over 64 epochs")
	}
	spans := s.Spans()
	// Raw band: epochs 56..63 (keep 8). 4:1 band: 4-aligned buckets
	// whose end < 56 and >= 56-16=40. 16:1: everything older.
	want := []Span{
		{0, 15}, {16, 31}, {32, 35}, {36, 39}, // 16:1 then 4:1 tail
		{40, 43}, {44, 47}, {48, 51}, {52, 55},
		{56, 56}, {57, 57}, {58, 58}, {59, 59},
		{60, 60}, {61, 61}, {62, 62}, {63, 63},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans after fold:\n got %v\nwant %v", spans, want)
	}
	// 32..39 folded at 4 wide, not 16: their buckets' ends (47) are
	// inside the 4:1 keep band. Re-applying changes nothing.
	if folds := s.Downsample(ladder, latest); folds != 0 {
		t.Errorf("second Downsample at the same latest folded %d more buckets", folds)
	}

	after, _ := s.Window(0, 31)
	if !bytes.Equal(profileBytes(t, before), profileBytes(t, after)) {
		t.Error("aligned query differs before/after the fold")
	}

	// Advance time: the 4:1 windows age into 16:1 territory.
	if folds := s.Downsample(ladder, latest+16); folds == 0 {
		t.Fatal("aged windows did not re-fold")
	}
	for _, sp := range s.Spans() {
		if sp.Start < 32 && sp.Epochs() != 16 {
			t.Errorf("old window %v not folded to width 16", sp)
		}
	}
	if !bytes.Equal(profileBytes(t, before), profileBytes(t, func() *profstore.Profile {
		p, _ := s.Window(0, 31)
		return p
	}())) {
		t.Error("aligned query differs after the second fold")
	}
}

// TestDownsampleBoundsWindowCount pins the memory-bounding property
// the daemon relies on: under a geometric ladder the retained window
// count grows like epochs/16, not like epochs.
func TestDownsampleBoundsWindowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s Series
	ladder := DefaultRetention()
	const epochs = 400
	for e := uint64(0); e < epochs; e++ {
		s.AppendEpoch(e, epochProfile(rng, e))
		s.Downsample(ladder, e)
	}
	// 8 raw + ~5 at 4:1 + ~ceil(376/16)=24 at 16:1, plus alignment
	// slop. Anything near 400 means folding is broken.
	if s.Len() > 48 {
		t.Fatalf("retained %d windows over %d epochs; folding is not bounding the store", s.Len(), epochs)
	}
}

// TestRetentionValidateAndParse pins the ladder spec surface.
func TestRetentionValidateAndParse(t *testing.T) {
	good := []string{"", "1:8", "1:8,4:4", "1:8,4:4,16:0", "1:1,2:2,8:1,16:0"}
	for _, spec := range good {
		if _, err := ParseRetention(spec); err != nil {
			t.Errorf("ParseRetention(%q) = %v", spec, err)
		}
	}
	bad := map[string]string{
		"4:4":          "width 1",
		"1:8,4:4,6:0":  "multiple",
		"1:8,4:4,4:0":  "multiple",
		"1:8,4:0,16:0": "not the last",
		"1:8,4":        "WIDTH:KEEP",
		"0:8":          "width 0",
		"1:8,4:x":      "keep",
		"x:8":          "width",
	}
	for spec, want := range bad {
		_, err := ParseRetention(spec)
		if err == nil {
			t.Errorf("ParseRetention(%q) accepted", spec)
			continue
		}
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("ParseRetention(%q) = %v, want mention of %q", spec, err, want)
		}
	}
	// "default" names the standard ladder.
	if r, err := ParseRetention("default"); err != nil || r.String() != DefaultRetention().String() {
		t.Errorf("ParseRetention(\"default\") = %v, %v; want %v", r, err, DefaultRetention())
	}
	// Round trip through String.
	r, err := ParseRetention("1:8,4:4,16:0")
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "1:8,4:4,16:0" {
		t.Errorf("String = %q", r.String())
	}
}

// TestCloneIsolation pins that a clone is a safe read view: mutations
// of the original do not reshape the clone.
func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Series
	for e := uint64(0); e < 8; e++ {
		s.AppendEpoch(e, epochProfile(rng, e))
	}
	c := s.Clone()
	wantBytes := profileBytes(t, c.Merged())
	s.AppendEpoch(9, epochProfile(rng, 9))
	s.Downsample(Retention{Levels: []Level{{Width: 1, Keep: 1}, {Width: 4}}}, 9)
	if c.Len() != 8 {
		t.Errorf("clone reshaped by original's mutations: %d windows", c.Len())
	}
	if !bytes.Equal(profileBytes(t, c.Merged()), wantBytes) {
		t.Error("clone content changed")
	}
}

// windowFlat is the reference implementation Window's merge tree must
// agree with byte-for-byte: a linear collect of every overlapping
// window and one flat merge.
func (s *Series) windowFlat(since, until uint64) *profstore.Profile {
	if since > until {
		return &profstore.Profile{}
	}
	var profs []*profstore.Profile
	i, _ := s.locate(since)
	for ; i < len(s.windows) && s.windows[i].span.Start <= until; i++ {
		profs = append(profs, s.windows[i].prof)
	}
	return profstore.Merge(profs...)
}

// TestMergeTreeMatchesFlatMerge pins the memoized merge tree to the
// flat merge it decomposes: every query shape — small and large,
// repeated (memo hits), interleaved with appends and downsampling that
// must invalidate the tree — serializes identically to the linear
// reference.
func TestMergeTreeMatchesFlatMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Series
	for e := uint64(0); e < 48; e++ {
		s.AppendEpoch(e, epochProfile(rng, e))
	}
	check := func(stage string) {
		t.Helper()
		lo, hi, _ := s.Bounds()
		queries := [][2]uint64{
			{lo, hi}, {lo, lo}, {hi, hi}, {lo + 1, hi - 1},
			{lo + 3, lo + 20}, {hi - 9, hi}, {lo, lo + 2},
		}
		for _, q := range queries {
			got, _ := s.Window(q[0], q[1])
			want := s.windowFlat(q[0], q[1])
			if !bytes.Equal(profileBytes(t, got), profileBytes(t, want)) {
				t.Errorf("%s: Window(%d,%d) diverges from flat merge", stage, q[0], q[1])
			}
			// Ask again: the second answer comes mostly from memoized
			// nodes and must not drift.
			again, _ := s.Window(q[0], q[1])
			if !bytes.Equal(profileBytes(t, again), profileBytes(t, want)) {
				t.Errorf("%s: repeated Window(%d,%d) diverges", stage, q[0], q[1])
			}
		}
	}
	check("raw")

	// An append into the middle of the queried range must invalidate
	// the memoized nodes covering it.
	s.AppendEpoch(20, epochProfile(rng, 20))
	check("after mid-range append")

	// Downsampling rebuilds the window list; stale nodes must go.
	if s.Downsample(DefaultRetention(), 47) == 0 {
		t.Fatal("downsample folded nothing")
	}
	check("after downsample")

	// A clone must not share memoization state with the original: query
	// the clone, mutate the original, and re-check both.
	c := s.Clone()
	cw, _ := c.Window(0, 47)
	s.AppendEpoch(48, epochProfile(rng, 48))
	if !bytes.Equal(profileBytes(t, cw), profileBytes(t, c.windowFlat(0, 47))) {
		t.Error("clone's query diverged after mutating the original")
	}
	check("after post-clone append")
}
