package fleetserver

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// rollConfig is the retention setup the roll tests use: tiny bands so
// folds happen within a few epochs.
func rollConfig() Config {
	return Config{
		Retention: tsstore.Retention{Levels: []tsstore.Level{
			{Width: 1, Keep: 2}, {Width: 4},
		}},
	}
}

// sendEpochs delivers n profiles per epoch over [0, epochs) and
// returns every sent profile grouped by epoch.
func sendEpochs(t *testing.T, s *Server, tenant string, epochs uint64, perEpoch int, seed int64) map[uint64][]*profstore.Profile {
	t.Helper()
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: tenant, Agent: "roller"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	sent := map[uint64][]*profstore.Profile{}
	for e := uint64(0); e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			p := testProfile(rng, "gcc")
			if err := c.Send(ctx, e, p); err != nil {
				t.Fatalf("send epoch %d: %v", e, err)
			}
			sent[e] = append(sent[e], p)
		}
	}
	return sent
}

// TestEpochRollBoundsMemory pins the daemon-memory property: with
// retention configured, old epochs leave the live aggregator map and
// fold into a bounded series, while every windowed query remains
// bit-identical to the flat offline merge of exactly the acked
// profiles in those epochs.
func TestEpochRollBoundsMemory(t *testing.T) {
	s := startServer(t, rollConfig())
	const epochs = 40
	sent := sendEpochs(t, s, "acme", epochs, 3, 1)

	ts := tenantStats(t, s, "acme")
	// Live epochs: a tenant keeps one, its newest (epoch 39), and every
	// older epoch has rolled into the series; the check allows one
	// more.
	if len(ts.Epochs) > 2 {
		t.Fatalf("live epochs = %v; rolling is not draining the aggregator map", ts.Epochs)
	}
	if len(ts.Windows) == 0 {
		t.Fatal("no retained windows in stats")
	}
	// Retained windows stay near the ladder's steady state (2 raw +
	// ~ceil(38/4) wide + slop), nowhere near one per epoch.
	if got := len(ts.Windows) + len(ts.Epochs); got > 16 {
		t.Fatalf("%d windows+epochs retained over %d epochs; folding is not bounding memory", got, epochs)
	}

	// Full-range windowed query == flat merge of everything acked.
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}
	got, spans := s.Window("acme", 0, epochs-1)
	if len(spans) == 0 {
		t.Fatal("full-range query matched no spans")
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("windowed query diverges from flat merge of the acked profiles")
	}

	// Aligned sub-queries are exact per epoch range too.
	for _, span := range [][2]uint64{{0, 3}, {4, 11}, {0, epochs - 1}} {
		var flat []*profstore.Profile
		for e := span[0]; e <= span[1]; e++ {
			flat = append(flat, sent[e]...)
		}
		got, _ := s.Window("acme", span[0], span[1])
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(flat...))) {
			t.Fatalf("Window(%d,%d) diverges from flat merge of those epochs", span[0], span[1])
		}
	}
}

// TestWindowedQueryStableAcrossFolds pins that a fold changes the
// store's granularity, never a query's bytes: the same aligned query
// answers identically before and after later epochs force old raw
// windows to fold coarser.
func TestWindowedQueryStableAcrossFolds(t *testing.T) {
	s := startServer(t, rollConfig())
	// 5 epochs: 0..3 are rolled but still raw (the fold horizon has
	// not passed them), 4 is live.
	sendEpochs(t, s, "acme", 5, 2, 2)
	before, beforeSpans := s.Window("acme", 0, 3)
	if len(beforeSpans) != 4 {
		t.Fatalf("spans before the fold = %v, want 4 raw epochs", beforeSpans)
	}

	// More epochs: the [0,3] range ages past the raw band and folds.
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "late-waves"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for e := uint64(5); e < 24; e++ {
		if err := c.Send(ctx, e, testProfile(rng, "gcc")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	after, afterSpans := s.Window("acme", 0, 3)
	if !bytes.Equal(saveBytes(t, before), saveBytes(t, after)) {
		t.Fatal("aligned query changed across a fold")
	}
	// The granularity did change: fewer, coarser spans.
	if len(afterSpans) >= len(beforeSpans) {
		t.Fatalf("expected coarser spans after fold: before %v after %v", beforeSpans, afterSpans)
	}
}

// TestLateArrivalToRolledEpoch pins that a profile for an epoch
// already folded out of the live map still lands exactly once and is
// visible to queries — the roll path cannot strand stragglers.
func TestLateArrivalToRolledEpoch(t *testing.T) {
	s := startServer(t, rollConfig())
	sent := sendEpochs(t, s, "acme", 20, 1, 4)
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}

	// Epoch 2 rolled long ago. Deliver one more profile to it.
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "straggler"})
	if err != nil {
		t.Fatal(err)
	}
	late := testProfile(rand.New(rand.NewSource(5)), "llvm")
	if err := c.Send(ctx, 2, late); err != nil {
		t.Fatalf("late send: %v", err)
	}
	c.Close()
	all = append(all, late)

	got, _ := s.Window("acme", 0, 19)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("late arrival lost or double-counted across the roll")
	}
}

// TestSeriesSnapshotCoversEverything pins SeriesSnapshot's contract:
// rolled windows plus live epochs, merged, equals the flat merge of
// all acked profiles; an unknown tenant yields an empty series.
func TestSeriesSnapshotCoversEverything(t *testing.T) {
	s := startServer(t, rollConfig())
	sent := sendEpochs(t, s, "acme", 12, 2, 6)
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}
	series := s.SeriesSnapshot("acme")
	if !bytes.Equal(saveBytes(t, series.Merged()), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("series snapshot diverges from flat merge")
	}
	if s.SeriesSnapshot("nobody").Len() != 0 {
		t.Error("unknown tenant's series not empty")
	}
}

// TestZeroRetentionRollsEpochsRaw pins the zero retention: epochs
// still roll into the series, but nothing folds, so each rolled epoch
// stays a raw [e, e] window and per-epoch Snapshot still answers for
// all of them.
func TestZeroRetentionRollsEpochsRaw(t *testing.T) {
	s := startServer(t, Config{})
	sent := sendEpochs(t, s, "acme", 10, 1, 7)
	ts := tenantStats(t, s, "acme")
	// Default lag 1: each ack follows its batch's roll, so once the
	// sends return only the newest epoch is live and 0..8 are raw
	// windows.
	if len(ts.Epochs) != 1 || ts.Epochs[0] != 9 {
		t.Fatalf("live epochs = %v, want [9]", ts.Epochs)
	}
	if len(ts.Windows) != 9 {
		t.Fatalf("windows = %v, want 9 raw epochs", ts.Windows)
	}
	for i, w := range ts.Windows {
		if w != (tsstore.Span{Start: uint64(i), End: uint64(i)}) {
			t.Fatalf("window %d = %v, want raw epoch %d", i, w, i)
		}
	}
	for e := uint64(0); e < 10; e++ {
		got := s.Snapshot("acme", e)
		if got == nil {
			t.Fatalf("no snapshot for epoch %d", e)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent[e]...))) {
			t.Fatalf("epoch %d snapshot diverges", e)
		}
	}
	// Window sees the raw windows as it saw the live epochs.
	got, spans := s.Window("acme", 3, 6)
	var flat []*profstore.Profile
	for e := uint64(3); e <= 6; e++ {
		flat = append(flat, sent[e]...)
	}
	if len(spans) != 4 {
		t.Fatalf("spans = %v", spans)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(flat...))) {
		t.Fatal("windowed query over raw windows diverges")
	}
}

// TestSnapshotOfRolledEpoch pins Snapshot's reach into the series: a
// rolled epoch that is still raw answers with the merge of every
// profile acked at it, a late arrival included; a folded epoch
// answers nil.
func TestSnapshotOfRolledEpoch(t *testing.T) {
	s := startServer(t, rollConfig())
	// 4 epochs: 0..2 rolled, still raw (the raw band keeps 2 epochs
	// behind the horizon and [0,3] has not aged past it); 3 is live.
	sent := sendEpochs(t, s, "acme", 4, 2, 8)
	check := func(e uint64) {
		t.Helper()
		got := s.Snapshot("acme", e)
		if got == nil {
			t.Fatalf("no snapshot for rolled epoch %d (windows %v)", e, tenantStats(t, s, "acme").Windows)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent[e]...))) {
			t.Fatalf("epoch %d snapshot diverges from the offline merge of its acked profiles", e)
		}
	}
	if ts := tenantStats(t, s, "acme"); len(ts.Windows) == 0 || ts.Windows[0] != (tsstore.Span{Start: 0, End: 0}) {
		t.Fatalf("epoch 0 is not a rolled raw window: windows %v, live %v", ts.Windows, ts.Epochs)
	}
	check(1)

	// A late profile for rolled epoch 1 merges into its raw window.
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "straggler"})
	if err != nil {
		t.Fatal(err)
	}
	late := testProfile(rand.New(rand.NewSource(9)), "llvm")
	if err := c.Send(ctx, 1, late); err != nil {
		t.Fatalf("late send: %v", err)
	}
	sent[1] = append(sent[1], late)
	check(1)

	// Later epochs age [0,3] past the raw band: it folds 4:1.
	rng := rand.New(rand.NewSource(10))
	for e := uint64(4); e < 12; e++ {
		if err := c.Send(ctx, e, testProfile(rng, "gcc")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if ts := tenantStats(t, s, "acme"); len(ts.Windows) == 0 || ts.Windows[0] != (tsstore.Span{Start: 0, End: 3}) {
		t.Fatalf("epochs 0-3 did not fold: windows %v", ts.Windows)
	}
	if got := s.Snapshot("acme", 1); got != nil {
		t.Fatal("Snapshot answered for an epoch folded into a wider window")
	}
}
