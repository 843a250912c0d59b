package fleetserver

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hbbp/internal/profstore"
)

// TestSeriesSnapshotCoversAckedBatches pins the read path's
// consistency now that live epochs are snapshotted outside the tenant
// lock: while a writer acks batches — advancing epochs so they roll
// and fold, with late arrivals into rolled epochs — every
// SeriesSnapshot and Window covers each profile acked before the read
// started, and never more than the writer had sent by the time it
// returned (its acked total plus the one batch in flight). A profile
// counted twice, or one lost between the clone and a roll, breaks one
// of the two bounds. Every profile carries one run, so a read's
// coverage is its merged run count.
func TestSeriesSnapshotCoversAckedBatches(t *testing.T) {
	s := startServer(t, rollConfig())
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "writer"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const batches, perBatch = 120, 4
	var sent, acked atomic.Uint64
	var all []*profstore.Profile
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(41))
		for b := 0; b < batches; b++ {
			epoch := uint64(b / 2)
			if b%5 == 4 && epoch >= 3 {
				epoch -= 3 // a late arrival into an already-rolled epoch
			}
			batch := make([]*profstore.Profile, perBatch)
			for i := range batch {
				batch[i] = testProfile(rng, "gcc")
			}
			all = append(all, batch...)
			sent.Add(perBatch)
			if err := c.SendBatch(ctx, epoch, batch); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			acked.Add(perBatch)
		}
	}()

	reads := 0
	check := func(what string, before, got uint64) {
		after := sent.Load()
		if got < before || got > after {
			t.Errorf("%s %d covers %d profiles; %d were acked before it and %d sent by its end",
				what, reads, got, before, after)
		}
		reads++
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		before := acked.Load()
		check("SeriesSnapshot", before, s.SeriesSnapshot("acme").Merged().TotalRuns())
		before = acked.Load()
		p, _ := s.Window("acme", 0, math.MaxUint64)
		check("Window", before, p.TotalRuns())
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reads < 10 {
		t.Logf("only %d reads overlapped the writer", reads)
	}
	got := s.SeriesSnapshot("acme").Merged()
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("after the writer finished, the series differs from the flat merge of the acked profiles")
	}
}
