package fleetserver

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
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

// epochProfile draws one profile for epoch e over a small key space,
// so most keys recur in every window and the tenant's series indexes
// them, and names its workload after the epoch: an answer's run count
// for that name is how many of the epoch's profiles it holds.
func epochProfile(rng *rand.Rand, e uint64) *profstore.Profile {
	p := &profstore.Profile{Workloads: []profstore.WorkloadWeight{{Name: fmt.Sprintf("e%04d", e), Runs: 1}}}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		p.Blocks = append(p.Blocks, profstore.Block{
			Unit: "gcc", Module: "a.out",
			Function: []string{"main", "step"}[rng.Intn(2)],
			Addr:     uint64(rng.Intn(8)) * 16,
			Len:      uint32(1 + rng.Intn(2)),
			Count:    uint64(1 + rng.Intn(100000)),
		})
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		p.Ops = append(p.Ops, profstore.OpMass{
			Mnemonic: []string{"add", "mov", "vaddps", "div", "call"}[rng.Intn(5)],
			Ring:     uint8(rng.Intn(2)),
			Mass:     uint64(1 + rng.Intn(1000000)),
		})
	}
	return profstore.Canonical(p)
}

// TestIndexedQueriesMatchAckedMerge runs two readers beside a writer
// that rolls epochs, folds them and sends late arrivals, and checks
// every answer exactly: it must equal the offline merge of the acked
// profiles it covers. One connection merges its batches in order, so
// what a read holds of each epoch is a prefix of the profiles sent to
// it; the epoch-named workloads say how long each prefix is, and the
// answer must serialize byte-identical to the merge of exactly those
// prefixes over its spans, each at least what was acked before the
// read and at most what was sent by its end. Reads go through
// Server.Window and through SeriesSnapshot, so they index the tenant's
// series under its lock while the writer's rolls change it, and query
// clones that share its columns.
func TestIndexedQueriesMatchAckedMerge(t *testing.T) {
	s := startServer(t, rollConfig())
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "writer"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var mu sync.Mutex
	sent := map[uint64][]*profstore.Profile{}
	acked := map[uint64]int{}
	var top atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(43))
		for b := 0; b < 150; b++ {
			epoch := uint64(b / 3)
			if b%4 == 3 && epoch >= 2 {
				epoch -= 1 + uint64(rng.Intn(int(min(epoch, 8)))) // a late arrival
			}
			batch := make([]*profstore.Profile, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = epochProfile(rng, epoch)
			}
			mu.Lock()
			sent[epoch] = append(sent[epoch], batch...)
			mu.Unlock()
			top.Store(max(top.Load(), epoch))
			if err := c.SendBatch(ctx, epoch, batch); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			mu.Lock()
			acked[epoch] += len(batch)
			mu.Unlock()
		}
	}()

	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				hi := top.Load() + 1
				a := uint64(rng.Int63n(int64(hi + 1)))
				b := a + uint64(rng.Int63n(int64(hi-a+1)))
				mu.Lock()
				before := maps.Clone(acked)
				mu.Unlock()
				var got *profstore.Profile
				var spans []tsstore.Span
				if n%2 == 0 {
					got, spans = s.Window("acme", a, b)
				} else {
					got, spans = s.SeriesSnapshot("acme").Window(a, b)
				}
				held := map[uint64]int{}
				for _, w := range got.Workloads {
					var e uint64
					if _, err := fmt.Sscanf(w.Name, "e%d", &e); err != nil {
						t.Errorf("workload %q: %v", w.Name, err)
						return
					}
					held[e] = int(w.Runs)
				}
				var want []*profstore.Profile
				mu.Lock()
				for _, sp := range spans {
					for e := sp.Start; e <= sp.End; e++ {
						if held[e] < before[e] || held[e] > len(sent[e]) {
							t.Errorf("Window(%d, %d) holds %d profiles of epoch %d; %d were acked before it and %d sent",
								a, b, held[e], e, before[e], len(sent[e]))
						}
						want = append(want, sent[e][:min(held[e], len(sent[e]))]...)
					}
				}
				mu.Unlock()
				if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(want...))) {
					t.Errorf("Window(%d, %d) over spans %v differs from the offline merge of the acked profiles it covers", a, b, spans)
				}
				if t.Failed() {
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if n := reads.Load(); n < 10 {
		t.Logf("only %d reads overlapped the writer", n)
	}
	var all []*profstore.Profile
	for _, ps := range sent {
		all = append(all, ps...)
	}
	got, _ := s.Window("acme", 0, math.MaxUint64)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("after the writer finished, the tenant's window differs from the flat merge of the acked profiles")
	}
}

// TestLeadingAndLaggingAgentsWithReader runs the fleet-ingest shape
// beside a reader: one agent sends on the tenant's newest epoch, a
// second about 13 epochs behind it, so every batch of the second is a
// late arrival into an epoch already rolled (and, with the roll
// config's tiny bands, often folded). While both write, the reader
// calls Window and SeriesSnapshot: each read must cover every profile
// acked before it started, and no more than both agents had sent by
// the time it returned. Every profile carries one run, so a read's
// coverage is its merged run count. Afterwards the tenant's window
// must equal the offline merge of the acked profiles.
func TestLeadingAndLaggingAgentsWithReader(t *testing.T) {
	s := startServer(t, rollConfig())
	ctx := context.Background()
	const batches, perBatch, lag = 80, 4, 13

	var sent, acked atomic.Uint64
	var mu sync.Mutex
	var all []*profstore.Profile
	var clients []*Client
	for _, name := range []string{"lead", "lag"} {
		c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: name})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	var writers sync.WaitGroup
	for w, c := range clients {
		writers.Add(1)
		go func(w int, c *Client) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(70 + w)))
			for b := 0; b < batches; b++ {
				epoch := uint64(b / 4)
				if w == 0 {
					epoch += lag
				}
				batch := make([]*profstore.Profile, perBatch)
				for i := range batch {
					batch[i] = testProfile(rng, "gcc")
				}
				mu.Lock()
				all = append(all, batch...)
				mu.Unlock()
				sent.Add(perBatch)
				if err := c.SendBatch(ctx, epoch, batch); err != nil {
					t.Errorf("agent %d batch %d: %v", w, b, err)
					return
				}
				acked.Add(perBatch)
			}
		}(w, c)
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
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
		p, _ := s.Window("acme", 0, math.MaxUint64)
		check("Window", before, p.TotalRuns())
		before = acked.Load()
		check("SeriesSnapshot", before, s.SeriesSnapshot("acme").Merged().TotalRuns())
	}
	if t.Failed() {
		return
	}
	if reads < 10 {
		t.Logf("only %d reads overlapped the writers", reads)
	}
	got, _ := s.Window("acme", 0, math.MaxUint64)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(all...))) {
		t.Fatal("after the writers finished, the tenant's window differs from the flat merge of the acked profiles")
	}
}
