package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"hbbp/internal/fleetserver"
	"hbbp/internal/profstore"
	"hbbp/internal/telemetry"
	"hbbp/internal/tsstore"
)

const (
	tenant          = "bench"
	batchSize       = 16
	batchesPerEpoch = 64 // an agent's epoch advances every this many batches, so epochs roll and fold
	preloadEpochs   = 256
	// writeRate is fleet-mixed's writer, in batches/s: about an eighth
	// of the 670-780 batches/s fleet-ingest sustains on the recording
	// machine (bench/baseline), so the series changes under the reader
	// without the writer taking a core.
	writeRate  = 100
	queryRate  = 100 // queries/s of a traced run's query leg
	trendEvery = 8   // every 8th query is a trend scan, the rest windowed merges
	// legQueries is the size of a traced run's query leg: enough for a
	// p95 with minBeyond samples past it.
	legQueries = 250
)

var errOverloaded = errors.New("server shed load (overload nack)")

// poolEntry is one payload agents send: a stored profile and its bytes.
type poolEntry struct {
	payload []byte
	prof    *profstore.Profile
}

// weightedPool turns captures into the payload pool, each weighted by a
// seeded k in 1..4 so that payloads stand for several machines' runs.
func weightedPool(captures [][]byte, seed int64) ([]poolEntry, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 1))
	pool := make([]poolEntry, len(captures))
	for i, c := range captures {
		p, err := profstore.LoadBytes(c)
		if err != nil {
			return nil, err
		}
		p = p.Weighted(1 + rng.Uint64N(4))
		data, err := profstore.AppendSave(nil, p)
		if err != nil {
			return nil, err
		}
		pool[i] = poolEntry{payload: data, prof: p}
	}
	return pool, nil
}

// fleet is an in-process ingest server with retention on, the agents
// writing to it, and the ledger of what they got acked: the input of the
// end-of-run correctness check.
type fleet struct {
	srv    *fleetserver.Server
	tel    *telemetry.Registry
	pool   []poolEntry
	agents []*agent

	mu       sync.Mutex
	acked    []uint64 // acked profiles per pool entry
	maxEpoch uint64
}

// agent is one connection sending batches drawn from the pool.
type agent struct {
	c     *fleetserver.Client
	rng   *rand.Rand
	sent  uint64 // batches sent
	items []fleetserver.BatchItem
	idx   []int
}

// startFleet serves on a loopback port with the default retention ladder
// and dials n agents.
func startFleet(pool []poolEntry, agents int, seed int64) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry()
	f := &fleet{
		srv:   fleetserver.Serve(ln, fleetserver.Config{Retention: tsstore.DefaultRetention(), Telemetry: tel}),
		tel:   tel,
		pool:  pool,
		acked: make([]uint64, len(pool)),
	}
	for i := 0; i < agents; i++ {
		c, err := fleetserver.Dial(context.Background(), f.srv.Addr().String(), fleetserver.ClientConfig{
			Tenant: tenant, Agent: fmt.Sprintf("agent-%d", i), MaxAttempts: 3, Telemetry: tel,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.agents = append(f.agents, &agent{
			c:     c,
			rng:   rand.New(rand.NewPCG(uint64(seed), uint64(i)+10)),
			items: make([]fleetserver.BatchItem, batchSize),
			idx:   make([]int, batchSize),
		})
	}
	return f, nil
}

func (f *fleet) close() {
	for _, a := range f.agents {
		a.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A drain that times out force-closes the connections; the run's
	// results are already taken, so there is nothing to report.
	_ = f.srv.Shutdown(ctx)
}

// send delivers one batch of pool entries for epoch. It fails on a send
// error or on any overload nack, even one a retry recovered from.
func (f *fleet) send(a *agent, epoch uint64, tr *tracer) error {
	for i := range a.items {
		k := a.rng.IntN(len(f.pool))
		a.idx[i] = k
		a.items[i] = fleetserver.BatchItem{Epoch: epoch, Payload: f.pool[k].payload}
	}
	nacks := a.c.Stats().OverloadNacks
	sp := tr.begin("fleetwire.send_batch", 0, tr.newOp())
	err := a.c.SendBatchBytes(context.Background(), a.items)
	tr.end(sp, batchSize)
	a.sent++
	if err != nil {
		return err
	}
	f.mu.Lock()
	for _, k := range a.idx {
		f.acked[k]++
	}
	f.maxEpoch = max(f.maxEpoch, epoch)
	f.mu.Unlock()
	if a.c.Stats().OverloadNacks > nacks {
		return errOverloaded
	}
	return nil
}

// preload sends one batch for each of the first preloadEpochs epochs.
func (f *fleet) preload(a *agent, tr *tracer) error {
	for e := uint64(0); e < preloadEpochs; e++ {
		if err := f.send(a, e, tr); err != nil {
			return fmt.Errorf("preload epoch %d: %w", e, err)
		}
	}
	return nil
}

func (f *fleet) topEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxEpoch
}

// query issues query number n: a trend scan for every trendEvery'th, a
// windowed merge over a seeded epoch range otherwise. An untraced window
// query calls Server.Window itself; a traced one makes the same two
// calls Server.Window makes, so the snapshot and the merge get a span
// each. A trend over a history still too short to have one is an answer,
// not a failure.
func (f *fleet) query(n int, rng *rand.Rand, tr *tracer) error {
	trend := n%trendEvery == trendEvery-1
	hi := f.topEpoch()
	a := rng.Uint64N(hi + 1)
	b := a + rng.Uint64N(hi-a+1)
	if tr == nil && !trend {
		f.srv.Window(tenant, a, b)
		return nil
	}
	id := tr.newOp()
	root := tr.begin("fleet.query", 0, id)
	defer tr.end(root, 1)
	sp := tr.begin("fleetserver.series_snapshot", root, id)
	s := f.srv.SeriesSnapshot(tenant)
	tr.end(sp, int64(s.Len()))
	if trend {
		sp = tr.begin("tsstore.trend", root, id)
		_, err := s.Trend(tsstore.TrendOptions{})
		tr.end(sp, 1)
		if errors.Is(err, tsstore.ErrNotEnoughWindows) {
			return nil
		}
		return err
	}
	sp = tr.begin("tsstore.window", root, id)
	s.Window(a, b)
	tr.end(sp, 1)
	return nil
}

// expected is the offline merge of exactly the acked profiles: each pool
// entry weighted by how many times it was acked.
func (f *fleet) expected() *profstore.Profile {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ps []*profstore.Profile
	for i, n := range f.acked {
		if n > 0 {
			ps = append(ps, f.pool[i].prof.Weighted(n))
		}
	}
	return profstore.Merge(ps...)
}

// verify checks the fleet's keystone invariant: the server's window over
// every epoch serializes byte-identical to the offline merge of exactly
// the acked profiles.
func (f *fleet) verify(want *profstore.Profile) error {
	got, _ := f.srv.Window(tenant, 0, f.topEpoch())
	gb, err := profstore.AppendSave(nil, got)
	if err != nil {
		return err
	}
	wb, err := profstore.AppendSave(nil, want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("server window over all epochs (%d bytes) differs from the offline merge of the acked profiles (%d bytes)",
			len(gb), len(wb))
	}
	return nil
}

// replay runs the server's per-profile and per-epoch stages offline, one
// span per stage call: decode, ingest into the epoch's aggregator, then
// per epoch the snapshot, the append to a series and the retention fold.
// The stream has the preload's shape, preloadEpochs epochs of one batch
// each drawn from the pool, whatever the run's own traffic was, so it
// spans enough epochs for the default retention to fold. A replay that
// folds nothing would report no fold cost, and fails.
func (f *fleet) replay(seed int64, tr *tracer) error {
	rng := rand.New(rand.NewPCG(uint64(seed), 3))
	var s tsstore.Series
	folds := 0
	for e := uint64(0); e < preloadEpochs; e++ {
		agg := profstore.NewAggregator()
		for i := 0; i < batchSize; i++ {
			id := tr.newOp()
			sp := tr.begin("profstore.decode", 0, id)
			in, err := profstore.LoadInterned(f.pool[rng.IntN(len(f.pool))].payload)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			sp = tr.begin("profstore.ingest", 0, id)
			agg.IngestInterned(in)
			tr.end(sp, 1)
		}
		id := tr.newOp()
		sp := tr.begin("profstore.snapshot", 0, id)
		p := agg.Snapshot()
		tr.end(sp, 1)
		sp = tr.begin("tsstore.append", 0, id)
		s.AppendEpoch(e, p)
		tr.end(sp, 1)
		sp = tr.begin("tsstore.downsample", 0, id)
		folds += s.Downsample(tsstore.DefaultRetention(), e)
		tr.end(sp, 1)
	}
	if folds == 0 {
		return fmt.Errorf("the replay of %d epochs folded no window", preloadEpochs)
	}
	return nil
}

// windows is how many windows the tenant's series holds now.
func (f *fleet) windows() int { return f.srv.SeriesSnapshot(tenant).Len() }

// shed is how many profiles the server refused under load.
func (f *fleet) shed() uint64 {
	var n uint64
	for _, t := range f.srv.Stats().Tenants {
		n += t.Shed
	}
	return n
}
