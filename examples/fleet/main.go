// Fleet ingest under fire, now with a time axis: thousands of agents
// deliver stored profiles over the wire protocol, through deliberately
// faulty connections, into one hbbpd-style ingest server — across
// several epochs, with server-side retention folding completed epochs
// into a bounded profile series — and the result is proven
// bit-identical to an offline merge of exactly the profiles the agents
// were told were accepted.
//
// The paper's pitch is profiling cheap enough to leave on everywhere;
// the fleet that results delivers its profiles over real networks,
// which chunk writes, flip bits, reset connections and stall — and it
// runs for a long time, so its history has to be retained without
// unbounded memory. This example plays that fleet in miniature: real
// profiling runs of the vectorization case study (x87 → SSE → AVX)
// seed per-epoch payload pools whose vector share rises epoch over
// epoch, then -agents simulated agents, split into one wave per epoch
// (at most -concurrency in flight), each dial the in-process ingest
// server through a fault-injecting transport and push profiles with
// the retrying client. As each wave starts, the server rolls the
// finished epoch out of its live aggregator into a downsampled
// series, so memory stays bounded while the full history remains
// queryable — and a trend scan over the retained windows flags the
// fleet's drift toward vector code.
//
// The closing cross-check is the fleet tier's keystone invariant,
// extended along the time axis: every retained window, and the series
// as a whole, merges bit-identical to hbbp.MergeProfiles over exactly
// the confirmed sends for those epochs — folds and all.
//
// Run with:
//
//	go run ./examples/fleet [-agents N] [-concurrency N] [-per N] [-epochs N] [-seed N]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"hbbp"
)

func main() {
	agents := flag.Int("agents", 2000, "total simulated agents, split evenly across epochs")
	concurrency := flag.Int("concurrency", 200, "agents in flight at once")
	per := flag.Int("per", 2, "profiles each agent delivers")
	epochs := flag.Int("epochs", 6, "epochs to spread the agent waves across (min 3)")
	seed := flag.Int64("seed", 1, "random seed (payloads and faults)")
	flag.Parse()
	if *epochs < 3 {
		log.Fatal("-epochs must be at least 3 (the trend scan needs three windows)")
	}
	ctx := context.Background()

	// Seed the payload pools with real profiling runs: the fitter case
	// study's three vectorization tiers, scaled down so the example
	// stays quick. Epoch e draws from a pool weighted (epochs-1-e) x87
	// : 1 SSE : e AVX, so the fleet's vector-op share rises
	// monotonically across epochs — exactly the drift the trend scan
	// exists to catch.
	s, err := hbbp.New(hbbp.WithSeed(*seed), hbbp.WithWorkloadScale(0.1))
	if err != nil {
		log.Fatal(err)
	}
	var tiers []*hbbp.StoredProfile
	for _, name := range []string{"fitter-x87", "fitter-sse", "fitter-avx"} {
		w, err := hbbp.LookupWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := s.Profile(ctx, w)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		sp, err := hbbp.CaptureProfile(prof, name)
		if err != nil {
			log.Fatal(err)
		}
		tiers = append(tiers, sp)
	}
	pools := make([][]*hbbp.StoredProfile, *epochs)
	for e := 0; e < *epochs; e++ {
		for i := 0; i < *epochs-1-e; i++ {
			pools[e] = append(pools[e], tiers[0]) // x87
		}
		pools[e] = append(pools[e], tiers[1]) // SSE
		for i := 0; i < e; i++ {
			pools[e] = append(pools[e], tiers[2]) // AVX
		}
	}
	fmt.Printf("payload pools: %d real runs blended across %d epochs (x87 fading, AVX rising)\n",
		len(tiers), *epochs)

	// The ingest server, as hbbpd would run it with -retain: completed
	// epochs roll into a series keeping the last two epochs raw and
	// everything older at two epochs per window.
	retention := hbbp.RetentionPolicy{Levels: []hbbp.RetentionLevel{
		{Width: 1, Keep: 2},
		{Width: 2, Keep: 0},
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Joining the process-wide telemetry registry puts the server's
	// ledgers, the clients' retry counters and the package-level merge
	// and series instrumentation into one final snapshot.
	server := hbbp.Serve(ln, hbbp.FleetServerConfig{
		Queue: 256, Retention: retention, Telemetry: hbbp.DefaultTelemetry(),
	})
	addr := server.Addr().String()
	fmt.Printf("ingest server on %s (retention %s)\n", addr, retention)

	// Every agent dials through a fault-injecting transport: writes
	// are chunked small, occasionally bit-flipped (the frame CRC must
	// catch every flip) and occasionally reset mid-exchange (the
	// retrying client must recover without double-merging).
	newDialer := func(agentSeed int64) func(ctx context.Context, addr string) (net.Conn, error) {
		d := &net.Dialer{Timeout: 10 * time.Second}
		var mu sync.Mutex
		var n int64
		return func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			n++
			connSeed := agentSeed*1000003 + n
			mu.Unlock()
			return hbbp.NewFlakyConn(c, hbbp.Faults{
				Seed:          connSeed,
				MaxWriteChunk: 16,
				CorruptProb:   0.002,
				ResetProb:     0.005,
			}), nil
		}
	}

	// One wave of agents per epoch: -agents total identities split
	// across -epochs waves, at most -concurrency connected at once.
	// Each wave finishes before the next begins, so the server sees
	// epochs complete in order and rolls them online — thousands of
	// agents, bounded sockets, bounded aggregator memory.
	var (
		mu        sync.Mutex
		confirmed = make([][]*hbbp.StoredProfile, *epochs)
		totals    hbbp.FleetClientStats
		failures  int
	)
	sem := make(chan struct{}, *concurrency)
	start := time.Now()
	for e := 0; e < *epochs; e++ {
		epoch := uint64(e)
		pool := pools[e]
		lo, hi := e**agents / *epochs, (e+1)**agents / *epochs
		var wg sync.WaitGroup
		for a := lo; a < hi; a++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(a int) {
				defer wg.Done()
				defer func() { <-sem }()
				actx, cancel := context.WithTimeout(ctx, 60*time.Second)
				defer cancel()
				c, err := hbbp.Dial(actx, addr, hbbp.FleetClientConfig{
					Tenant:      "fleet",
					Agent:       fmt.Sprintf("host-%04d", a),
					Dialer:      newDialer(*seed*7919 + int64(a)),
					BackoffBase: 2 * time.Millisecond,
					BackoffMax:  100 * time.Millisecond,
					Seed:        int64(a + 1),
				})
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					return
				}
				defer c.Close()
				// One batched round trip delivers the agent's whole
				// epoch: same exactly-once ledger, 1/per the frames.
				mine := make([]*hbbp.StoredProfile, 0, *per)
				for i := 0; i < *per; i++ {
					mine = append(mine, pool[(a+i)%len(pool)])
				}
				if err := c.SendBatch(actx, epoch, mine); err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					mine = nil
				}
				st := c.Stats()
				mu.Lock()
				confirmed[epoch] = append(confirmed[epoch], mine...)
				totals.Dials += st.Dials
				totals.Sent += st.Sent
				totals.Acked += st.Acked
				totals.DuplicateAcks += st.DuplicateAcks
				totals.ResumeSkipped += st.ResumeSkipped
				totals.OverloadNacks += st.OverloadNacks
				totals.ConnErrors += st.ConnErrors
				totals.Retries += st.Retries
				mu.Unlock()
			}(a)
		}
		wg.Wait()
		fmt.Printf("epoch %d: %d agents delivered %d profiles\n",
			epoch, hi-lo, len(confirmed[epoch]))
	}
	elapsed := time.Since(start)

	if failures > 0 {
		log.Fatalf("%d agents failed to deliver despite retries", failures)
	}
	delivered := 0
	for _, c := range confirmed {
		delivered += len(c)
	}
	fmt.Printf("%d agents delivered %d profiles over %d epochs in %s\n",
		*agents, delivered, *epochs, elapsed.Round(time.Millisecond))
	fmt.Printf("client totals: dials=%d sent=%d acked=%d duplicate-acks=%d resume-skips=%d conn-errors=%d retries=%d\n",
		totals.Dials, totals.Sent, totals.Acked, totals.DuplicateAcks,
		totals.ResumeSkipped, totals.ConnErrors, totals.Retries)

	// Drain and read the server's ledger: merges must equal confirmed
	// sends, and every injected fault must be visible as a counted
	// duplicate, corrupt frame or failed handshake — accounted, never
	// hidden. With retention on, the ledger also shows the time axis:
	// one live epoch, history in retained windows.
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := server.Shutdown(sctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	stats := server.Stats()
	for _, ts := range stats.Tenants {
		fmt.Printf("server ledger %s: merged=%d duplicates=%d shed=%d rejected=%d corrupt=%d live-epochs=%d windows=%d\n",
			ts.Tenant, ts.Merged, ts.Duplicates, ts.Shed, ts.Rejected, ts.Corrupt,
			len(ts.Epochs), len(ts.Windows))
	}
	fmt.Printf("server conns: accepted=%d handshake-failures=%d\n",
		stats.Accepted, stats.HandshakeFailures)

	// The tenant's full time axis: retained (possibly folded) windows
	// plus the still-live frontier epoch, each a real merged profile.
	series := server.SeriesSnapshot("fleet")
	if series.Len() == 0 {
		log.Fatal("no series state for tenant fleet")
	}
	fmt.Println("\nper-window fleet summary:")
	for i := 0; i < series.Len(); i++ {
		p, span := series.At(i)
		fmt.Printf("  window %-5s %d runs, %d retired instructions\n",
			span, p.TotalRuns(), p.TotalMass())
	}

	// The trend scan over the newest three windows: the x87→AVX blend
	// shift must surface as monotonic vector-op risers and x87 fallers.
	rep, err := series.Trend(hbbp.TrendOptions{})
	if err != nil {
		log.Fatalf("trend: %v", err)
	}
	fmt.Println()
	fmt.Print(rep.Render(5))

	live := series.Merged()
	fmt.Printf("\nfleet aggregate: %d runs, %d distinct blocks, %d retired instructions\n",
		live.TotalRuns(), len(live.Blocks), live.TotalMass())
	tab := hbbp.StoredPivot(live)
	fmt.Println("fleet-wide instruction mix (top 5):")
	fmt.Print(hbbp.Render([]string{"MNEMONIC"}, hbbp.TopMnemonics(tab, 5)))
	fmt.Println()

	// The keystone invariant, verified the strong way and per window:
	// serialized bytes of each retained window against the offline
	// merge of exactly the confirmed profiles for its epochs, then the
	// whole series against the flat merge of everything confirmed.
	for i := 0; i < series.Len(); i++ {
		p, span := series.At(i)
		var window []*hbbp.StoredProfile
		for e := span.Start; e <= span.End; e++ {
			window = append(window, confirmed[e]...)
		}
		if !sameProfileBytes(p, hbbp.MergeProfiles(window...)) {
			log.Fatalf("window %s diverges from the offline merge of its epochs", span)
		}
	}
	var all []*hbbp.StoredProfile
	for _, c := range confirmed {
		all = append(all, c...)
	}
	match := sameProfileBytes(live, hbbp.MergeProfiles(all...))
	fmt.Printf("offline re-merge matches series aggregate (all %d windows checked): %v\n",
		series.Len(), match)
	if !match {
		log.Fatal("drop-accounting invariant violated")
	}

	// Everything the run did, as the telemetry layer saw it: ingest
	// outcomes per tenant, frame latencies, client retries, merge
	// kernel paths and series queries — one registry, stable order.
	fmt.Printf("\ntelemetry snapshot:\n%s", hbbp.RenderTelemetry(hbbp.TelemetrySnapshot()))
}

// sameProfileBytes compares two profiles the strong way: by their
// serialized bytes, the same form every cross-check in this repo pins.
func sameProfileBytes(a, b *hbbp.StoredProfile) bool {
	var ab, bb bytes.Buffer
	if err := hbbp.SaveProfile(&ab, a); err != nil {
		log.Fatal(err)
	}
	if err := hbbp.SaveProfile(&bb, b); err != nil {
		log.Fatal(err)
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
