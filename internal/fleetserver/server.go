// Package fleetserver is the fault-tolerant fleet ingest tier: a
// server that accepts stored profiles over the fleetwire protocol and
// merges them per tenant, and a retrying client agents use to deliver
// profiles across flaky networks. Each tenant has one lock and one time
// axis: the newest epoch merged is live in one aggregator, every older
// epoch rolls into the tenant's tsstore.Series, and every read
// (Snapshot, Window, SeriesSnapshot) sees that series plus the live
// epoch when it asks for it (series.go).
//
// The design contract mirrors the collector's LOST records
// (internal/collector/sink.go): the tier degrades by shedding load
// with exact drop accounting, never by corrupting or silently losing
// merged state. Concretely:
//
//   - A profile is merged if and only if its sender was told so (a
//     merged or duplicate verdict in the batch ack). Refusals are
//     explicit nacked verdicts, each counted in the owning tenant's
//     drop counters — the ingest-tier analogue of LostEBS/LostLBR.
//   - Overload is bounded and explicit. A batch merges on the
//     connection that read it, once it holds one of a bounded number
//     of admission slots; when every slot is taken the connection
//     exerts backpressure up to a deadline, then the batch is shed
//     with NackOverloaded and counted. Merge work stays bounded no
//     matter how many agents push.
//   - Duplicates merge exactly once. Each agent numbers its profiles;
//     the server remembers the last merged sequence per agent and
//     answers re-sends (acks lost to resets) with a duplicate verdict
//     instead of a second merge, so a retrying client achieves
//     exactly-once aggregation.
//   - Shutdown drains. Profiles already admitted are merged and acked
//     before their connections close; everything after the drain
//     point is refused with NackShuttingDown.
//
// The chaos suite (chaos_test.go) drives all of this through injected
// partial writes, resets, stalls and corruption, and asserts the
// keystone invariant: the post-chaos snapshot is bit-identical to an
// offline profstore.Merge of exactly the acked profiles.
package fleetserver

import (
	"context"
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
	"hbbp/internal/telemetry"
	"hbbp/internal/tsstore"
)

// Typed sentinels for ingest outcomes, following the façade's
// errors.Is classification pattern.
var (
	// ErrOverloaded reports a profile the server shed under load (a
	// NackOverloaded that exhausted the client's retry budget). The
	// shed is counted in the tenant's drop counters server-side.
	ErrOverloaded = errors.New("fleetserver: server overloaded, profile shed")
	// ErrRejected reports a profile the server refused as unloadable
	// (NackBadProfile). Not retryable: the same bytes cannot succeed.
	ErrRejected = errors.New("fleetserver: profile rejected by server")
	// ErrClientClosed reports a Send on a closed client.
	ErrClientClosed = errors.New("fleetserver: client is closed")
)

// Config parameterizes a Server. The zero value is usable: every
// field has a production-shaped default.
type Config struct {
	// Queue bounds the batches admitted at once: each merges on the
	// connection goroutine that read it, and at most Queue merge
	// concurrently; defaults to 64. It bounds merge work, not memory:
	// every connection holds its own frame (up to MaxFrame) while it
	// merges, waits or is refused, so memory scales with connections
	// times MaxFrame.
	Queue int
	// MaxFrame bounds a wire frame's payload in both directions, and
	// the Welcome announces it to every agent, which splits its batches
	// to fit; defaults to fleetwire.DefaultMaxFrame.
	MaxFrame int
	// EnqueueWait is how long a connection exerts backpressure when
	// every admission slot is taken before shedding the batch with
	// NackOverloaded; defaults to 50ms. Zero keeps the default;
	// negative sheds immediately.
	EnqueueWait time.Duration
	// ReadTimeout bounds each frame read — the slow-loris defense and
	// the idle-connection reaper; defaults to 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write; defaults to 10s.
	WriteTimeout time.Duration
	// Logf, when set, receives one line per notable server event
	// (accept errors, handshake failures). Nil silences them.
	Logf func(format string, args ...any)

	// Telemetry is the metrics registry the server instruments itself
	// into: per-tenant ingest ledgers, frame latency histograms,
	// admission and connection gauges, and the slow-op log. Nil gets a
	// fresh private registry, so side-by-side servers (tests, embedders)
	// never share series; a daemon that serves /metrics passes the
	// process-wide registry instead.
	Telemetry *telemetry.Registry

	// Retention is the downsampling ladder for each tenant's series:
	// every epoch older than the tenant's newest rolls into its
	// tsstore.Series, and this ladder folds old windows coarser, so a
	// long-lived daemon's memory is bounded by the ladder's window
	// count instead of growing with every epoch ever seen. The zero
	// value folds nothing: every rolled epoch stays a raw [e, e] window.
	Retention tsstore.Retention

	// testIngestDelay slows every entry's decode, while its batch holds
	// an admission slot — the chaos suite's lever for forcing
	// deterministic overload without a real slow disk.
	testIngestDelay time.Duration
}

// withDefaults resolves the zero value to production defaults.
func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = fleetwire.DefaultMaxFrame
	}
	if c.EnqueueWait == 0 {
		c.EnqueueWait = 50 * time.Millisecond
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// tenant is one tenant's merged state and drop accounting.
type tenant struct {
	name string

	// mu guards the tenant's whole merged state: the agent ledger, the
	// live aggregator and the series. A batch's dedup checks, merges,
	// ledger commits and rolls all happen under one hold of it, so they
	// have one order per tenant, and every ack follows its batch's
	// commit.
	mu sync.Mutex
	// agents is the exactly-once ledger: each agent's highest merged
	// sequence number.
	agents map[string]uint64
	// live aggregates the newest epoch merged, liveEpoch; nil until the
	// tenant's first merge. Every older epoch is in series, downsampled
	// by the configured retention.
	live      *profstore.Aggregator
	liveEpoch uint64
	series    tsstore.Series

	// The ledger counters live in the server's telemetry registry
	// (handles resolved once in tenantFor), so Stats() and /metrics
	// read the same storage — one source of truth for the accounting
	// the chaos suite audits.
	merged     *telemetry.Counter // profiles merged (first time)
	duplicates *telemetry.Counter // re-sends answered without a second merge
	shed       *telemetry.Counter // profiles nacked NackOverloaded
	rejected   *telemetry.Counter // profiles nacked NackBadProfile
	corrupt    *telemetry.Counter // frames lost to CRC/truncation/protocol errors
	batches    *telemetry.Counter // batch frames answered with per-entry verdicts
}

// Server ingests profiles over fleetwire connections. Construct with
// [Serve]; the zero value is not usable.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[*fleetwire.Conn]struct{}

	// slots is the admission semaphore: a connection holds one slot
	// while it merges a batch, so at most cap(slots) merge at once.
	slots    chan struct{}
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	closing  chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Telemetry handles, resolved once in Serve so the per-frame path
	// pays only atomic updates.
	accepted        *telemetry.Counter
	handshakeFailed *telemetry.Counter
	batchLat        *telemetry.Histogram // FrameProfileBatch read-to-reply
	batchEntries    *telemetry.Histogram // entries per batch frame
	slow            *telemetry.SlowLog
}

// Serve starts ingesting on ln and returns immediately; the server
// owns the listener and closes it on shutdown.
func Serve(ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		tenants: make(map[string]*tenant),
		conns:   make(map[*fleetwire.Conn]struct{}),
		slots:   make(chan struct{}, cfg.Queue),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	tel := cfg.Telemetry
	s.accepted = tel.Counter("hbbp_fleetserver_connections_total",
		"Connections admitted since start.")
	s.handshakeFailed = tel.Counter("hbbp_fleetserver_handshake_failures_total",
		"Connections that never completed a valid hello.")
	s.batchLat = tel.Histogram("hbbp_fleetserver_ingest_seconds",
		"Frame read-to-reply latency by frame type.",
		telemetry.NanosToSeconds, telemetry.DurationBuckets(), "frame", "batch")
	s.batchEntries = tel.Histogram("hbbp_fleetserver_batch_entries",
		"Entries per batch frame.", 1, telemetry.CountBuckets())
	s.slow = tel.Slow()
	tel.GaugeFunc("hbbp_fleetserver_queue_depth",
		"Batches admitted and merging.", func() float64 { return float64(len(s.slots)) })
	tel.GaugeFunc("hbbp_fleetserver_queue_capacity",
		"Admission bound (Config.Queue).", func() float64 { return float64(cap(s.slots)) })
	tel.GaugeFunc("hbbp_fleetserver_active_connections",
		"Currently live connections.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// isClosing reports whether shutdown has begun.
func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// tenantFor returns (creating if needed) one tenant's state.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		tel := s.cfg.Telemetry
		outcome := func(o string) *telemetry.Counter {
			return tel.Counter("hbbp_fleetserver_profiles_total",
				"Profiles by ingest outcome.", "tenant", name, "outcome", o)
		}
		t = &tenant{
			name:       name,
			agents:     make(map[string]uint64),
			merged:     outcome("merged"),
			duplicates: outcome("duplicate"),
			shed:       outcome("shed"),
			rejected:   outcome("rejected"),
			corrupt: tel.Counter("hbbp_fleetserver_corrupt_frames_total",
				"Frames lost to CRC, truncation or protocol errors.", "tenant", name),
			batches: tel.Counter("hbbp_fleetserver_batches_total",
				"Batch frames answered with per-entry verdicts.", "tenant", name),
		}
		s.tenants[name] = t
	}
	return t
}

// trackConn registers or unregisters a live connection.
func (s *Server) trackConn(c *fleetwire.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if !s.isClosing() {
				s.logf("fleetserver: accept: %v", err)
			}
			return
		}
		s.accepted.Add(1)
		s.connWG.Add(1)
		go s.handle(c)
	}
}

// handle speaks the protocol on one connection. Every exit path
// closes the conn; every data-loss path increments a counter first —
// nothing is dropped silently.
func (s *Server) handle(conn net.Conn) {
	defer s.connWG.Done()
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{
		MaxFrame:     s.cfg.MaxFrame,
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
	})
	s.trackConn(wc, true)
	defer s.trackConn(wc, false)
	defer wc.Close()

	tn, agent, ok := s.handshake(wc)
	if !ok {
		s.handshakeFailed.Add(1)
		return
	}

	// The protocol is strictly one in-flight exchange per connection,
	// so one ack buffer serves the connection's whole life.
	var ackBuf []byte

	for {
		if s.isClosing() {
			return
		}
		typ, payload, err := wc.ReadFrame()
		if err != nil {
			// Clean closes, idle/stall timeouts and abrupt disconnects
			// are connection lifecycle; data-shaped failures are the
			// tenant's corruption ledger.
			if err != io.EOF && !fleetwire.IsTimeout(err) && isDataError(err) {
				tn.corrupt.Add(1)
			}
			return
		}
		if typ != fleetwire.FrameProfileBatch {
			tn.corrupt.Add(1)
			return
		}
		// The latency clock starts after the frame is in hand — it
		// measures the server's parse/admit/merge/reply work, not how
		// long the agent took to send the next frame.
		t0 := time.Now()
		verdicts, keep := s.handleBatch(tn, agent, payload)
		if verdicts != nil {
			ackBuf = fleetwire.AppendAckBatch(ackBuf[:0], verdicts)
			if len(ackBuf) > s.cfg.MaxFrame {
				// Many tiny entries nacked with a message can encode
				// larger than the frame that carried them. The verdicts
				// are what the agent acts on; the detail is dropped so
				// the ack still fits.
				for i := range verdicts {
					verdicts[i].Msg = ""
				}
				ackBuf = fleetwire.AppendAckBatch(ackBuf[:0], verdicts)
			}
			if err := wc.WriteFrame(fleetwire.FrameAckBatch, ackBuf); err != nil {
				keep = false
			}
		}
		s.observeFrame(tn, t0)
		if !keep {
			return
		}
	}
}

// observeFrame records one answered frame's latency, feeding the slow
// log when it crossed the threshold. The threshold pre-check keeps the
// fast path free of the detail closure's allocation.
func (s *Server) observeFrame(tn *tenant, t0 time.Time) {
	d := time.Since(t0)
	s.batchLat.Observe(int64(d))
	if d >= s.slow.Threshold() {
		s.slow.Observe("ingest/batch", d, func() string { return "tenant=" + tn.name })
	}
}

// handleBatch decides one batch frame: parse, admit it as a whole
// (one slot per batch, so backpressure and shedding are whole-batch),
// merge it on this goroutine, and return the per-entry verdicts to
// send back. keep is false when the connection should close after the
// reply; nil verdicts mean the frame was unparseable and there is
// nothing to answer. The entries alias the connection's read buffer;
// that is safe because the merge consumes the bytes before the next
// ReadFrame.
func (s *Server) handleBatch(tn *tenant, agent string, payload []byte) (verdicts []fleetwire.BatchVerdict, keep bool) {
	entries, err := fleetwire.ParseProfileBatch(payload)
	if err != nil {
		tn.corrupt.Add(1)
		return nil, false
	}
	tn.batches.Add(1)
	s.batchEntries.Observe(int64(len(entries)))
	if s.admit() {
		verdicts = s.processBatch(tn, agent, entries)
		<-s.slots
		return verdicts, true
	}
	code, msg := fleetwire.NackOverloaded, "admission slots full"
	if s.isClosing() {
		// Refused because the server is draining: explicit, retryable
		// elsewhere, never merged.
		code, msg = fleetwire.NackShuttingDown, "server draining"
	} else {
		// Whole-batch shed: every slot stayed taken past the
		// backpressure deadline, so every entry is counted dropped
		// before the nack is attempted — the ledger can only
		// over-report refusals, never under-report them.
		tn.shed.Add(uint64(len(entries)))
	}
	verdicts = make([]fleetwire.BatchVerdict, len(entries))
	for i := range entries {
		verdicts[i] = fleetwire.BatchVerdict{Seq: entries[i].Seq,
			Status: fleetwire.BatchNacked, Code: code, Msg: msg}
	}
	return verdicts, !s.isClosing()
}

// handshake validates the preamble and hello and answers with the
// agent's resume point and the server's frame limit.
func (s *Server) handshake(wc *fleetwire.Conn) (*tenant, string, bool) {
	hello, err := wc.ReadHello()
	if err != nil {
		return nil, "", false
	}
	tn := s.tenantFor(hello.Tenant)
	tn.mu.Lock()
	last := tn.agents[hello.Agent]
	tn.mu.Unlock()
	if err := wc.WriteWelcome(last); err != nil {
		return nil, "", false
	}
	return tn, hello.Agent, true
}

// isDataError reports whether a read failure is data-shaped (frame
// corruption, truncation, size lies, protocol violations) as opposed
// to a transport disconnect.
func isDataError(err error) bool {
	return errors.Is(err, fleetwire.ErrFrameCorrupt) ||
		errors.Is(err, fleetwire.ErrFrameTruncated) ||
		errors.Is(err, fleetwire.ErrFrameTooLarge) ||
		errors.Is(err, fleetwire.ErrProtocol) ||
		errors.Is(err, fleetwire.ErrFrameMagic) ||
		errors.Is(err, fleetwire.ErrUnsupportedVersion)
}

// admit takes an admission slot: immediately if one is free, otherwise
// holding the connection back (backpressure) up to EnqueueWait. True
// means the caller holds a slot and must release it (<-s.slots) after
// its merge; false means the batch was not admitted — shed, or the
// server is draining.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.cfg.EnqueueWait < 0 {
		return false
	}
	t := time.NewTimer(s.cfg.EnqueueWait)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-s.closing:
		return false
	}
}

// processBatch applies one admitted batch. Every entry first decodes
// straight into interned form (profstore.LoadInterned) without the
// tenant lock, so the wire path never materializes a string-keyed
// profile and a decode never holds up the tenant's other connections.
// Then, under the tenant lock, each entry in sequence order is checked
// against the agent's watermark, merged and committed to the ledger,
// and the batch's older epochs roll into the series before the lock is
// released: a profile can never merge twice, however many connections
// re-send it, and it is in the series or the live aggregator before
// its ack is written. An entry at or below the watermark is a
// duplicate. A bad entry is refused and skipped without advancing the
// watermark for it — later entries still merge (their higher seqs then
// advance the ledger past the refused one, which is sound: BadProfile
// is permanent, re-sending the same bytes could never succeed).
func (s *Server) processBatch(t *tenant, agent string, entries []fleetwire.BatchEntry) []fleetwire.BatchVerdict {
	decoded := make([]*profstore.Interned, len(entries))
	errs := make([]error, len(entries))
	for i := range entries {
		if s.cfg.testIngestDelay > 0 {
			time.Sleep(s.cfg.testIngestDelay)
		}
		decoded[i], errs[i] = profstore.LoadInterned(entries[i].Profile)
	}
	verdicts := make([]fleetwire.BatchVerdict, len(entries))
	var merged, dups, rejected uint64
	older := make(map[uint64]*profstore.Aggregator)
	t.mu.Lock()
	last := t.agents[agent]
	for i := range entries {
		e, v := &entries[i], &verdicts[i]
		v.Seq = e.Seq
		switch {
		case e.Seq <= last:
			dups++
			v.Status = fleetwire.BatchDuplicate
		case errs[i] != nil:
			rejected++
			v.Status, v.Code, v.Msg = fleetwire.BatchNacked, fleetwire.NackBadProfile, errs[i].Error()
		default:
			t.merge(e.Epoch, decoded[i], older)
			last = e.Seq
			merged++
			v.Status = fleetwire.BatchMerged
		}
	}
	t.agents[agent] = last
	s.roll(t, older)
	t.mu.Unlock()
	t.merged.Add(merged)
	t.duplicates.Add(dups)
	t.rejected.Add(rejected)
	return verdicts
}

// TenantStats is one tenant's ingest ledger: what merged and every
// way a profile or frame was refused or lost, each refusal counted
// exactly where it happened.
type TenantStats struct {
	Tenant string
	// Merged counts profiles aggregated (first delivery).
	Merged uint64
	// Duplicates counts re-sends answered without a second merge —
	// the retry path's acks that preserve exactly-once.
	Duplicates uint64
	// Shed counts profiles refused with NackOverloaded — load the
	// bounded admission explicitly dropped. The ingest-tier analogue
	// of the collector's LostEBS/LostLBR.
	Shed uint64
	// Rejected counts profiles refused with NackBadProfile
	// (unloadable payload bytes inside an intact frame).
	Rejected uint64
	// Corrupt counts frames lost to CRC mismatches, truncation or
	// protocol violations after handshake.
	Corrupt uint64
	// Batches counts batch frames answered with per-entry verdicts
	// (their entries are counted in the per-profile fields above).
	Batches uint64
	// Epochs lists the epochs holding live (unrolled) merged state:
	// the newest epoch merged, or none before the first merge.
	Epochs []uint64
	// Windows lists the retained series windows rolled out of the live
	// aggregator, ascending.
	Windows []tsstore.Span
}

// Stats is a point-in-time view of the server's accounting.
type Stats struct {
	// Accepted counts connections admitted since start.
	Accepted uint64
	// HandshakeFailures counts connections that never completed a
	// valid hello (wrong protocol, version skew, mid-handshake drops).
	HandshakeFailures uint64
	// ActiveConns is the number of currently live connections.
	ActiveConns int
	// Tenants carries per-tenant ledgers, sorted by name.
	Tenants []TenantStats
}

// Stats snapshots the accounting counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Accepted:          s.accepted.Value(),
		HandshakeFailures: s.handshakeFailed.Value(),
		ActiveConns:       len(s.conns),
	}
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()

	for _, t := range tenants {
		ts := TenantStats{
			Tenant:     t.name,
			Merged:     t.merged.Value(),
			Duplicates: t.duplicates.Value(),
			Shed:       t.shed.Value(),
			Rejected:   t.rejected.Value(),
			Corrupt:    t.corrupt.Value(),
			Batches:    t.batches.Value(),
		}
		t.mu.Lock()
		if t.live != nil {
			ts.Epochs = []uint64{t.liveEpoch}
		}
		ts.Windows = t.series.Spans()
		t.mu.Unlock()
		st.Tenants = append(st.Tenants, ts)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Shutdown drains and stops the server: the listener closes and live
// connections finish the frame they are processing (admitted profiles
// are merged and acked); once every connection has returned, no merge
// is in flight anywhere. Returns nil on a clean drain, or ctx.Err() if
// the context expired first (connections are then force-closed, but a
// merge already under way still completes before its connection
// returns — merged state is never abandoned mid-merge).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.closing)
		s.ln.Close()
		go func() {
			s.acceptWG.Wait()
			s.connWG.Wait()
			close(s.done)
		}()
		// Nudge loop: parked frame reads re-arm their deadlines, so
		// one poke is not enough — keep expiring them until the
		// handlers are gone.
		go func() {
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				s.nudgeConns()
				select {
				case <-s.done:
					return
				case <-tick.C:
				}
			}
		}()
	})
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-s.done
		return ctx.Err()
	}
}

// Close force-stops the server without waiting for connections to
// finish politely; a merge already under way still completes, so no
// admitted profile is half-merged.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// nudgeConns expires every live connection's pending read.
func (s *Server) nudgeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Unblock()
	}
}

// closeConns force-closes every live connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}
