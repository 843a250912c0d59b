// Package fleetserver is the fault-tolerant fleet ingest tier: a
// server that accepts stored profiles over the fleetwire protocol and
// merges them into per-tenant/epoch aggregators, and a retrying client
// agents use to deliver profiles across flaky networks.
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
//   - Overload is bounded and explicit. Ingest flows through a bounded
//     queue; a full queue exerts backpressure up to a deadline, then
//     the profile is shed with NackOverloaded and counted. Memory
//     stays bounded no matter how many agents push.
//   - Duplicates merge exactly once. Each agent numbers its profiles;
//     the server remembers the last merged sequence per agent and
//     answers re-sends (acks lost to resets) with a duplicate verdict
//     instead of a second merge, so a retrying client achieves
//     exactly-once aggregation.
//   - Shutdown drains. Profiles already handed to the ingest queue are
//     merged and acked before their connections close; everything
//     after the drain point is refused with NackShuttingDown.
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
	"runtime"
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
	// Queue bounds the ingest queue (profiles admitted but not yet
	// merged); defaults to 64. This, times the frame size limit, is
	// the ingest tier's memory bound.
	Queue int
	// Workers is the number of ingest goroutines decoding and merging
	// profiles; defaults to GOMAXPROCS.
	Workers int
	// MaxFrame bounds a wire frame's payload;
	// defaults to fleetwire.DefaultMaxFrame.
	MaxFrame int
	// EnqueueWait is how long a connection exerts backpressure on a
	// full queue before shedding the profile with NackOverloaded;
	// defaults to 50ms. Zero keeps the default; negative sheds
	// immediately.
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
	// into: per-tenant ingest ledgers, frame latency histograms, queue
	// and connection gauges, and the slow-op log. Nil gets a fresh
	// private registry, so side-by-side servers (tests, embedders)
	// never share series; a daemon that serves /metrics passes the
	// process-wide registry instead.
	Telemetry *telemetry.Registry

	// Retention, when non-empty, turns on epoch rolling: each tenant's
	// completed epochs (see EpochLag) fold out of their live
	// aggregators into a tsstore.Series downsampled by this ladder, so
	// a long-lived daemon's memory is bounded by the ladder's window
	// count instead of growing with every epoch ever seen. Empty (the
	// zero value) keeps the historical behavior: every epoch's
	// aggregator lives until shutdown.
	Retention tsstore.Retention
	// EpochLag is how many epochs behind a tenant's newest epoch an
	// epoch must be before it is considered complete and rolled into
	// the series; defaults to 1 (the newest epoch is always live,
	// everything older rolls). Only meaningful with Retention set.
	EpochLag uint64

	// testIngestDelay slows every merge — the chaos suite's lever for
	// forcing deterministic overload without a real slow disk.
	testIngestDelay time.Duration
}

// withDefaults resolves the zero value to production defaults.
func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
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
	if c.EpochLag == 0 {
		c.EpochLag = 1
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// rolling reports whether epoch rolling is configured.
func (c Config) rolling() bool { return len(c.Retention.Levels) > 0 }

// tenant is one tenant's aggregation state and drop accounting.
type tenant struct {
	name string

	mu     sync.Mutex
	epochs map[uint64]*epochEntry
	agents map[string]*agentState
	// series holds completed epochs rolled out of their aggregators,
	// downsampled by the configured retention; nil when rolling is off.
	// maxEpoch is the highest epoch this tenant has ever merged into —
	// the clock the roll horizon is measured against.
	series   *tsstore.Series
	maxEpoch uint64

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

// agentState is the per-agent exactly-once ledger: the highest
// sequence number durably merged. Guarded by its own mutex so the
// dedup check and the merge commit are one atomic step per agent
// while distinct agents merge in parallel.
type agentState struct {
	mu      sync.Mutex
	lastSeq uint64
}

// epochEntry is one live epoch's aggregator plus the number of merges
// currently in flight against it. The count is what makes epoch
// rolling safe alongside parallel ingest: a worker ingests without
// holding the tenant lock, so roll must not snapshot-and-delete an
// epoch a worker is still merging into — it skips entries with
// inflight > 0, and the releasing worker triggers its own roll.
type epochEntry struct {
	agg      *profstore.Aggregator
	inflight int
}

// acquireEpoch returns (creating if needed) the tenant's entry for one
// epoch with an in-flight merge registered; pair with releaseEpoch.
func (t *tenant) acquireEpoch(epoch uint64) *epochEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	ent := t.epochs[epoch]
	if ent == nil {
		ent = &epochEntry{agg: profstore.NewAggregator()}
		t.epochs[epoch] = ent
	}
	ent.inflight++
	return ent
}

// releaseEpoch retires one in-flight merge.
func (t *tenant) releaseEpoch(ent *epochEntry) {
	t.mu.Lock()
	ent.inflight--
	t.mu.Unlock()
}

// agent returns (creating if needed) the agent's dedup ledger.
func (t *tenant) agent(name string) *agentState {
	t.mu.Lock()
	defer t.mu.Unlock()
	ag := t.agents[name]
	if ag == nil {
		ag = &agentState{}
		t.agents[name] = ag
	}
	return ag
}

// job is one admitted batch frame on its way to a merge. A batch is
// deliberately ONE job, not one per entry: the agent's watermark
// demands the entries apply in sequence order as an atomic run under
// the agent lock, and a single queue slot keeps the backpressure
// accounting whole-batch. The worker replies with one verdict per
// entry, in entry order.
type job struct {
	t       *tenant
	agent   *agentState
	entries []fleetwire.BatchEntry
	reply   chan []fleetwire.BatchVerdict
}

// Server ingests profiles over fleetwire connections. Construct with
// [Serve]; the zero value is not usable.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[*fleetwire.Conn]struct{}

	queue    chan *job
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup

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
		queue:   make(chan *job, cfg.Queue),
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
		"Ingest queue occupancy.", func() float64 { return float64(len(s.queue)) })
	tel.GaugeFunc("hbbp_fleetserver_queue_capacity",
		"Ingest queue bound.", func() float64 { return float64(cap(s.queue)) })
	tel.GaugeFunc("hbbp_fleetserver_active_connections",
		"Currently live connections.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
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
			epochs:     make(map[uint64]*epochEntry),
			agents:     make(map[string]*agentState),
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

	tn, ag, ok := s.handshake(wc)
	if !ok {
		s.handshakeFailed.Add(1)
		return
	}

	// Per-connection scratch: the protocol is strictly one in-flight
	// exchange per connection, so one job, one reply channel and one
	// ack buffer serve the connection's whole life — the reply is
	// always awaited before the next frame, so the worker is done with
	// the job before it is refilled.
	reply := make(chan []fleetwire.BatchVerdict, 1)
	connJob := &job{}
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
		// measures the server's parse/queue/merge/reply work, not how
		// long the agent took to send the next frame.
		t0 := time.Now()
		verdicts, keep := s.handleBatch(tn, ag, payload, connJob, reply)
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

// handleBatch decides one batch frame: parse, admit as ONE queue job
// (whole-batch backpressure), and return the per-entry verdicts to
// send back. keep is false when the connection should close after the
// reply; nil verdicts mean the frame was unparseable and there is
// nothing to answer. The entries alias the connection's read buffer;
// that is safe because the reply is awaited — and the bytes fully
// consumed — before the next ReadFrame.
func (s *Server) handleBatch(tn *tenant, ag *agentState, payload []byte,
	j *job, reply chan []fleetwire.BatchVerdict) (verdicts []fleetwire.BatchVerdict, keep bool) {
	entries, err := fleetwire.ParseProfileBatch(payload)
	if err != nil {
		tn.corrupt.Add(1)
		return nil, false
	}
	tn.batches.Add(1)
	s.batchEntries.Observe(int64(len(entries)))
	*j = job{t: tn, agent: ag, entries: entries, reply: reply}
	if s.enqueue(j) {
		// The worker always replies — shutdown drains the queue before
		// the workers exit — so an admitted batch is always answered.
		return <-reply, true
	}
	code, msg := fleetwire.NackOverloaded, "ingest queue full"
	if s.isClosing() {
		// Refused because the server is draining: explicit, retryable
		// elsewhere, never merged.
		code, msg = fleetwire.NackShuttingDown, "server draining"
	} else {
		// Whole-batch shed: the queue stayed full past the backpressure
		// deadline, so every entry is counted dropped before the nack
		// is attempted — the ledger can only over-report refusals,
		// never under-report them.
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
// agent's resume point.
func (s *Server) handshake(wc *fleetwire.Conn) (*tenant, *agentState, bool) {
	if err := wc.ReadPreamble(); err != nil {
		return nil, nil, false
	}
	typ, payload, err := wc.ReadFrame()
	if err != nil || typ != fleetwire.FrameHello {
		return nil, nil, false
	}
	hello, err := fleetwire.ParseHello(payload)
	if err != nil {
		return nil, nil, false
	}
	tn := s.tenantFor(hello.Tenant)
	ag := tn.agent(hello.Agent)
	ag.mu.Lock()
	last := ag.lastSeq
	ag.mu.Unlock()
	if err := wc.WritePreamble(); err != nil {
		return nil, nil, false
	}
	if err := wc.WriteFrame(fleetwire.FrameWelcome,
		fleetwire.AppendWelcome(nil, fleetwire.Welcome{LastSeq: last})); err != nil {
		return nil, nil, false
	}
	return tn, ag, true
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

// enqueue admits a job to the bounded queue: immediately if there is
// room, otherwise holding the connection back (backpressure) up to
// EnqueueWait. False means the profile was not admitted — shed, or
// the server is draining.
func (s *Server) enqueue(j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
	}
	if s.cfg.EnqueueWait < 0 {
		return false
	}
	t := time.NewTimer(s.cfg.EnqueueWait)
	defer t.Stop()
	select {
	case s.queue <- j:
		return true
	case <-t.C:
		return false
	case <-s.closing:
		return false
	}
}

// worker merges admitted batches. Each runs through processBatch,
// where the dedup check, the merge and the ledger commit are one
// atomic step under the agent's lock, so a profile can never merge
// twice no matter how it was re-sent.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		j.reply <- s.processBatch(j)
	}
}

// processBatch applies one batch job: every entry in sequence order
// under the agent lock. An entry at or below the agent's watermark is
// a duplicate; otherwise it decodes straight into interned form
// (profstore.LoadInterned) and feeds the aggregator as integer rows —
// the wire path never materializes a string-keyed profile. A bad entry
// is refused and skipped without advancing the watermark for it —
// later entries still merge (their higher seqs then advance the ledger
// past the refused one, which is sound: BadProfile is permanent,
// re-sending the same bytes could never succeed).
func (s *Server) processBatch(j *job) []fleetwire.BatchVerdict {
	verdicts := make([]fleetwire.BatchVerdict, 0, len(j.entries))
	var merged, dups, rejected uint64
	var maxMergedEpoch uint64
	j.agent.mu.Lock()
	for i := range j.entries {
		e := &j.entries[i]
		if s.cfg.testIngestDelay > 0 {
			time.Sleep(s.cfg.testIngestDelay)
		}
		if e.Seq <= j.agent.lastSeq {
			dups++
			verdicts = append(verdicts, fleetwire.BatchVerdict{Seq: e.Seq, Status: fleetwire.BatchDuplicate})
			continue
		}
		in, err := profstore.LoadInterned(e.Profile)
		if err != nil {
			rejected++
			verdicts = append(verdicts, fleetwire.BatchVerdict{Seq: e.Seq,
				Status: fleetwire.BatchNacked, Code: fleetwire.NackBadProfile, Msg: err.Error()})
			continue
		}
		ent := j.t.acquireEpoch(e.Epoch)
		ent.agg.IngestInterned(in)
		j.t.releaseEpoch(ent)
		j.agent.lastSeq = e.Seq
		merged++
		if e.Epoch > maxMergedEpoch {
			maxMergedEpoch = e.Epoch
		}
		verdicts = append(verdicts, fleetwire.BatchVerdict{Seq: e.Seq, Status: fleetwire.BatchMerged})
	}
	j.agent.mu.Unlock()
	j.t.merged.Add(merged)
	j.t.duplicates.Add(dups)
	j.t.rejected.Add(rejected)
	if merged > 0 {
		s.roll(j.t, maxMergedEpoch)
	}
	return verdicts
}

// Snapshot returns the merged profile for one tenant and epoch — a
// canonical profile bit-identical to profstore.Merge over exactly the
// profiles acked into that pair — or nil if nothing has been merged
// there. Safe during ingestion; see profstore.Aggregator.Snapshot for
// the consistency contract. With epoch rolling configured the answer
// covers only a still-live epoch: rolled epochs live in the tenant's
// series, where folding may have merged them beyond per-epoch
// recovery — query those through [Server.Window] or
// [Server.SeriesSnapshot].
func (s *Server) Snapshot(tenantName string, epoch uint64) *profstore.Profile {
	s.mu.Lock()
	tn := s.tenants[tenantName]
	s.mu.Unlock()
	if tn == nil {
		return nil
	}
	tn.mu.Lock()
	ent := tn.epochs[epoch]
	tn.mu.Unlock()
	if ent == nil {
		return nil
	}
	return ent.agg.Snapshot()
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
	// bounded queue explicitly dropped. The ingest-tier analogue of
	// the collector's LostEBS/LostLBR.
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
	// Epochs lists the epochs holding live (unrolled) merged state,
	// ascending.
	Epochs []uint64
	// Windows lists the retained series windows rolled out of live
	// aggregators, ascending; empty unless epoch rolling is configured.
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
		for e := range t.epochs {
			ts.Epochs = append(ts.Epochs, e)
		}
		if t.series != nil {
			ts.Windows = t.series.Spans()
		}
		t.mu.Unlock()
		sort.Slice(ts.Epochs, func(i, j int) bool { return ts.Epochs[i] < ts.Epochs[j] })
		st.Tenants = append(st.Tenants, ts)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Shutdown drains and stops the server: the listener closes, live
// connections finish the frame they are processing (admitted profiles
// are merged and acked), the ingest queue drains, and only then do
// the workers exit. Returns nil on a clean drain, or ctx.Err() if the
// context expired first (connections are then force-closed, but the
// queue still drains — merged state is never abandoned mid-merge).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.closing)
		s.ln.Close()
		go func() {
			s.acceptWG.Wait()
			s.connWG.Wait()
			close(s.queue)
			s.workerWG.Wait()
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
// finish politely; the ingest queue still drains so no admitted
// profile is half-merged.
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
