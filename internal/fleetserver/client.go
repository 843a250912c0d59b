package fleetserver

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
	"hbbp/internal/telemetry"
)

// ClientConfig parameterizes a fleet agent's ingest client. Tenant
// and Agent are required; everything else defaults.
type ClientConfig struct {
	// Tenant names the aggregation namespace profiles merge into.
	Tenant string
	// Agent is this agent's stable identity — the key of the server's
	// exactly-once ledger. Reusing an Agent name across restarts
	// without continuing its sequence numbering would confuse the
	// ledger; the client guards against it by adopting the server's
	// resume point on every handshake. Nothing guards two clients live
	// at once under one Agent: they share the ledger and can confirm
	// each other's sequence numbers, so a client that re-dials after
	// the other advanced the ledger counts its unsent entries as
	// resumed and reports them delivered, unmerged. Give every
	// concurrently live client its own Agent.
	Agent string
	// Dialer opens transport connections; defaults to a net.Dialer
	// with a 10s timeout. Chaos tests inject faults here.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// ReadTimeout bounds each ack/nack wait; defaults to 10s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write; defaults to 10s.
	WriteTimeout time.Duration
	// BackoffBase is the first retry delay; defaults to 10ms. Each
	// retry doubles it up to BackoffMax (default 1s), jittered to
	// half-to-full so a fleet of agents does not retry in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts bounds how many times one profile is tried before
	// Send gives up; 0 means retry until the context cancels.
	MaxAttempts int
	// Seed makes the retry jitter reproducible in tests; 0 derives a
	// per-agent seed from Tenant/Agent.
	Seed int64
	// Telemetry is the registry the client counts its dials, re-dials,
	// retries and backoff wall into, labeled by tenant. Nil uses the
	// process-wide default registry: agents are normally embedded in a
	// process that wants one exposition of everything it does.
	Telemetry *telemetry.Registry
}

// withDefaults resolves the zero value and validates identity.
func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if c.Tenant == "" || c.Agent == "" {
		return c, fmt.Errorf("fleetserver: client requires Tenant and Agent: %w", fleetwire.ErrProtocol)
	}
	if c.Dialer == nil {
		d := &net.Dialer{Timeout: 10 * time.Second}
		c.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(c.Tenant))
		h.Write([]byte{0})
		h.Write([]byte(c.Agent))
		c.Seed = int64(h.Sum64())
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	return c, nil
}

// ClientStats counts what one client did and observed — the
// client-side half of the drop-accounting invariant.
type ClientStats struct {
	// Dials counts completed handshakes (first dial and re-dials).
	Dials uint64
	// Sent counts profiles written to the wire (every entry of every
	// batch frame), including re-sends of the same profile.
	Sent uint64
	// Acked counts profiles the server confirmed merged. This is the
	// number an offline Merge of this agent's acked profiles must
	// reproduce.
	Acked uint64
	// DuplicateAcks counts acks flagged duplicate — re-sends whose
	// first delivery had already merged (the lost-ack retry shape).
	DuplicateAcks uint64
	// ResumeSkipped counts profiles confirmed merged by the handshake
	// resume point instead of an ack frame (the reset-before-ack
	// retry shape).
	ResumeSkipped uint64
	// OverloadNacks counts NackOverloaded refusals observed.
	OverloadNacks uint64
	// RejectedNacks counts NackBadProfile refusals observed.
	RejectedNacks uint64
	// ConnErrors counts dial, write and read failures that dropped a
	// connection.
	ConnErrors uint64
	// Retries counts backoff sleeps taken.
	Retries uint64
}

// Client delivers profiles to a fleet ingest server with retries,
// reconnection and exactly-once delivery accounting. Safe for
// concurrent use; Sends serialize internally (one agent identity is
// one ordered stream of profiles).
type Client struct {
	// mu serializes all client state; Send holds it end-to-end so the
	// per-agent sequence stream stays ordered.
	mu sync.Mutex

	cfg  ClientConfig
	addr string
	rng  *rand.Rand

	wc *fleetwire.Conn
	// seq is the last sequence number this client assigned.
	seq uint64
	// serverSeq is the highest sequence the server has confirmed
	// merged (via ack or handshake resume point).
	serverSeq uint64
	// maxFrame is the frame limit the latest handshake announced: the
	// bound every batch frame is split to, in force until a re-dial.
	maxFrame int

	closed bool
	stats  ClientStats

	// Telemetry handles, resolved at Dial against cfg.Telemetry.
	telDials   *telemetry.Counter
	telRedials *telemetry.Counter
	telRetries *telemetry.Counter
	telBackoff *telemetry.Histogram // backoff sleep wall, seconds

	// frameBuf is the reused frame-encode scratch; safe because mu is
	// held across every send, including its retries.
	frameBuf []byte
}

// Dial validates cfg and connects to addr, retrying transient
// failures under the client's backoff policy until ctx cancels or
// MaxAttempts is exhausted. The returned client re-dials transparently
// whenever its connection drops.
func Dial(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:  cfg,
		addr: addr,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	tel := cfg.Telemetry
	c.telDials = tel.Counter("hbbp_fleetclient_dials_total",
		"Completed handshakes (first dial and re-dials).", "tenant", cfg.Tenant)
	c.telRedials = tel.Counter("hbbp_fleetclient_redials_total",
		"Re-dials after a dropped connection.", "tenant", cfg.Tenant)
	c.telRetries = tel.Counter("hbbp_fleetclient_retries_total",
		"Backoff sleeps taken.", "tenant", cfg.Tenant)
	c.telBackoff = tel.Histogram("hbbp_fleetclient_backoff_seconds",
		"Wall time spent in retry backoff.",
		telemetry.NanosToSeconds, telemetry.DurationBuckets(), "tenant", cfg.Tenant)
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 1; ; attempt++ {
		if err := c.ensureConn(ctx); err == nil {
			return c, nil
		} else if giveUp := c.retryBudget(ctx, attempt, err); giveUp != nil {
			return nil, giveUp
		}
	}
}

// Send delivers one profile for one epoch, retrying across resets,
// overload nacks and redials until the server confirms it merged
// exactly once, the server rejects it permanently (ErrRejected), the
// retry budget runs out, or ctx cancels. It is SendBatch of one.
func (c *Client) Send(ctx context.Context, epoch uint64, p *profstore.Profile) error {
	return c.SendBatch(ctx, epoch, []*profstore.Profile{p})
}

// SendBytes is Send for an already-serialized stored profile (the
// bytes profstore.Save produces). The payload is delivered verbatim.
func (c *Client) SendBytes(ctx context.Context, epoch uint64, payload []byte) error {
	return c.SendBatchBytes(ctx, []BatchItem{{Epoch: epoch, Payload: payload}})
}

// BatchItem is one profile for SendBatchBytes: a serialized stored
// profile bound for one epoch.
type BatchItem struct {
	Epoch   uint64
	Payload []byte
}

// SendBatch delivers several profiles for one epoch in batch frames —
// one round trip per frame instead of one per profile. Each profile
// still merges exactly once under the same retry semantics as Send.
// Returns nil when every profile merged; ErrRejected (wrapped) when
// the server permanently refused at least one entry (the others still
// merged); fleetwire.ErrFrameTooLarge (wrapped), without a retry, when
// a profile cannot fit the server's frame limit even alone; any other
// error means the retry budget ran out with profiles undelivered.
func (c *Client) SendBatch(ctx context.Context, epoch uint64, profiles []*profstore.Profile) error {
	items := make([]BatchItem, 0, len(profiles))
	for _, p := range profiles {
		data, err := profstore.AppendSave(nil, p)
		if err != nil {
			return err
		}
		items = append(items, BatchItem{Epoch: epoch, Payload: data})
	}
	return c.SendBatchBytes(ctx, items)
}

// SendBatchBytes is SendBatch for already-serialized profiles, each
// with its own epoch. Entries are assigned consecutive sequence
// numbers and sent in as few frames as the server's announced frame
// limit and fleetwire.MaxBatchEntries allow; on resets or overload the
// still-unconfirmed entries retry, with the handshake resume point
// confirming anything merged before a lost ack.
func (c *Client) SendBatchBytes(ctx context.Context, items []BatchItem) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if len(items) == 0 {
		return nil
	}
	entries := make([]fleetwire.BatchEntry, len(items))
	for i, it := range items {
		entries[i] = fleetwire.BatchEntry{Seq: c.seq + 1 + uint64(i), Epoch: it.Epoch, Profile: it.Payload}
	}
	// done tracks entries confirmed merged (ack or resume point) or
	// permanently refused, so neither is re-sent; rej remembers the
	// refusals.
	done := make([]bool, len(entries))
	var rej rejections
	for attempt := 1; ; attempt++ {
		err := c.ensureConn(ctx)
		if err == nil {
			// A profile the latest handshake's limit cannot carry fails
			// the batch at once, since re-sending it could never
			// succeed: on the first attempt before any sequence number
			// is spent, after a re-dial to a smaller limit in place of
			// a retry.
			if err := c.oversized(entries, done); err != nil {
				return err
			}
			c.seq = max(c.seq, entries[len(entries)-1].Seq)
			err = c.trySendBatch(entries, done, &rej)
		}
		if err == nil {
			if rej.first != nil {
				return fmt.Errorf("fleetserver: batch of %d: %d rejected (first: %v): %w",
					len(entries), rej.n, rej.first, ErrRejected)
			}
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if giveUp := c.retryBudget(ctx, attempt, err); giveUp != nil {
			return giveUp
		}
	}
}

// oversized returns the ErrFrameTooLarge error for the first entry
// still to send that no frame under the announced limit can carry, or
// nil when every one fits alone.
func (c *Client) oversized(entries []fleetwire.BatchEntry, done []bool) error {
	for i := range entries {
		if !done[i] && entries[i].Seq > c.serverSeq && fleetwire.SplitBatch(entries[i:i+1], c.maxFrame) == 0 {
			return fmt.Errorf("fleetserver: profile %d of %d is %d bytes, too large for the server's %d-byte frame: %w",
				i, len(entries), len(entries[i].Profile), c.maxFrame, fleetwire.ErrFrameTooLarge)
		}
	}
	return nil
}

// rejections counts one batch's permanent refusals (NackBadProfile)
// and keeps the first one's reason.
type rejections struct {
	n     int
	first error
}

// trySendBatch makes one delivery attempt for the batch's unresolved
// entries, frame after frame on the live connection. nil means every
// entry is resolved (merged, duplicate, resume-skipped, or permanently
// rejected — recorded in rej rather than returned, so one bad entry
// cannot abort its batchmates).
func (c *Client) trySendBatch(entries []fleetwire.BatchEntry, done []bool, rej *rejections) error {
	for from := 0; ; {
		// Seqs ascend, so what the resume point confirms is a prefix
		// of the unresolved entries: a reset between the server's
		// merge and our ack read means the re-dial, not a re-send,
		// confirms delivery.
		for from < len(entries) && (done[from] || entries[from].Seq <= c.serverSeq) {
			if !done[from] {
				done[from] = true
				c.stats.ResumeSkipped++
			}
			from++
		}
		if from == len(entries) {
			return nil
		}
		// The next frame is the longest run of unresolved entries that
		// fits; SendBatchBytes checked that the first one fits alone.
		n := fleetwire.SplitBatch(entries[from:], c.maxFrame)
		for k := 1; k < n; k++ {
			if done[from+k] {
				n = k
				break
			}
		}
		if err := c.exchange(entries[from:from+n], done[from:from+n], rej); err != nil {
			return err
		}
	}
}

// exchange sends one batch frame and applies the server's verdicts to
// done and rej. Any failure that might have left entries merged but
// unconfirmed drops the connection, so the next attempt re-handshakes
// and learns the truth from the server's resume point or duplicate
// verdicts.
func (c *Client) exchange(frame []fleetwire.BatchEntry, done []bool, rej *rejections) error {
	c.frameBuf = fleetwire.AppendProfileBatch(c.frameBuf[:0], frame)
	if err := c.wc.WriteFrame(fleetwire.FrameProfileBatch, c.frameBuf); err != nil {
		c.dropConn()
		c.stats.ConnErrors++
		return err
	}
	c.stats.Sent += uint64(len(frame))
	typ, payload, err := c.wc.ReadFrame()
	if err != nil {
		c.dropConn()
		c.stats.ConnErrors++
		return err
	}
	if typ != fleetwire.FrameAckBatch {
		c.dropConn()
		c.stats.ConnErrors++
		return fmt.Errorf("fleetserver: unexpected %v frame awaiting batch verdicts: %w", typ, fleetwire.ErrProtocol)
	}
	verdicts, err := fleetwire.ParseAckBatch(payload)
	if err != nil || len(verdicts) != len(frame) {
		c.dropConn()
		c.stats.ConnErrors++
		return fmt.Errorf("fleetserver: bad batch ack (%d verdicts for %d entries): %w",
			len(verdicts), len(frame), fleetwire.ErrProtocol)
	}
	var retryable error
	for i, v := range verdicts {
		if v.Seq != frame[i].Seq {
			c.dropConn()
			c.stats.ConnErrors++
			return fmt.Errorf("fleetserver: batch verdict %d echoes seq %d, want %d: %w",
				i, v.Seq, frame[i].Seq, fleetwire.ErrProtocol)
		}
		switch v.Status {
		case fleetwire.BatchMerged, fleetwire.BatchDuplicate:
			done[i] = true
			c.stats.Acked++
			if v.Status == fleetwire.BatchDuplicate {
				c.stats.DuplicateAcks++
			}
			if v.Seq > c.serverSeq {
				c.serverSeq = v.Seq
			}
		case fleetwire.BatchNacked:
			switch v.Code {
			case fleetwire.NackBadProfile:
				// Permanent: resolve the entry, remember the refusal.
				done[i] = true
				c.stats.RejectedNacks++
				rej.n++
				if rej.first == nil {
					rej.first = fmt.Errorf("seq %d: %s", v.Seq, v.Msg)
				}
			case fleetwire.NackOverloaded:
				c.stats.OverloadNacks++
				retryable = fmt.Errorf("fleetserver: seq %d: %w", v.Seq, ErrOverloaded)
			default:
				// Shutting down or future codes: retry on a fresh
				// connection.
				retryable = fmt.Errorf("fleetserver: seq %d refused: %s (code %d)", v.Seq, v.Msg, v.Code)
			}
		}
	}
	if retryable != nil {
		if !errors.Is(retryable, ErrOverloaded) {
			c.dropConn()
		}
		return retryable
	}
	return nil
}

// ensureConn dials and handshakes if no connection is live, adopting
// the server's resume point and frame limit.
func (c *Client) ensureConn(ctx context.Context) error {
	if c.wc != nil {
		return nil
	}
	conn, err := c.cfg.Dialer(ctx, c.addr)
	if err != nil {
		c.stats.ConnErrors++
		return err
	}
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{
		ReadTimeout:  c.cfg.ReadTimeout,
		WriteTimeout: c.cfg.WriteTimeout,
	})
	welcome, err := wc.Handshake(fleetwire.Hello{Tenant: c.cfg.Tenant, Agent: c.cfg.Agent})
	if err != nil {
		wc.Close()
		c.stats.ConnErrors++
		return err
	}
	// Adopt the server's ledger: it knows what merged even if our
	// acks were lost, and it protects a restarted client that reused
	// its agent name from double-assigning sequence numbers.
	if welcome.LastSeq > c.serverSeq {
		c.serverSeq = welcome.LastSeq
	}
	if welcome.LastSeq > c.seq {
		c.seq = welcome.LastSeq
	}
	c.maxFrame = welcome.MaxFrame
	c.wc = wc
	c.stats.Dials++
	c.telDials.Inc()
	if c.stats.Dials > 1 {
		c.telRedials.Inc()
	}
	return nil
}

// dropConn closes the live connection (if any); the next attempt
// re-dials.
func (c *Client) dropConn() {
	if c.wc != nil {
		c.wc.Close()
		c.wc = nil
	}
}

// retryBudget charges one failed attempt against the budget: nil
// means backoff taken, retry; non-nil is the terminal error to
// return. Called with c.mu held.
func (c *Client) retryBudget(ctx context.Context, attempt int, cause error) error {
	if c.cfg.MaxAttempts > 0 && attempt >= c.cfg.MaxAttempts {
		return fmt.Errorf("fleetserver: giving up after %d attempts: %w", attempt, cause)
	}
	d := c.cfg.BackoffBase << (attempt - 1)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	// Jitter to [d/2, d]: desynchronizes a fleet without collapsing
	// the backoff floor.
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.stats.Retries++
	c.telRetries.Inc()
	c.telBackoff.Observe(int64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleetserver: %w (last error: %v)", ctx.Err(), cause)
	}
}

// Stats snapshots the client's delivery accounting.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drops the connection and fails future Sends with
// ErrClientClosed. In-flight retries finish their current attempt.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropConn()
	return nil
}
