// Package fleetwire is the fleet ingest wire protocol: how an agent
// ships stored profiles (the HBBPROF1 format) to an aggregation server
// over a byte stream that real networks will truncate, corrupt, stall
// and reset.
//
// The protocol is deliberately small, because every feature is a
// robustness obligation:
//
//   - There is one data exchange. After a Hello/Welcome handshake the
//     agent sends ProfileBatch frames, each carrying one or more
//     profiles, and the server answers each with one AckBatch holding
//     a verdict per profile. A single profile is a batch of one.
//   - A fixed preamble ("HBBPWIR1" + a little-endian uint32 version)
//     opens each direction of a connection, so version skew and
//     wrong-protocol peers fail fast with a classified error instead
//     of a confusing mid-stream parse failure.
//   - Every message after the preamble is one frame: a 1-byte type, a
//     4-byte little-endian payload length, the payload, and a CRC-32C
//     checksum over all of it. A frame either arrives bit-exact or it
//     is rejected; there is no "mostly intact".
//   - Payload lengths are bounded (MaxFrame), so a corrupted or
//     hostile length prefix costs a classified error, not an
//     allocation the size of the lie. The server sets the limit alone
//     and announces it in its Welcome; the agent splits its batches to
//     fit, so no setting on the agent side has to agree with it.
//   - Reads and writes carry deadlines, so a stalled peer (slow-loris
//     or a half-dead TCP session) surfaces as a timeout the caller can
//     account, never a goroutine parked forever.
//
// Malformed streams classify under errors.Is into the same sentinel
// pattern internal/perffile and internal/profstore use:
// [ErrFrameMagic], [ErrFrameTruncated], [ErrFrameCorrupt],
// [ErrFrameTooLarge], [ErrUnsupportedVersion] and [ErrProtocol].
//
// Like the two serialization formats, this package depends only on the
// standard library (enforced by the repository's import-boundary
// test): the profile payload is opaque bytes here, so the wire layer
// can be lifted into external agent tooling unchanged.
package fleetwire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
	"unicode/utf8"
)

// Magic opens each direction of a connection.
const Magic = "HBBPWIR1"

// Version is the current wire protocol version. Version 1 also had a
// single-profile exchange (frame types 3-5); version 2 dropped it;
// version 3's Welcome also carries the server's frame limit. A peer of
// any other version fails the handshake with ErrUnsupportedVersion.
const Version uint32 = 3

// DefaultMaxFrame bounds a frame's payload when the caller does not
// choose a limit: generous for merged fleet profiles (~11 B/block in
// the HBBPROF1 encoding), small enough that a lying length prefix
// cannot commit the peer to a gigabyte allocation.
const DefaultMaxFrame = 16 << 20

// frameOverhead is the non-payload cost of one frame: type byte,
// length word, trailing CRC.
const frameOverhead = 1 + 4 + 4

// FrameType identifies a frame's message kind.
type FrameType uint8

// The protocol's frame types. Hello and ProfileBatch flow agent to
// server; Welcome and AckBatch flow server to agent. Types 3, 4 and 5
// carried version 1's single-profile exchange; they are reserved and
// never reused, so a stray one reads as a protocol violation.
const (
	// FrameHello identifies the agent: tenant and agent ID.
	FrameHello FrameType = 1
	// FrameWelcome answers a Hello with the last profile sequence
	// number the server has durably merged for this agent — the resume
	// point after a reconnect — and the server's frame limit.
	FrameWelcome FrameType = 2
	// FrameProfileBatch carries one or more profiles, each with its
	// own per-agent sequence number and epoch; answered by one
	// FrameAckBatch with a verdict per entry.
	FrameProfileBatch FrameType = 6
	// FrameAckBatch answers a FrameProfileBatch: one per-entry verdict
	// (merged, duplicate, or nacked with a reason) in entry order.
	FrameAckBatch FrameType = 7
)

// String names a frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameProfileBatch:
		return "profile-batch"
	case FrameAckBatch:
		return "ack-batch"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Sentinel errors for broken streams. Failures wrap one of these, so
// callers classify with errors.Is regardless of contextual detail.
var (
	// ErrFrameMagic reports a peer that is not speaking this protocol
	// at all.
	ErrFrameMagic = errors.New("fleetwire: bad wire magic")
	// ErrFrameTruncated reports a stream that ends mid-preamble or
	// mid-frame.
	ErrFrameTruncated = errors.New("fleetwire: truncated frame")
	// ErrFrameCorrupt reports a frame whose CRC does not match its
	// bytes.
	ErrFrameCorrupt = errors.New("fleetwire: frame CRC mismatch")
	// ErrFrameTooLarge reports a frame whose length prefix exceeds the
	// connection's limit.
	ErrFrameTooLarge = errors.New("fleetwire: frame exceeds size limit")
	// ErrUnsupportedVersion reports a valid preamble carrying a wire
	// version this build cannot speak.
	ErrUnsupportedVersion = errors.New("fleetwire: unsupported wire version")
	// ErrProtocol reports a bit-exact frame whose payload violates the
	// protocol (unparseable message, wrong frame at this point in the
	// exchange).
	ErrProtocol = errors.New("fleetwire: protocol violation")
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame to dst and returns the
// extended slice: type, length, payload, CRC-32C over the first three.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// ReadFrame reads one frame from r under the payload size limit
// (maxFrame <= 0 selects DefaultMaxFrame). A stream that ends cleanly
// before the first header byte returns io.EOF; one that ends anywhere
// inside the frame returns ErrFrameTruncated; a checksum mismatch
// returns ErrFrameCorrupt.
func ReadFrame(r io.Reader, maxFrame int) (FrameType, []byte, error) {
	t, payload, _, err := readFrameScratch(r, maxFrame, nil)
	return t, payload, err
}

// readFrameScratch is ReadFrame decoding into a reusable buffer: the
// returned payload aliases the returned scratch slice, which grows as
// needed and is handed back for the next call. A nil scratch allocates
// fresh (ReadFrame's semantics).
func readFrameScratch(r io.Reader, maxFrame int, scratch []byte) (FrameType, []byte, []byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var head [5]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, scratch, io.EOF // clean close between frames
		}
		return 0, nil, scratch, classifyRead("frame type", err)
	}
	if _, err := io.ReadFull(r, head[1:]); err != nil {
		return 0, nil, scratch, classifyRead("frame header", err)
	}
	t := FrameType(head[0])
	n := binary.LittleEndian.Uint32(head[1:])
	if n > uint32(maxFrame) {
		return 0, nil, scratch, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, maxFrame)
	}
	need := int(n) + 4
	body := scratch
	if cap(body) < need {
		body = make([]byte, need)
		scratch = body
	}
	body = body[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, scratch, classifyRead("frame payload", err)
	}
	payload := body[:n]
	sum := crc32.Checksum(head[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	if got := binary.LittleEndian.Uint32(body[n:]); got != sum {
		return 0, nil, scratch, fmt.Errorf("%w: %s frame, %#08x != %#08x", ErrFrameCorrupt, t, got, sum)
	}
	return t, payload, scratch, nil
}

// classifyRead maps a mid-frame read failure to its sentinel: an early
// end is a truncated frame, any other I/O failure (including a
// deadline expiry) keeps its own identity on the chain so callers do
// not mistake a stall for corruption.
func classifyRead(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s: %w", ErrFrameTruncated, what, err)
	}
	return fmt.Errorf("fleetwire: reading %s: %w", what, err)
}

// ConnConfig parameterizes a framed connection.
type ConnConfig struct {
	// MaxFrame bounds a frame's payload in bytes; 0 selects
	// DefaultMaxFrame.
	MaxFrame int
	// ReadTimeout bounds each frame read (slow-loris protection);
	// 0 means no deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write; 0 means no deadline.
	WriteTimeout time.Duration
}

// Conn frames messages over a net.Conn with deadlines. Not safe for
// concurrent use by multiple goroutines on the same direction; the
// protocol is strictly request/response per connection.
type Conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cfg  ConnConfig
	wbuf []byte
	rbuf []byte
}

// NewConn wraps c for framed exchange.
func NewConn(c net.Conn, cfg ConnConfig) *Conn {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	return &Conn{
		c:   c,
		br:  bufio.NewReaderSize(c, 1<<16),
		bw:  bufio.NewWriterSize(c, 1<<16),
		cfg: cfg,
	}
}

// Handshake is the agent's half of the handshake: it sends the
// preamble and h, reads the server's preamble and Welcome, and adopts
// the announced frame limit for both directions of c. The returned
// Welcome's MaxFrame is that limit, DefaultMaxFrame when the server
// announced 0.
func (c *Conn) Handshake(h Hello) (Welcome, error) {
	if err := c.WritePreamble(); err != nil {
		return Welcome{}, err
	}
	if err := c.WriteFrame(FrameHello, AppendHello(nil, h)); err != nil {
		return Welcome{}, err
	}
	if err := c.ReadPreamble(); err != nil {
		return Welcome{}, err
	}
	t, payload, err := c.ReadFrame()
	if err != nil {
		return Welcome{}, err
	}
	if t != FrameWelcome {
		return Welcome{}, fmt.Errorf("%w: expected welcome, got %s", ErrProtocol, t)
	}
	w, err := ParseWelcome(payload)
	if err != nil {
		return Welcome{}, err
	}
	w.MaxFrame = cmp.Or(w.MaxFrame, DefaultMaxFrame)
	c.cfg.MaxFrame = w.MaxFrame
	return w, nil
}

// ReadHello is the server's first half of the handshake: it reads and
// validates the agent's preamble and Hello.
func (c *Conn) ReadHello() (Hello, error) {
	if err := c.ReadPreamble(); err != nil {
		return Hello{}, err
	}
	t, payload, err := c.ReadFrame()
	if err != nil {
		return Hello{}, err
	}
	if t != FrameHello {
		return Hello{}, fmt.Errorf("%w: expected hello, got %s", ErrProtocol, t)
	}
	return ParseHello(payload)
}

// WriteWelcome is the server's second half of the handshake: it sends
// the preamble and a Welcome carrying the agent's resume point and
// c's frame limit, the one limit both directions of the connection
// keep to.
func (c *Conn) WriteWelcome(lastSeq uint64) error {
	if err := c.WritePreamble(); err != nil {
		return err
	}
	return c.WriteFrame(FrameWelcome, AppendWelcome(nil, Welcome{LastSeq: lastSeq, MaxFrame: c.cfg.MaxFrame}))
}

// WritePreamble buffers the magic and wire version. It is flushed with
// the next WriteFrame, so a handshake costs one packet, not two.
func (c *Conn) WritePreamble() error {
	if _, err := c.bw.WriteString(Magic); err != nil {
		return err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	_, err := c.bw.Write(v[:])
	return err
}

// ReadPreamble reads and validates the peer's magic and version.
func (c *Conn) ReadPreamble() error {
	if err := c.armRead(); err != nil {
		return err
	}
	head := make([]byte, len(Magic)+4)
	if n, err := io.ReadFull(c.br, head); err != nil {
		// A short stream that does not even start with the magic was
		// never speaking this protocol; only a genuine magic prefix
		// earns the truncation classification.
		prefix := min(n, len(Magic))
		if string(head[:prefix]) != Magic[:prefix] {
			return ErrFrameMagic
		}
		return classifyRead("preamble", err)
	}
	if string(head[:len(Magic)]) != Magic {
		return ErrFrameMagic
	}
	if v := binary.LittleEndian.Uint32(head[len(Magic):]); v != Version {
		return fmt.Errorf("%w: %d (this build speaks %d)", ErrUnsupportedVersion, v, Version)
	}
	return nil
}

// WriteFrame encodes one frame, flushes it, and reports any write
// failure. The write runs under the configured deadline.
func (c *Conn) WriteFrame(t FrameType, payload []byte) error {
	if len(payload) > c.cfg.MaxFrame {
		return fmt.Errorf("%w: writing %d bytes (limit %d)", ErrFrameTooLarge, len(payload), c.cfg.MaxFrame)
	}
	if c.cfg.WriteTimeout > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	c.wbuf = AppendFrame(c.wbuf[:0], t, payload)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadFrame reads one frame under the configured deadline and size
// limit. The payload is decoded into a buffer the connection owns and
// reuses: it is valid only until the next ReadFrame on c, and callers
// that keep profile bytes past that point must copy them. The protocol
// is strictly request/response, so in practice each frame is fully
// handled — parsed, merged or copied — before the next read.
func (c *Conn) ReadFrame() (FrameType, []byte, error) {
	if err := c.armRead(); err != nil {
		return 0, nil, err
	}
	t, payload, scratch, err := readFrameScratch(c.br, c.cfg.MaxFrame, c.rbuf)
	c.rbuf = scratch
	return t, payload, err
}

// armRead sets the read deadline for the next read, if one is
// configured.
func (c *Conn) armRead() error {
	if c.cfg.ReadTimeout <= 0 {
		return nil
	}
	return c.c.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
}

// Unblock expires any in-flight or future read immediately — the
// graceful-shutdown lever: a handler parked in ReadFrame wakes with a
// timeout and can observe the shutdown flag.
func (c *Conn) Unblock() {
	c.c.SetReadDeadline(time.Now())
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr names the peer for diagnostics.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// IsTimeout reports whether err is a network deadline expiry — the
// signature of a stalled peer or an Unblock nudge, as opposed to a
// broken or misbehaving one.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- Message payloads -------------------------------------------------
//
// Payloads use the profstore varint conventions: uvarints for numbers,
// uvarint-length-prefixed bytes for strings. Parse failures wrap
// ErrProtocol — the frame arrived bit-exact (the CRC said so), so a
// bad payload is a peer bug, not line noise.

// maxNameLen bounds tenant and agent identifiers.
const maxNameLen = 256

// Hello identifies an agent to the server.
type Hello struct {
	// Tenant scopes everything the agent sends: aggregation, drop
	// accounting, snapshots.
	Tenant string
	// Agent identifies the logical sender across reconnects; the
	// server keys duplicate suppression by it. Agents choose it and
	// must keep it stable for the life of their sequence numbering.
	Agent string
}

// AppendHello encodes h.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendString(dst, h.Tenant)
	return appendString(dst, h.Agent)
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (Hello, error) {
	var h Hello
	var err error
	if h.Tenant, p, err = parseString(p, "hello tenant"); err != nil {
		return Hello{}, err
	}
	if h.Agent, p, err = parseString(p, "hello agent"); err != nil {
		return Hello{}, err
	}
	if err := expectEnd(p, "hello"); err != nil {
		return Hello{}, err
	}
	if h.Tenant == "" || h.Agent == "" {
		return Hello{}, fmt.Errorf("%w: hello with empty tenant or agent", ErrProtocol)
	}
	return h, nil
}

// Welcome answers a Hello.
type Welcome struct {
	// LastSeq is the highest profile sequence number the server has
	// merged for this agent — everything at or below it is already
	// aggregated and must not be re-sent.
	LastSeq uint64
	// MaxFrame is the largest frame payload the server accepts on this
	// connection and the largest it sends, so the agent splits its
	// batches to fit it. 0 means DefaultMaxFrame, as in ConnConfig.
	MaxFrame int
}

// maxWelcomeFrame bounds an announced frame limit to what an int holds
// on every platform.
const maxWelcomeFrame = 1<<31 - 1

// AppendWelcome encodes w: its resume point, then its frame limit.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.AppendUvarint(dst, w.LastSeq)
	return binary.AppendUvarint(dst, uint64(max(w.MaxFrame, 0)))
}

// ParseWelcome decodes a Welcome payload. A version-2 Welcome, which
// ends after LastSeq, is a protocol violation.
func ParseWelcome(p []byte) (Welcome, error) {
	last, p, err := parseUvarint(p, "welcome lastSeq")
	if err != nil {
		return Welcome{}, err
	}
	limit, p, err := parseUvarint(p, "welcome maxFrame")
	if err != nil {
		return Welcome{}, err
	}
	if limit > maxWelcomeFrame {
		return Welcome{}, fmt.Errorf("%w: welcome frame limit %d (at most %d)", ErrProtocol, limit, maxWelcomeFrame)
	}
	if err := expectEnd(p, "welcome"); err != nil {
		return Welcome{}, err
	}
	return Welcome{LastSeq: last, MaxFrame: int(limit)}, nil
}

// NackCode classifies a refusal.
type NackCode uint8

const (
	// NackOverloaded: every admission slot stayed taken past the
	// backpressure deadline; the profile was shed and counted in the
	// tenant's drop counters. Retryable.
	NackOverloaded NackCode = 1
	// NackBadProfile: the payload is not a loadable stored profile.
	// Not retryable — re-sending the same bytes cannot succeed.
	NackBadProfile NackCode = 2
	// NackShuttingDown: the server is draining and accepts no new
	// profiles. Retryable against a replacement server.
	NackShuttingDown NackCode = 3
)

// String names a nack code.
func (c NackCode) String() string {
	switch c {
	case NackOverloaded:
		return "overloaded"
	case NackBadProfile:
		return "bad-profile"
	case NackShuttingDown:
		return "shutting-down"
	}
	return fmt.Sprintf("nack(%d)", uint8(c))
}

// MaxBatchEntries bounds the profiles in one batch frame: far above
// what the frame size limit usually admits, low enough that a lying
// count cannot buy an implausible allocation. Senders split larger
// batches (see SplitBatch).
const MaxBatchEntries = 1 << 16

// batchPrealloc caps the entry prealloc so a corrupt count fails on
// parse, not on make.
const batchPrealloc = 1 << 10

// BatchEntry is one profile inside a batch frame.
type BatchEntry struct {
	// Seq is the agent's sequence number for this profile: it starts
	// at 1 and increases for the life of the agent ID, so seqs in one
	// batch are strictly ascending (the watermark protocol depends on
	// in-order application). Epoch selects the aggregation window.
	Seq, Epoch uint64
	// Profile is the opaque stored-profile bytes. On parse it aliases
	// the frame payload.
	Profile []byte
}

// AppendProfileBatch encodes a batch frame payload: an entry count,
// then per entry its seq, epoch, and length-prefixed profile bytes.
func AppendProfileBatch(dst []byte, entries []BatchEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendUvarint(dst, e.Epoch)
		dst = binary.AppendUvarint(dst, uint64(len(e.Profile)))
		dst = append(dst, e.Profile...)
	}
	return dst
}

// SplitBatch returns how many entries, from the front of entries, fit
// in one batch frame whose payload is at most maxFrame bytes and which
// holds at most MaxBatchEntries entries. Zero means the first entry
// cannot travel even alone.
func SplitBatch(entries []BatchEntry, maxFrame int) int {
	size := 0
	for i := range entries {
		if i == MaxBatchEntries {
			return i
		}
		e := &entries[i]
		size += uvarintLen(e.Seq) + uvarintLen(e.Epoch) + uvarintLen(uint64(len(e.Profile))) + len(e.Profile)
		if uvarintLen(uint64(i+1))+size > maxFrame {
			return i
		}
	}
	return len(entries)
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// ParseProfileBatch decodes a batch frame payload. Entry profile bytes
// alias p. Zero-entry batches, non-ascending sequence numbers and
// zero seqs are protocol violations: the server applies a batch as one
// in-order unit against the agent's watermark, so a disordered batch
// could never ack coherently.
func ParseProfileBatch(p []byte) ([]BatchEntry, error) {
	n, p, err := parseUvarint(p, "batch count")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty profile batch", ErrProtocol)
	}
	if n > MaxBatchEntries {
		return nil, fmt.Errorf("%w: batch of %d profiles (limit %d)", ErrProtocol, n, MaxBatchEntries)
	}
	pre := n
	if pre > batchPrealloc {
		pre = batchPrealloc
	}
	entries := make([]BatchEntry, 0, pre)
	for i := uint64(0); i < n; i++ {
		var e BatchEntry
		if e.Seq, p, err = parseUvarint(p, "batch entry seq"); err != nil {
			return nil, err
		}
		if e.Epoch, p, err = parseUvarint(p, "batch entry epoch"); err != nil {
			return nil, err
		}
		if e.Seq == 0 {
			return nil, fmt.Errorf("%w: batch entry seq 0 (sequence numbers start at 1)", ErrProtocol)
		}
		if len(entries) > 0 && e.Seq <= entries[len(entries)-1].Seq {
			return nil, fmt.Errorf("%w: batch seqs not ascending (%d after %d)",
				ErrProtocol, e.Seq, entries[len(entries)-1].Seq)
		}
		var size uint64
		if size, p, err = parseUvarint(p, "batch entry size"); err != nil {
			return nil, err
		}
		if size > uint64(len(p)) {
			return nil, fmt.Errorf("%w: batch entry %d ends early (%d bytes declared, %d left)",
				ErrProtocol, i, size, len(p))
		}
		e.Profile, p = p[:size], p[size:]
		entries = append(entries, e)
	}
	if err := expectEnd(p, "profile batch"); err != nil {
		return nil, err
	}
	return entries, nil
}

// BatchStatus is one entry's outcome inside a batch ack.
type BatchStatus uint8

const (
	// BatchMerged: the entry was merged now.
	BatchMerged BatchStatus = 0
	// BatchDuplicate: the entry was already merged by an earlier send.
	BatchDuplicate BatchStatus = 1
	// BatchNacked: the entry was refused; Code and Msg say why.
	BatchNacked BatchStatus = 2
)

// String names a batch status.
func (s BatchStatus) String() string {
	switch s {
	case BatchMerged:
		return "merged"
	case BatchDuplicate:
		return "duplicate"
	case BatchNacked:
		return "nacked"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// BatchVerdict is one entry's verdict in a batch ack, in batch order.
type BatchVerdict struct {
	// Seq echoes the entry's sequence number.
	Seq uint64
	// Status is the outcome.
	Status BatchStatus
	// Code classifies a refusal; only meaningful when Status is
	// BatchNacked.
	Code NackCode
	// Msg carries optional refusal detail. AppendAckBatch clips it to
	// maxNameLen bytes, the most parseString accepts.
	Msg string
}

// AppendAckBatch encodes a batch ack payload.
func AppendAckBatch(dst []byte, verdicts []BatchVerdict) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(verdicts)))
	for i := range verdicts {
		v := &verdicts[i]
		dst = binary.AppendUvarint(dst, v.Seq)
		dst = binary.AppendUvarint(dst, uint64(v.Status))
		if v.Status == BatchNacked {
			dst = binary.AppendUvarint(dst, uint64(v.Code))
			dst = appendString(dst, clipUTF8(v.Msg, maxNameLen))
		}
	}
	return dst
}

// clipUTF8 returns the longest prefix of s that is at most n bytes and
// does not split a UTF-8 sequence.
func clipUTF8(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// ParseAckBatch decodes a batch ack payload.
func ParseAckBatch(p []byte) ([]BatchVerdict, error) {
	n, p, err := parseUvarint(p, "ack-batch count")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty batch ack", ErrProtocol)
	}
	if n > MaxBatchEntries {
		return nil, fmt.Errorf("%w: batch ack of %d verdicts (limit %d)", ErrProtocol, n, MaxBatchEntries)
	}
	pre := n
	if pre > batchPrealloc {
		pre = batchPrealloc
	}
	verdicts := make([]BatchVerdict, 0, pre)
	for i := uint64(0); i < n; i++ {
		var v BatchVerdict
		if v.Seq, p, err = parseUvarint(p, "ack-batch seq"); err != nil {
			return nil, err
		}
		var status uint64
		if status, p, err = parseUvarint(p, "ack-batch status"); err != nil {
			return nil, err
		}
		if status > uint64(BatchNacked) {
			return nil, fmt.Errorf("%w: batch verdict status %d", ErrProtocol, status)
		}
		v.Status = BatchStatus(status)
		if v.Status == BatchNacked {
			var code uint64
			if code, p, err = parseUvarint(p, "ack-batch code"); err != nil {
				return nil, err
			}
			if code == 0 || code > 255 {
				return nil, fmt.Errorf("%w: batch nack code %d", ErrProtocol, code)
			}
			v.Code = NackCode(code)
			if v.Msg, p, err = parseString(p, "ack-batch message"); err != nil {
				return nil, err
			}
		}
		verdicts = append(verdicts, v)
	}
	if err := expectEnd(p, "ack batch"); err != nil {
		return nil, err
	}
	return verdicts, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// parseString consumes one length-prefixed string.
func parseString(p []byte, what string) (string, []byte, error) {
	n, p, err := parseUvarint(p, what)
	if err != nil {
		return "", nil, err
	}
	if n > maxNameLen {
		return "", nil, fmt.Errorf("%w: %s length %d (limit %d)", ErrProtocol, what, n, maxNameLen)
	}
	if uint64(len(p)) < n {
		return "", nil, fmt.Errorf("%w: %s ends early", ErrProtocol, what)
	}
	return string(p[:n]), p[n:], nil
}

// parseUvarint consumes one uvarint.
func parseUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: %s is not a valid uvarint", ErrProtocol, what)
	}
	return v, p[n:], nil
}

// expectEnd rejects trailing payload bytes: a longer-than-expected
// message means the peer speaks a dialect this build does not.
func expectEnd(p []byte, what string) error {
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrProtocol, len(p), what)
	}
	return nil
}
