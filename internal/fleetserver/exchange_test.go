package fleetserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
)

// handshakeByHand dials s and completes a current-version handshake
// for tenant "acme", returning the raw conn and its framed wrapper.
func handshakeByHand(t *testing.T, s *Server, agent string) (net.Conn, *fleetwire.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{ReadTimeout: 5 * time.Second, WriteTimeout: time.Second})
	if err := wc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: agent})); err != nil {
		t.Fatal(err)
	}
	if err := wc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != fleetwire.FrameWelcome {
		t.Fatalf("welcome = %v, %v", typ, err)
	}
	return conn, wc
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOldPeerVersion1PreambleFailsHandshake pins what a version-1
// agent sees: its preamble is version skew, counted as a handshake
// failure — not as a corrupt frame in any tenant's ledger.
func TestOldPeerVersion1PreambleFailsHandshake(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: time.Second})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	v1 := binary.LittleEndian.AppendUint32([]byte(fleetwire.Magic), 1)
	v1 = fleetwire.AppendFrame(v1, fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "old"}))
	if _, err := conn.Write(v1); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatal("server answered a version-1 preamble")
	}
	waitFor(t, "handshake failure", func() bool { return s.Stats().HandshakeFailures == 1 })
	for _, ts := range s.Stats().Tenants {
		if ts.Corrupt != 0 || ts.Merged != 0 {
			t.Fatalf("version-1 peer landed in a tenant ledger: %+v", ts)
		}
	}
}

// TestOldPeerSingleProfileFrameIsCorrupt pins what a version-1 frame
// type sees after a current handshake: type 3 (version 1's
// single-profile frame) is a protocol violation, counted Corrupt, and
// merges nothing.
func TestOldPeerSingleProfileFrameIsCorrupt(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: time.Second})
	conn, wc := handshakeByHand(t, s, "old")
	rng := rand.New(rand.NewSource(21))
	// Version 1's profile payload: uvarint seq, uvarint epoch, profile.
	payload := append([]byte{1, 1}, saveBytes(t, testProfile(rng, "gcc"))...)
	if err := wc.WriteFrame(fleetwire.FrameType(3), payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatal("server answered a type-3 frame")
	}
	waitFor(t, "corrupt count", func() bool { return tenantStats(t, s, "acme").Corrupt == 1 })
	if ts := tenantStats(t, s, "acme"); ts.Merged != 0 {
		t.Fatalf("ledger = %+v: a type-3 frame merged", ts)
	}
	if s.Snapshot("acme", 1) != nil {
		t.Fatal("a type-3 frame produced merged state")
	}
}

// TestBatchLargerThanFrameIsSplit pins that a batch whose encoding
// exceeds MaxFrame travels as several frames over one connection:
// every profile merges exactly once, with no retry and no re-dial.
func TestBatchLargerThanFrameIsSplit(t *testing.T) {
	const maxFrame = 4096
	s := startServer(t, Config{MaxFrame: maxFrame})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1", MaxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(22))
	var sent []*profstore.Profile
	total := 0
	for i := 0; i < 107; i++ {
		p := testProfile(rng, "gcc")
		total += len(saveBytes(t, p))
		sent = append(sent, p)
	}
	if total <= 2*maxFrame {
		t.Fatalf("batch is %d bytes; the test needs more than two frames' worth", total)
	}
	if err := c.SendBatch(ctx, 1, sent); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	st := c.Stats()
	if st.Dials != 1 || st.Sent != 107 || st.Acked != 107 || st.Retries != 0 || st.ConnErrors != 0 {
		t.Fatalf("client stats = %+v, want 107 sent and acked over one dial", st)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 107 || ts.Duplicates != 0 || ts.Batches < 3 {
		t.Fatalf("ledger = %+v, want 107 merged over at least 3 frames", ts)
	}
	got := s.Snapshot("acme", 1)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent...))) {
		t.Fatal("snapshot diverges from the offline merge of the split batch")
	}
}

// TestBatchOverEntryLimitIsSplit pins the other frame bound: a batch
// of more than fleetwire.MaxBatchEntries profiles splits at the entry
// limit instead of sending a frame the server must refuse.
func TestBatchOverEntryLimitIsSplit(t *testing.T) {
	s := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := saveBytes(t, profstore.Canonical(&profstore.Profile{}))
	items := make([]BatchItem, fleetwire.MaxBatchEntries+1)
	for i := range items {
		items[i] = BatchItem{Epoch: 1, Payload: payload}
	}
	if err := c.SendBatchBytes(ctx, items); err != nil {
		t.Fatalf("SendBatchBytes: %v", err)
	}
	if st := c.Stats(); st.Dials != 1 || st.Acked != uint64(len(items)) || st.Retries != 0 {
		t.Fatalf("client stats = %+v", st)
	}
	if ts := tenantStats(t, s, "acme"); ts.Merged != uint64(len(items)) || ts.Batches != 2 {
		t.Fatalf("ledger = %+v, want %d merged over 2 frames", ts, len(items))
	}
}

// TestProfileTooLargeForAnyFrame pins the permanent failure: a profile
// that cannot fit a frame even alone fails at once with
// ErrFrameTooLarge — no retry, no dropped connection, no sequence
// number spent — and takes its whole batch with it unsent.
func TestProfileTooLargeForAnyFrame(t *testing.T) {
	const maxFrame = 4096
	s := startServer(t, Config{MaxFrame: maxFrame})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1", MaxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	huge := make([]byte, maxFrame)
	if err := c.SendBytes(ctx, 1, huge); !errors.Is(err, fleetwire.ErrFrameTooLarge) {
		t.Fatalf("oversized SendBytes = %v, want ErrFrameTooLarge", err)
	}
	rng := rand.New(rand.NewSource(23))
	good := testProfile(rng, "gcc")
	items := []BatchItem{{Epoch: 1, Payload: saveBytes(t, good)}, {Epoch: 1, Payload: huge}}
	if err := c.SendBatchBytes(ctx, items); !errors.Is(err, fleetwire.ErrFrameTooLarge) {
		t.Fatalf("batch with an oversized item = %v, want ErrFrameTooLarge", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Sent != 0 || st.ConnErrors != 0 || st.Dials != 1 {
		t.Fatalf("client stats = %+v, want no retry, no send, no re-dial", st)
	}

	// The connection and the sequence stream are still healthy.
	if err := c.Send(ctx, 1, good); err != nil {
		t.Fatalf("send after refusal: %v", err)
	}
	if st := c.Stats(); st.Dials != 1 || st.Acked != 1 {
		t.Fatalf("client stats = %+v, want the follow-up on the same connection", st)
	}
	got := s.Snapshot("acme", 1)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(good))) {
		t.Fatal("snapshot diverges: an oversized profile leaked into merged state")
	}
}
