package fleetserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
)

// TestBatchSplitsToAnnouncedLimit pins that the server's frame limit
// is the only one: a client with no frame setting learns it from the
// Welcome and splits a batch of small profiles to fit, so every
// profile merges exactly once over one connection, with no retry and
// nothing counted corrupt.
func TestBatchSplitsToAnnouncedLimit(t *testing.T) {
	const maxFrame = 4096
	s := startServer(t, Config{MaxFrame: maxFrame})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(29))
	var sent []*profstore.Profile
	var items []BatchItem
	total := 0
	for i := 0; i < 103; i++ {
		p := testProfile(rng, "gcc")
		data := saveBytes(t, p)
		if len(data) >= maxFrame {
			t.Fatalf("profile %d is %d bytes; the test needs small profiles", i, len(data))
		}
		total += len(data)
		sent = append(sent, p)
		items = append(items, BatchItem{Epoch: 1, Payload: data})
	}
	if total <= 2*maxFrame {
		t.Fatalf("batch is %d bytes; the test needs more than two frames' worth", total)
	}
	if err := c.SendBatchBytes(ctx, items); err != nil {
		t.Fatalf("SendBatchBytes: %v", err)
	}
	st := c.Stats()
	if st.Dials != 1 || st.ConnErrors != 0 || st.Retries != 0 || st.Sent != 103 || st.Acked != 103 {
		t.Fatalf("client stats = %+v, want 103 sent and acked over one dial", st)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 103 || ts.Duplicates != 0 || ts.Corrupt != 0 || ts.Batches < 3 {
		t.Fatalf("ledger = %+v, want 103 merged over at least 3 frames, none corrupt", ts)
	}
	got := s.Snapshot("acme", 1)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent...))) {
		t.Fatal("snapshot diverges from the offline merge of the split batch")
	}
}

// TestProfileOverAnnouncedLimitFailsAtOnce pins the permanent failure
// against the announced limit: a batch holding a profile the server's
// frame cannot carry fails with ErrFrameTooLarge before anything is
// sent, on the connection Dial opened.
func TestProfileOverAnnouncedLimitFailsAtOnce(t *testing.T) {
	const maxFrame = 4096
	s := startServer(t, Config{MaxFrame: maxFrame})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	good := saveBytes(t, testProfile(rand.New(rand.NewSource(30)), "gcc"))
	items := []BatchItem{{Epoch: 1, Payload: good}, {Epoch: 1, Payload: make([]byte, 2*maxFrame)}}
	if err := c.SendBatchBytes(ctx, items); !errors.Is(err, fleetwire.ErrFrameTooLarge) {
		t.Fatalf("batch with a profile over the announced limit = %v, want ErrFrameTooLarge", err)
	}
	if st := c.Stats(); st.Sent != 0 || st.Dials != 1 || st.Retries != 0 || st.ConnErrors != 0 {
		t.Fatalf("client stats = %+v, want nothing sent over the one dial", st)
	}
	if ts := tenantStats(t, s, "acme"); ts.Corrupt != 0 || ts.Merged != 0 {
		t.Fatalf("ledger = %+v, want nothing merged and nothing corrupt", ts)
	}
}

// TestRedialToSmallerAnnouncedLimitFailsUnsent pins the limit's life:
// it is the one the latest handshake announced. A client re-dialled to
// a server with a smaller limit fails the entries still unsent with
// ErrFrameTooLarge after that one re-dial, instead of retrying a frame
// the new server must refuse; it then keeps sending what fits.
func TestRedialToSmallerAnnouncedLimitFailsUnsent(t *testing.T) {
	const maxFrame = 4096
	large := startServer(t, Config{})
	small := startServer(t, Config{MaxFrame: maxFrame})
	var (
		mu     sync.Mutex
		target = large.Addr().String()
		live   net.Conn
	)
	dialer := func(ctx context.Context, _ string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		c, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", target)
		live = c
		return c, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, "fleet", ClientConfig{Tenant: "acme", Agent: "host-1", Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(31))
	first, last := testProfile(rng, "gcc"), testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, first); err != nil {
		t.Fatalf("send to the first server: %v", err)
	}

	// Move the agent: the next send finds its connection dropped and
	// re-dials the server with the smaller limit.
	mu.Lock()
	target = small.Addr().String()
	live.Close()
	mu.Unlock()

	items := []BatchItem{
		{Epoch: 1, Payload: saveBytes(t, first)},
		{Epoch: 1, Payload: make([]byte, 2*maxFrame)},
		{Epoch: 1, Payload: saveBytes(t, last)},
	}
	if err := c.SendBatchBytes(ctx, items); !errors.Is(err, fleetwire.ErrFrameTooLarge) {
		t.Fatalf("batch after the re-dial = %v, want ErrFrameTooLarge", err)
	}
	if st := c.Stats(); st.Dials != 2 || st.Retries != 1 || st.ConnErrors != 1 || st.Sent != 1 {
		t.Fatalf("client stats = %+v, want one retry to re-dial and nothing more sent", st)
	}
	if ts := tenantStats(t, small, "acme"); ts.Merged != 0 || ts.Corrupt != 0 {
		t.Fatalf("second server's ledger = %+v, want nothing merged and nothing corrupt", ts)
	}

	if err := c.Send(ctx, 2, last); err != nil {
		t.Fatalf("send that fits the smaller limit: %v", err)
	}
	if st := c.Stats(); st.Dials != 2 || st.Acked != 2 {
		t.Fatalf("client stats = %+v, want the follow-up acked on the same connection", st)
	}
	got := small.Snapshot("acme", 2)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, last)) {
		t.Fatal("second server's snapshot diverges from the one profile that fit")
	}
}

// TestOldPeerVersion2PreambleFailsHandshake pins what a version-2
// agent sees: its Welcome would lack the frame limit, so its preamble
// is version skew, counted as a handshake failure — not as a corrupt
// frame in any tenant's ledger.
func TestOldPeerVersion2PreambleFailsHandshake(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: time.Second})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	v2 := binary.LittleEndian.AppendUint32([]byte(fleetwire.Magic), 2)
	v2 = fleetwire.AppendFrame(v2, fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "old"}))
	if _, err := conn.Write(v2); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatal("server answered a version-2 preamble")
	}
	waitFor(t, "handshake failure", func() bool { return s.Stats().HandshakeFailures == 1 })
	for _, ts := range s.Stats().Tenants {
		if ts.Corrupt != 0 || ts.Merged != 0 {
			t.Fatalf("version-2 peer landed in a tenant ledger: %+v", ts)
		}
	}
}
