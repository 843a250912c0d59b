package fleetserver

// The chaos suite: every test here drives the ingest tier through
// injected transport faults (fleetwire.FlakyConn) and asserts the
// accounting invariants the package documents. Test names share the
// TestChaos prefix so CI can smoke exactly this suite under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
)

// flakyDialer returns a Dialer whose every connection misbehaves with
// a distinct deterministic seed derived from base.
func flakyDialer(base int64, f fleetwire.Faults) func(ctx context.Context, addr string) (net.Conn, error) {
	var n atomic.Int64
	d := &net.Dialer{Timeout: 5 * time.Second}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		ff := f
		ff.Seed = base*1000003 + n.Add(1)
		return fleetwire.NewFlakyConn(c, ff), nil
	}
}

// countGoroutines waits for the goroutine count to settle back to at
// most base plus slack — the no-leak half of the chaos contract.
func countGoroutines(t *testing.T, base int, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutines leaked: %d now vs %d at start\n%s", n, base, buf)
}

// TestChaosAccountingUnderFaults is the keystone invariant test: many
// agents push profiles through connections that chunk writes, flip
// bits and inject resets; every Send retries until confirmed; and the
// post-chaos snapshot must be bit-identical to an offline
// profstore.Merge of exactly the profiles that were confirmed. No
// panic, no leak, no silent loss, no double merge — under -race.
func TestChaosAccountingUnderFaults(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Faults on the server side of every conn too: chaos on both ends.
	s := Serve(fleetwire.NewFlakyListener(ln, fleetwire.Faults{
		Seed:          71,
		MaxWriteChunk: 9,
	}), Config{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})

	const agents, each = 10, 12
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	profiles := make([][]*profstore.Profile, agents)
	for a := range profiles {
		rng := rand.New(rand.NewSource(int64(700 + a)))
		for i := 0; i < each; i++ {
			profiles[a] = append(profiles[a], testProfile(rng, "gcc"))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c, err := Dial(ctx, ln.Addr().String(), ClientConfig{
				Tenant: "acme",
				Agent:  fmt.Sprintf("host-%d", a),
				Dialer: flakyDialer(int64(a), fleetwire.Faults{
					MaxWriteChunk: 7,
					CorruptProb:   0.01,
					ResetProb:     0.01,
				}),
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
				Seed:        int64(a + 1),
			})
			if err != nil {
				errs <- fmt.Errorf("agent %d dial: %w", a, err)
				return
			}
			defer c.Close()
			for i, p := range profiles[a] {
				if err := c.Send(ctx, uint64(1+i%3), p); err != nil {
					errs <- fmt.Errorf("agent %d send %d: %w", a, i, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every Send was confirmed, so the offline merge of everything
	// sent is exactly what the server must hold — per epoch.
	for epoch := uint64(1); epoch <= 3; epoch++ {
		var want []*profstore.Profile
		for a := range profiles {
			for i, p := range profiles[a] {
				if uint64(1+i%3) == epoch {
					want = append(want, p)
				}
			}
		}
		got := s.Snapshot("acme", epoch)
		if got == nil {
			t.Fatalf("no snapshot for epoch %d", epoch)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(want...))) {
			t.Errorf("epoch %d: post-chaos snapshot diverges from offline merge of the acked profiles", epoch)
		}
	}

	// Ledger coherence: every confirmed profile merged exactly once.
	ts := tenantStats(t, s, "acme")
	if ts.Merged != agents*each {
		t.Errorf("merged = %d, want exactly %d (no loss, no double merge)", ts.Merged, agents*each)
	}
	// Client-side: confirmations equal profiles, however they arrived.
	// (Duplicate acks re-confirm an existing merge and are counted
	// within Acked; resume skips are confirmations without an ack.)

	// Graceful shutdown must drain cleanly even after chaos.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	countGoroutines(t, baseGoroutines, 4)
}

// TestChaosOverloadShedsAreCounted forces deterministic overload — a
// one-deep queue, one deliberately slow worker, no-retry clients — and
// pins the exact accounting equality: server-side Shed equals the
// overload refusals clients observed, and the snapshot equals the
// offline merge of exactly the successful Sends.
func TestChaosOverloadShedsAreCounted(t *testing.T) {
	s := startServer(t, Config{
		Queue:           1,
		Workers:         1,
		EnqueueWait:     time.Millisecond,
		testIngestDelay: 10 * time.Millisecond,
	})
	ctx := context.Background()
	const agents, each = 8, 6

	var (
		mu        sync.Mutex
		delivered []*profstore.Profile
		overloads uint64
	)
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c, err := Dial(ctx, s.Addr().String(), ClientConfig{
				Tenant:      "acme",
				Agent:       fmt.Sprintf("host-%d", a),
				MaxAttempts: 1, // observe every shed instead of retrying it away
			})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(900 + a)))
			for i := 0; i < each; i++ {
				p := testProfile(rng, "gcc")
				err := c.Send(ctx, 1, p)
				mu.Lock()
				switch {
				case err == nil:
					delivered = append(delivered, p)
				case errors.Is(err, ErrOverloaded):
					overloads++
				default:
					mu.Unlock()
					errs <- fmt.Errorf("agent %d: unexpected error: %w", a, err)
					return
				}
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if overloads == 0 {
		t.Fatal("overload scenario produced no sheds; the test lost its teeth")
	}
	ts := tenantStats(t, s, "acme")
	if ts.Shed != overloads {
		t.Errorf("server shed ledger = %d, clients observed %d overload refusals — every drop must be accounted",
			ts.Shed, overloads)
	}
	if ts.Merged != uint64(len(delivered)) {
		t.Errorf("merged = %d, want %d (the successful Sends)", ts.Merged, len(delivered))
	}
	got := s.Snapshot("acme", 1)
	if len(delivered) == 0 {
		if got != nil {
			t.Fatal("nothing delivered but snapshot non-nil")
		}
		return
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(delivered...))) {
		t.Error("snapshot diverges from offline merge of exactly the successful Sends")
	}
}

// TestChaosExactlyOnceAcrossReset injects the nastiest retry shape: the
// connection dies after the profile frame is delivered but before the
// ack comes back. The client must learn the truth on redial — from the
// handshake resume point or a duplicate ack — and the profile must
// merge exactly once.
func TestChaosExactlyOnceAcrossReset(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()

	// First connection: write 1 is the handshake flush, write 2 is the
	// profile frame — delivered in full, then the conn is cut before
	// the ack can be read. Later dials are clean.
	var dials atomic.Int64
	d := &net.Dialer{Timeout: 5 * time.Second}
	dialer := func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return fleetwire.NewFlakyConn(c, fleetwire.Faults{Seed: 11, CutAfterWrites: 2}), nil
		}
		return c, nil
	}

	c, err := Dial(ctx, s.Addr().String(), ClientConfig{
		Tenant: "acme", Agent: "host-1", Dialer: dialer,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(8))
	p := testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, p); err != nil {
		t.Fatalf("send across reset: %v", err)
	}

	st := c.Stats()
	if st.Dials < 2 {
		t.Fatalf("client stats = %+v, want a redial after the injected cut", st)
	}
	if st.ResumeSkipped+st.DuplicateAcks == 0 {
		t.Fatalf("client stats = %+v, want the redelivery confirmed via resume point or duplicate ack", st)
	}
	// Exactly once: the ledger shows one merge, and the snapshot is
	// the profile itself — not a doubled merge of it.
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 1 {
		t.Fatalf("merged = %d, want exactly 1", ts.Merged)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(p))) {
		t.Fatal("snapshot is not the single profile — the reset double-merged or lost it")
	}

	// The next Send proceeds normally on the healed connection.
	p2 := testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, p2); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	if ts := tenantStats(t, s, "acme"); ts.Merged != 2 {
		t.Fatalf("merged = %d after second send, want 2", ts.Merged)
	}
}

// TestChaosMidHandshakeDrops cuts connections during the handshake —
// mid-preamble and mid-hello — and pins that the server counts the
// failures, survives, and the client's retry loop eventually lands a
// clean handshake.
func TestChaosMidHandshakeDrops(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: time.Second, WriteTimeout: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Cut after 4 bytes: mid-preamble, before the hello completes.
	const flakyDials = 3
	var dials atomic.Int64
	d := &net.Dialer{Timeout: 5 * time.Second}
	dialer := func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if n := dials.Add(1); n <= flakyDials {
			return fleetwire.NewFlakyConn(c, fleetwire.Faults{Seed: n, CutAfterBytes: 4, MaxWriteChunk: 2}), nil
		}
		return c, nil
	}

	c, err := Dial(ctx, s.Addr().String(), ClientConfig{
		Tenant: "acme", Agent: "host-1", Dialer: dialer,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial through handshake drops: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(9))
	p := testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, p); err != nil {
		t.Fatalf("send after handshake chaos: %v", err)
	}
	if st := c.Stats(); st.Dials != 1 || st.ConnErrors < flakyDials {
		t.Fatalf("client stats = %+v, want %d failed handshakes then 1 dial", st, flakyDials)
	}
	// The server eventually counts every cut handshake; the cut conns
	// may still be timing out, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.HandshakeFailures >= flakyDials {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats = %+v, want >= %d handshake failures", s.Stats(), flakyDials)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Equal(saveBytes(t, s.Snapshot("acme", 1)), saveBytes(t, profstore.Merge(p))) {
		t.Fatal("snapshot diverged")
	}
}

// TestChaosSlowLoris parks a connection that trickles half a frame and
// stops. The server's read deadline must reap it — the conn closes and
// the handler goroutine exits instead of waiting forever.
func TestChaosSlowLoris(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, Config{ReadTimeout: 100 * time.Millisecond, WriteTimeout: time.Second})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{ReadTimeout: 5 * time.Second, WriteTimeout: time.Second})
	if err := wc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "loris"})); err != nil {
		t.Fatal(err)
	}
	if err := wc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != fleetwire.FrameWelcome {
		t.Fatalf("welcome = %v, %v", typ, err)
	}

	// Trickle half a profile frame, then go silent.
	full := fleetwire.AppendFrame(nil, fleetwire.FrameProfileBatch,
		fleetwire.AppendProfileBatch(nil, []fleetwire.BatchEntry{{Seq: 1, Epoch: 1, Profile: []byte("xxxx")}}))
	if _, err := conn.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}

	// The server must hang up within its read deadline (plus slack).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a half-frame with data")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not reap the slow-loris connection")
	}
	countGoroutines(t, baseGoroutines, 4)
}

// TestChaosGracefulShutdownDrains stops the server mid-stream and pins
// the drain contract: Shutdown returns cleanly, every profile whose
// Send was confirmed is in the final snapshot (bit-identical offline
// merge), unconfirmed Sends are genuinely absent, and nothing leaks.
func TestChaosGracefulShutdownDrains(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, Config{})
	const agents = 6

	var (
		mu        sync.Mutex
		delivered []*profstore.Profile
	)
	start := make(chan struct{})
	confirmed := make(chan struct{})
	var confirmOnce sync.Once
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c, err := Dial(ctx, ln.Addr().String(), ClientConfig{
				Tenant: "acme", Agent: fmt.Sprintf("host-%d", a),
				BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
				MaxAttempts: 5,
			})
			if err != nil {
				return
			}
			defer c.Close()
			<-start
			rng := rand.New(rand.NewSource(int64(1100 + a)))
			for i := 0; i < 50; i++ {
				p := testProfile(rng, "gcc")
				if err := c.Send(ctx, 1, p); err != nil {
					return // shutdown reached this agent
				}
				mu.Lock()
				delivered = append(delivered, p)
				mu.Unlock()
				confirmOnce.Do(func() { close(confirmed) })
			}
		}(a)
	}

	close(start)
	// Shut down mid-stream: as soon as one Send is confirmed, while the
	// other agents are still sending.
	select {
	case <-confirmed:
	case <-time.After(10 * time.Second):
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) == 0 {
		t.Fatal("shutdown landed before any profile was confirmed; widen the sleep")
	}
	got := s.Snapshot("acme", 1)
	if got == nil {
		t.Fatal("confirmed profiles but no snapshot")
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(delivered...))) {
		t.Fatal("post-drain snapshot diverges from the confirmed profiles: a drained ingest was lost or an unconfirmed one leaked in")
	}
	countGoroutines(t, baseGoroutines, 4)

	// After shutdown the address refuses connections.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestChaosCorruptFramesAreCountedNotMerged sends deliberately
// CRC-broken frames and pins that they land in the corruption ledger,
// never in merged state, and the server survives them.
func TestChaosCorruptFramesAreCountedNotMerged(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: time.Second})

	// Handshake by hand, then send a frame with a flipped payload bit.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{ReadTimeout: 5 * time.Second, WriteTimeout: time.Second})
	if err := wc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "evil"})); err != nil {
		t.Fatal(err)
	}
	if err := wc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != fleetwire.FrameWelcome {
		t.Fatalf("welcome = %v, %v", typ, err)
	}
	rng := rand.New(rand.NewSource(10))
	frame := fleetwire.AppendFrame(nil, fleetwire.FrameProfileBatch,
		fleetwire.AppendProfileBatch(nil, []fleetwire.BatchEntry{{Seq: 1, Epoch: 1,
			Profile: saveBytes(t, testProfile(rng, "gcc"))}}))
	frame[len(frame)/2] ^= 0x10
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server hangs up on corruption (framing is unrecoverable).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	io := make([]byte, 64)
	if _, err := conn.Read(io); err == nil {
		t.Fatal("server kept talking after a corrupt frame")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		ts := tenantStats(t, s, "acme")
		if ts.Corrupt >= 1 {
			if ts.Merged != 0 {
				t.Fatalf("ledger = %+v: corrupt frame reached the aggregator", ts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corruption never counted: %+v", tenantStats(t, s, "acme"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Snapshot("acme", 1) != nil {
		t.Fatal("corrupt frame produced merged state")
	}
}

// TestChaosErrorsAreInjectedShaped sanity-pins that the chaos
// machinery itself is what the retry loop sees: a cut conn's error
// chain carries fleetwire.ErrInjected, so genuine transport bugs can
// never hide behind injected ones in these tests.
func TestChaosErrorsAreInjectedShaped(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := fleetwire.NewFlakyConn(a, fleetwire.Faults{Seed: 1, CutAfterWrites: 1})
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := fc.Write([]byte("x")); !errors.Is(err, fleetwire.ErrInjected) {
		t.Fatalf("cut error = %v, want ErrInjected in the chain", err)
	}
	var opErr *net.OpError
	if _, err := fc.Write([]byte("y")); !errors.As(err, &opErr) || !strings.Contains(opErr.Net, "flaky") {
		t.Fatalf("injected error should look like a net.OpError from the flaky transport, got %v", err)
	}
}
