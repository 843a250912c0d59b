package fleetserver

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"hbbp/internal/fleetwire"
	"hbbp/internal/profstore"
)

// TestBatchRoundTrip pins the batched happy path: one SendBatch, one
// round trip, every profile merged, and the snapshot bit-identical to
// the offline merge.
func TestBatchRoundTrip(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(11))
	var sent []*profstore.Profile
	for i := 0; i < 8; i++ {
		sent = append(sent, testProfile(rng, "gcc"))
	}
	if err := c.SendBatch(ctx, 7, sent); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}

	got := s.Snapshot("acme", 7)
	if got == nil {
		t.Fatal("no snapshot for acme/7")
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(sent...))) {
		t.Fatal("snapshot diverges from offline merge of the batched profiles")
	}
	st := c.Stats()
	if st.Acked != 8 || st.Sent != 8 {
		t.Fatalf("client stats = %+v, want 8 acked", st)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 8 || ts.Batches != 1 || ts.Rejected != 0 || ts.Shed != 0 {
		t.Fatalf("tenant ledger = %+v, want 8 merges in 1 batch", ts)
	}
}

// TestBatchMixedEpochs pins that one batch can span epochs: each entry
// lands in its own epoch's aggregator.
func TestBatchMixedEpochs(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(12))
	p3, p4 := testProfile(rng, "gcc"), testProfile(rng, "gcc")
	items := []BatchItem{
		{Epoch: 3, Payload: saveBytes(t, p3)},
		{Epoch: 4, Payload: saveBytes(t, p4)},
	}
	if err := c.SendBatchBytes(ctx, items); err != nil {
		t.Fatalf("SendBatchBytes: %v", err)
	}
	for epoch, want := range map[uint64]*profstore.Profile{3: p3, 4: p4} {
		got := s.Snapshot("acme", epoch)
		if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(want))) {
			t.Fatalf("epoch %d snapshot wrong", epoch)
		}
	}
}

// TestBatchMixedBadProfile pins the partial-failure contract: a batch
// with an unloadable entry still merges its good entries exactly once,
// the send reports ErrRejected, and the agent's sequence stream stays
// usable afterwards.
func TestBatchMixedBadProfile(t *testing.T) {
	s := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(13))
	good1, good2 := testProfile(rng, "gcc"), testProfile(rng, "gcc")
	items := []BatchItem{
		{Epoch: 1, Payload: saveBytes(t, good1)},
		{Epoch: 1, Payload: []byte("not a profile")},
		{Epoch: 1, Payload: saveBytes(t, good2)},
	}
	err = c.SendBatchBytes(ctx, items)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("SendBatchBytes = %v, want ErrRejected", err)
	}

	got := s.Snapshot("acme", 1)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(good1, good2))) {
		t.Fatal("good batch entries did not merge around the rejected one")
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 2 || ts.Rejected != 1 {
		t.Fatalf("ledger = %+v, want 2 merged 1 rejected", ts)
	}

	// The stream continues: a follow-up single send merges normally.
	late := testProfile(rng, "gcc")
	if err := c.Send(ctx, 1, late); err != nil {
		t.Fatalf("send after mixed batch: %v", err)
	}
	got = s.Snapshot("acme", 1)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(good1, good2, late))) {
		t.Fatal("post-batch send diverged")
	}
}

// TestBatchDuplicateSuppression drives the wire directly to pin the
// server's watermark semantics for batches: re-sent entries answer
// duplicate without a second merge, new entries merge.
func TestBatchDuplicateSuppression(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	wc := fleetwire.NewConn(conn, fleetwire.ConnConfig{
		ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	defer wc.Close()
	if err := wc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(fleetwire.FrameHello,
		fleetwire.AppendHello(nil, fleetwire.Hello{Tenant: "acme", Agent: "raw"})); err != nil {
		t.Fatal(err)
	}
	if err := wc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wc.ReadFrame(); err != nil || typ != fleetwire.FrameWelcome {
		t.Fatalf("welcome: %v %v", typ, err)
	}

	rng := rand.New(rand.NewSource(14))
	payloads := [][]byte{
		saveBytes(t, testProfile(rng, "gcc")),
		saveBytes(t, testProfile(rng, "gcc")),
		saveBytes(t, testProfile(rng, "gcc")),
	}
	sendBatch := func(entries []fleetwire.BatchEntry) []fleetwire.BatchVerdict {
		t.Helper()
		if err := wc.WriteFrame(fleetwire.FrameProfileBatch,
			fleetwire.AppendProfileBatch(nil, entries)); err != nil {
			t.Fatal(err)
		}
		typ, p, err := wc.ReadFrame()
		if err != nil || typ != fleetwire.FrameAckBatch {
			t.Fatalf("batch ack: %v %v", typ, err)
		}
		verdicts, err := fleetwire.ParseAckBatch(p)
		if err != nil {
			t.Fatal(err)
		}
		return verdicts
	}

	first := sendBatch([]fleetwire.BatchEntry{
		{Seq: 1, Epoch: 1, Profile: payloads[0]},
		{Seq: 2, Epoch: 1, Profile: payloads[1]},
	})
	for i, v := range first {
		if v.Status != fleetwire.BatchMerged {
			t.Fatalf("first batch verdict %d = %v", i, v.Status)
		}
	}
	// Re-send seq 2 (its ack "was lost") alongside new seq 3.
	second := sendBatch([]fleetwire.BatchEntry{
		{Seq: 2, Epoch: 1, Profile: payloads[1]},
		{Seq: 3, Epoch: 1, Profile: payloads[2]},
	})
	if second[0].Status != fleetwire.BatchDuplicate || second[1].Status != fleetwire.BatchMerged {
		t.Fatalf("second batch verdicts = %v %v, want duplicate then merged",
			second[0].Status, second[1].Status)
	}

	var want []*profstore.Profile
	for _, p := range payloads {
		prof, err := profstore.LoadBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, prof)
	}
	got := s.Snapshot("acme", 1)
	if got == nil || !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(want...))) {
		t.Fatal("snapshot diverges: duplicate batch entry merged twice or new entry lost")
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != 3 || ts.Duplicates != 1 || ts.Batches != 2 {
		t.Fatalf("ledger = %+v, want 3 merged 1 duplicate over 2 batches", ts)
	}
}

// benchWireIngestBatch is benchWireIngest with batched delivery: each
// round trip carries batchSize profiles.
func benchWireIngestBatch(b *testing.B, agents, batchSize int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := Serve(ln, Config{Queue: 256})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	rng := rand.New(rand.NewSource(1))
	payload := saveBytes(b, testProfile(rng, "gcc"))
	ctx := context.Background()

	clients := make([]*Client, agents)
	for a := range clients {
		c, err := Dial(ctx, ln.Addr().String(), ClientConfig{
			Tenant: "bench", Agent: "agent-" + string(rune('a'+a))})
		if err != nil {
			b.Fatal(err)
		}
		clients[a] = c
		defer c.Close()
	}

	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	errs := make(chan error, agents)
	per := b.N / agents
	extra := b.N % agents
	for a := 0; a < agents; a++ {
		n := per
		if a < extra {
			n++
		}
		go func(c *Client, n int) {
			var err error
			items := make([]BatchItem, 0, batchSize)
			for i := 0; i < n && err == nil; i += len(items) {
				items = items[:0]
				for k := 0; k < batchSize && i+k < n; k++ {
					items = append(items, BatchItem{Epoch: 1, Payload: payload})
				}
				err = c.SendBatchBytes(ctx, items)
			}
			errs <- err
		}(clients[a], n)
	}
	for a := 0; a < agents; a++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func BenchmarkWireIngestBatch1Agent(b *testing.B)  { benchWireIngestBatch(b, 1, 16) }
func BenchmarkWireIngestBatch8Agents(b *testing.B) { benchWireIngestBatch(b, 8, 16) }

// TestBatchAckFitsMaxFrame pins that a batch of many tiny entries, all
// nacked with a message, is answered with a parseable ack inside the
// server's own MaxFrame — the messages dropped, every verdict kept —
// instead of an oversized frame the server refuses to write, which
// dropped the connection.
func TestBatchAckFitsMaxFrame(t *testing.T) {
	const maxFrame = 512
	s := startServer(t, Config{MaxFrame: maxFrame})
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr().String(), ClientConfig{Tenant: "acme", Agent: "host-1", MaxAttempts: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Each 1-byte entry takes 4 bytes of request but, nacked with the
	// decoder's message, tens of bytes of ack.
	items := make([]BatchItem, 100)
	for i := range items {
		items[i] = BatchItem{Epoch: 1, Payload: []byte{'x'}}
	}
	withMsgs := make([]fleetwire.BatchVerdict, len(items))
	for i := range withMsgs {
		withMsgs[i] = fleetwire.BatchVerdict{Seq: uint64(i + 1), Status: fleetwire.BatchNacked,
			Code: fleetwire.NackBadProfile, Msg: "profstore: not a stored profile"}
	}
	if n := len(fleetwire.AppendAckBatch(nil, withMsgs)); n <= maxFrame {
		t.Fatalf("ack with messages is %d bytes, want more than the %d-byte frame limit", n, maxFrame)
	}

	err = c.SendBatchBytes(ctx, items)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("SendBatchBytes = %v, want ErrRejected from a parsed ack", err)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Rejected != uint64(len(items)) || ts.Batches != 1 {
		t.Fatalf("tenant ledger = %+v, want %d rejected in 1 batch", ts, len(items))
	}
	if st := c.Stats(); st.ConnErrors != 0 || st.Dials != 1 || st.RejectedNacks != uint64(len(items)) {
		t.Fatalf("client stats = %+v, want %d refusals on one connection", st, len(items))
	}
}

// TestSameAgentOverlappingResendsMergeOnce pins exactly-once when one
// agent's sequence numbers race each other: two raw connections of
// the same agent send every seq of one stream at once, cut into
// batches of different sizes, so their batches overlap. Each seq must
// be answered merged on exactly one connection and duplicate on the
// other, and the tenant's window must equal the offline merge of the
// stream, each profile once.
func TestSameAgentOverlappingResendsMergeOnce(t *testing.T) {
	s := startServer(t, rollConfig())
	const n = 120
	rng := rand.New(rand.NewSource(61))
	stream := make([]fleetwire.BatchEntry, n)
	profiles := make([]*profstore.Profile, n)
	for i := range stream {
		epoch := uint64(i / 8)
		profiles[i] = epochProfile(rng, epoch)
		stream[i] = fleetwire.BatchEntry{Seq: uint64(i + 1), Epoch: epoch, Profile: saveBytes(t, profiles[i])}
	}
	conns := []*fleetwire.Conn{}
	for range 2 {
		_, wc := handshakeByHand(t, s, "twin")
		conns = append(conns, wc)
	}

	merged := make([][]uint64, len(conns)) // seqs each connection merged
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c, wc := range conns {
		wg.Add(1)
		go func(c int, wc *fleetwire.Conn, size int) {
			defer wg.Done()
			<-start
			for lo := 0; lo < n; lo += size {
				batch := stream[lo:min(lo+size, n)]
				if err := wc.WriteFrame(fleetwire.FrameProfileBatch,
					fleetwire.AppendProfileBatch(nil, batch)); err != nil {
					t.Errorf("connection %d: send: %v", c, err)
					return
				}
				typ, p, err := wc.ReadFrame()
				if err != nil || typ != fleetwire.FrameAckBatch {
					t.Errorf("connection %d: ack = %v, %v", c, typ, err)
					return
				}
				verdicts, err := fleetwire.ParseAckBatch(p)
				if err != nil || len(verdicts) != len(batch) {
					t.Errorf("connection %d: %d verdicts for %d entries, %v", c, len(verdicts), len(batch), err)
					return
				}
				for i, v := range verdicts {
					switch {
					case v.Seq != batch[i].Seq:
						t.Errorf("connection %d: verdict %d answers seq %d, want %d", c, i, v.Seq, batch[i].Seq)
					case v.Status == fleetwire.BatchMerged:
						merged[c] = append(merged[c], v.Seq)
					case v.Status != fleetwire.BatchDuplicate:
						t.Errorf("connection %d: seq %d = %v, want merged or duplicate", c, v.Seq, v.Status)
					}
				}
			}
		}(c, wc, 3+4*c)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	all := append(slices.Clone(merged[0]), merged[1]...)
	slices.Sort(all)
	for i, seq := range all {
		if seq != uint64(i+1) {
			t.Fatalf("merged seqs over both connections = %v, want each of 1..%d once", all, n)
		}
	}
	if len(all) != n {
		t.Fatalf("%d seqs merged, want %d", len(all), n)
	}
	ts := tenantStats(t, s, "acme")
	if ts.Merged != n || ts.Duplicates != n {
		t.Fatalf("ledger = %d merged, %d duplicates; want %d and %d", ts.Merged, ts.Duplicates, n, n)
	}
	got, _ := s.Window("acme", 0, math.MaxUint64)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, profstore.Merge(profiles...))) {
		t.Fatal("the tenant's window differs from the offline merge of the stream")
	}
}
