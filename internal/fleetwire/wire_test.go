package fleetwire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// frameBytes encodes one frame for stream-surgery tests.
func frameBytes(t FrameType, payload []byte) []byte {
	return AppendFrame(nil, t, payload)
}

// TestFrameRoundTrip pins the codec: what AppendFrame writes,
// ReadFrame returns, for the empty payload, a small one, and one at
// the size limit.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {0x42}, bytes.Repeat([]byte{0xAB}, 1024), make([]byte, 4096)}
	for _, want := range payloads {
		enc := frameBytes(FrameProfileBatch, want)
		typ, got, err := ReadFrame(bytes.NewReader(enc), 4096)
		if err != nil {
			t.Fatalf("len %d: %v", len(want), err)
		}
		if typ != FrameProfileBatch {
			t.Errorf("len %d: type %v", len(want), typ)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("len %d: payload diverged", len(want))
		}
	}
}

// TestFrameBackToBack pins that frames separate cleanly on a shared
// stream and a clean end-of-stream reads as io.EOF, not truncation.
func TestFrameBackToBack(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, FrameHello, []byte("a"))
	stream = AppendFrame(stream, FrameAckBatch, []byte("bb"))
	r := bytes.NewReader(stream)
	for i, want := range []FrameType{FrameHello, FrameAckBatch} {
		typ, _, err := ReadFrame(r, 0)
		if err != nil || typ != want {
			t.Fatalf("frame %d: type %v err %v", i, typ, err)
		}
	}
	if _, _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// TestFrameTruncationClassifiesAtEveryOffset cuts a valid frame at
// every byte offset: every cut but offset 0 (a clean close) must
// classify as ErrFrameTruncated.
func TestFrameTruncationClassifiesAtEveryOffset(t *testing.T) {
	enc := frameBytes(FrameProfileBatch, []byte("stored profile bytes"))
	for cut := 0; cut < len(enc); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(enc[:cut]), 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0 = %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrFrameTruncated) {
			t.Errorf("cut %d: %v does not classify as ErrFrameTruncated", cut, err)
		}
	}
}

// TestFrameCorruptionDetectedAtEveryByte flips one bit in every byte
// of a frame: every flip must classify as corruption (or, for the
// length word, corruption/size/truncation — never silent acceptance).
func TestFrameCorruptionDetectedAtEveryByte(t *testing.T) {
	payload := []byte("the CRC must catch every single-bit flip")
	enc := frameBytes(FrameAckBatch, payload)
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		_, got, err := ReadFrame(bytes.NewReader(bad), len(enc))
		if err == nil {
			t.Errorf("flip at byte %d accepted; payload %q", i, got)
			continue
		}
		if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTruncated) &&
			!errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("flip at byte %d: unclassified error %v", i, err)
		}
	}
}

// TestFrameSizeLimit pins that a lying length prefix fails fast as
// ErrFrameTooLarge without allocating the claim.
func TestFrameSizeLimit(t *testing.T) {
	enc := frameBytes(FrameProfileBatch, make([]byte, 100))
	if _, _, err := ReadFrame(bytes.NewReader(enc), 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame = %v", err)
	}
	// A 4 GiB claim on a 9-byte stream must be rejected by the limit,
	// not attempted.
	huge := []byte{byte(FrameProfileBatch), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(huge), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge claim = %v", err)
	}
}

// TestPreambleClassification drives ReadPreamble over the failure
// landscape: wrong protocol, wrong version, truncation.
func TestPreambleClassification(t *testing.T) {
	mk := func(b []byte) *Conn {
		client, server := net.Pipe()
		go func() {
			client.Write(b)
			client.Close()
		}()
		return NewConn(server, ConnConfig{})
	}
	good := append([]byte(Magic), byte(Version), 0, 0, 0)

	if err := mk(good).ReadPreamble(); err != nil {
		t.Fatalf("valid preamble: %v", err)
	}
	if err := mk([]byte("HTTP/1.1 GET /")).ReadPreamble(); !errors.Is(err, ErrFrameMagic) {
		t.Errorf("wrong protocol = %v", err)
	}
	if err := mk([]byte("XY")).ReadPreamble(); !errors.Is(err, ErrFrameMagic) {
		t.Errorf("short garbage = %v", err)
	}
	// A genuine magic prefix earns the truncation classification, both
	// cut inside the magic and cut inside the version word.
	if err := mk([]byte("HB")).ReadPreamble(); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("magic prefix cut short = %v", err)
	}
	if err := mk([]byte(Magic + "\x02")).ReadPreamble(); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("genuine magic cut mid-version = %v", err)
	}
	future := append([]byte(Magic), 9, 0, 0, 0)
	if err := mk(future).ReadPreamble(); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("future version = %v", err)
	}
	// Version 1 had the single-profile exchange; a peer still speaking
	// it must fail the handshake as version skew, not as corruption.
	v1 := append([]byte(Magic), 1, 0, 0, 0)
	if err := mk(v1).ReadPreamble(); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("version 1 = %v", err)
	}
}

// TestReadDeadlineFiresOnStall pins the slow-loris defense: a peer
// that opens a frame and stalls must cost one ReadTimeout, not a
// parked goroutine.
func TestReadDeadlineFiresOnStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		wc := NewConn(c, ConnConfig{ReadTimeout: 50 * time.Millisecond})
		_, _, err = wc.ReadFrame()
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte{byte(FrameProfileBatch), 0xFF, 0x00}) // half a header, then silence
	select {
	case err := <-done:
		if !IsTimeout(err) {
			t.Fatalf("stalled read = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not observe the deadline")
	}
}

// TestUnblockWakesParkedRead pins the graceful-shutdown lever.
func TestUnblockWakesParkedRead(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	wc := NewConn(server, ConnConfig{})
	done := make(chan error, 1)
	go func() {
		_, _, err := wc.ReadFrame()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	wc.Unblock()
	select {
	case err := <-done:
		if !IsTimeout(err) {
			t.Fatalf("unblocked read = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Unblock did not wake the read")
	}
}

// TestMessageRoundTrips pins every payload codec, including the
// trailing-byte and empty-identity rejections.
func TestMessageRoundTrips(t *testing.T) {
	h, err := ParseHello(AppendHello(nil, Hello{Tenant: "prod", Agent: "host-17"}))
	if err != nil || h.Tenant != "prod" || h.Agent != "host-17" {
		t.Fatalf("hello = %+v, %v", h, err)
	}
	if _, err := ParseHello(AppendHello(nil, Hello{Tenant: "", Agent: "a"})); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty tenant = %v", err)
	}
	if _, err := ParseHello(append(AppendHello(nil, Hello{Tenant: "t", Agent: "a"}), 0xFF)); !errors.Is(err, ErrProtocol) {
		t.Errorf("trailing bytes = %v", err)
	}

	w, err := ParseWelcome(AppendWelcome(nil, Welcome{LastSeq: 1 << 40}))
	if err != nil || w.LastSeq != 1<<40 {
		t.Fatalf("welcome = %+v, %v", w, err)
	}

	long := Hello{Tenant: strings.Repeat("x", maxNameLen+1), Agent: "a"}
	if _, err := ParseHello(AppendHello(nil, long)); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized name = %v", err)
	}
}

// TestBatchRoundTrips pins the batch frame codecs: entry round-trip,
// verdict round-trip in every status, and the structural rejections
// (empty, disordered, lying sizes, trailing bytes).
func TestBatchRoundTrips(t *testing.T) {
	in := []BatchEntry{
		{Seq: 1, Epoch: 4, Profile: []byte("first")},
		{Seq: 2, Epoch: 4, Profile: nil},
		{Seq: 9, Epoch: 5, Profile: []byte("HBBPROF1...")},
	}
	got, err := ParseProfileBatch(AppendProfileBatch(nil, in))
	if err != nil || len(got) != 3 {
		t.Fatalf("batch = %+v, %v", got, err)
	}
	for i := range in {
		if got[i].Seq != in[i].Seq || got[i].Epoch != in[i].Epoch || string(got[i].Profile) != string(in[i].Profile) {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], in[i])
		}
	}

	if _, err := ParseProfileBatch(AppendProfileBatch(nil, nil)); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty batch = %v", err)
	}
	disordered := []BatchEntry{{Seq: 5, Profile: []byte("a")}, {Seq: 5, Profile: []byte("b")}}
	if _, err := ParseProfileBatch(AppendProfileBatch(nil, disordered)); !errors.Is(err, ErrProtocol) {
		t.Errorf("non-ascending seqs = %v", err)
	}
	if _, err := ParseProfileBatch(AppendProfileBatch(nil, []BatchEntry{{Seq: 0}})); !errors.Is(err, ErrProtocol) {
		t.Errorf("seq 0 = %v", err)
	}
	enc := AppendProfileBatch(nil, in)
	if _, err := ParseProfileBatch(enc[:len(enc)-3]); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated batch = %v", err)
	}
	if _, err := ParseProfileBatch(append(enc, 0xFF)); !errors.Is(err, ErrProtocol) {
		t.Errorf("trailing bytes = %v", err)
	}

	vin := []BatchVerdict{
		{Seq: 1, Status: BatchMerged},
		{Seq: 2, Status: BatchDuplicate},
		{Seq: 9, Status: BatchNacked, Code: NackBadProfile, Msg: "bad magic"},
	}
	vgot, err := ParseAckBatch(AppendAckBatch(nil, vin))
	if err != nil || len(vgot) != 3 {
		t.Fatalf("ack batch = %+v, %v", vgot, err)
	}
	for i := range vin {
		if vgot[i] != vin[i] {
			t.Errorf("verdict %d = %+v, want %+v", i, vgot[i], vin[i])
		}
	}
	if _, err := ParseAckBatch(AppendAckBatch(nil, nil)); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty ack batch = %v", err)
	}
	if _, err := ParseAckBatch(AppendAckBatch(nil, []BatchVerdict{{Seq: 1, Status: 7}})); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad status = %v", err)
	}
	if _, err := ParseAckBatch(AppendAckBatch(nil, []BatchVerdict{{Seq: 1, Status: BatchNacked, Code: 0}})); !errors.Is(err, ErrProtocol) {
		t.Errorf("nacked with code 0 = %v", err)
	}
}

// TestSplitBatch pins the sender's frame split: the prefix it picks
// encodes to at most the limit, one more entry would not fit, the
// entry-count cap binds on its own, and an entry that cannot travel
// alone yields zero.
func TestSplitBatch(t *testing.T) {
	var entries []BatchEntry
	for i := 0; i < 40; i++ {
		entries = append(entries, BatchEntry{Seq: uint64(1 + i*50), Epoch: 3, Profile: bytes.Repeat([]byte{'p'}, 10+i)})
	}
	for _, limit := range []int{30, 64, 200, 500, 1000, 1 << 20} {
		n := SplitBatch(entries, limit)
		if n == 0 || len(AppendProfileBatch(nil, entries[:n])) > limit {
			t.Fatalf("limit %d: split %d does not fit", limit, n)
		}
		if n < len(entries) && len(AppendProfileBatch(nil, entries[:n+1])) <= limit {
			t.Errorf("limit %d: split %d stops short; %d entries still fit", limit, n, n+1)
		}
	}
	if n := SplitBatch(entries, 1<<20); n != len(entries) {
		t.Errorf("roomy frame split %d of %d", n, len(entries))
	}
	if n := SplitBatch(entries[:1], 12); n != 0 {
		t.Errorf("oversized lone entry split %d, want 0", n)
	}
	many := make([]BatchEntry, MaxBatchEntries+5)
	for i := range many {
		many[i] = BatchEntry{Seq: uint64(i + 1)}
	}
	n := SplitBatch(many, DefaultMaxFrame)
	if n != MaxBatchEntries {
		t.Fatalf("count cap: split %d, want %d", n, MaxBatchEntries)
	}
	if _, err := ParseProfileBatch(AppendProfileBatch(nil, many[:n])); err != nil {
		t.Fatalf("a full-count batch must parse: %v", err)
	}
}

// TestConnReadFrameReusesBuffer pins the connection read buffer's
// contract: back-to-back frames decode correctly, and the payload of
// an earlier read is NOT stable across the next one — callers must
// copy what they keep.
func TestConnReadFrameReusesBuffer(t *testing.T) {
	client, server := net.Pipe()
	cfg := ConnConfig{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}
	cc, sc := NewConn(client, cfg), NewConn(server, cfg)
	defer cc.Close()
	defer sc.Close()

	go func() {
		cc.WriteFrame(FrameProfileBatch, []byte("payload-one"))
		cc.WriteFrame(FrameProfileBatch, []byte("payload-two"))
	}()
	_, p1, err := sc.ReadFrame()
	if err != nil || string(p1) != "payload-one" {
		t.Fatalf("first frame = %q, %v", p1, err)
	}
	kept := string(p1) // copy before the next read, per the contract
	_, p2, err := sc.ReadFrame()
	if err != nil || string(p2) != "payload-two" {
		t.Fatalf("second frame = %q, %v", p2, err)
	}
	if kept != "payload-one" {
		t.Fatal("copied payload changed")
	}
	if len(p1) == len(p2) && &p1[0] == &p2[0] && string(p1) != "payload-one" {
		// Aliasing observed and the old view is stale: that is the
		// documented behavior, nothing to assert beyond the copy above.
		_ = p1
	}
}

// TestConnHandshakeAndExchange runs the full protocol over a real
// socket pair: preamble both ways, hello/welcome, one batch of one
// profile, one batch ack.
func TestConnHandshakeAndExchange(t *testing.T) {
	client, server := net.Pipe()
	cfg := ConnConfig{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}
	cc, sc := NewConn(client, cfg), NewConn(server, cfg)

	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			if err := sc.ReadPreamble(); err != nil {
				return err
			}
			typ, p, err := sc.ReadFrame()
			if err != nil {
				return err
			}
			if typ != FrameHello {
				return errors.New("first frame is not hello")
			}
			if _, err := ParseHello(p); err != nil {
				return err
			}
			if err := sc.WritePreamble(); err != nil {
				return err
			}
			if err := sc.WriteFrame(FrameWelcome, AppendWelcome(nil, Welcome{LastSeq: 0})); err != nil {
				return err
			}
			typ, p, err = sc.ReadFrame()
			if err != nil {
				return err
			}
			if typ != FrameProfileBatch {
				return errors.New("second frame is not a profile batch")
			}
			entries, err := ParseProfileBatch(p)
			if err != nil {
				return err
			}
			return sc.WriteFrame(FrameAckBatch, AppendAckBatch(nil, []BatchVerdict{{Seq: entries[0].Seq}}))
		}()
	}()

	if err := cc.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := cc.WriteFrame(FrameHello, AppendHello(nil, Hello{Tenant: "t", Agent: "a"})); err != nil {
		t.Fatal(err)
	}
	if err := cc.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	typ, p, err := cc.ReadFrame()
	if err != nil || typ != FrameWelcome {
		t.Fatalf("welcome: %v %v", typ, err)
	}
	if _, err := ParseWelcome(p); err != nil {
		t.Fatal(err)
	}
	if err := cc.WriteFrame(FrameProfileBatch, AppendProfileBatch(nil, []BatchEntry{{Seq: 1, Epoch: 0, Profile: []byte("bytes")}})); err != nil {
		t.Fatal(err)
	}
	typ, p, err = cc.ReadFrame()
	if err != nil || typ != FrameAckBatch {
		t.Fatalf("ack: %v %v", typ, err)
	}
	if v, err := ParseAckBatch(p); err != nil || len(v) != 1 || v[0].Seq != 1 || v[0].Status != BatchMerged {
		t.Fatalf("ack = %+v, %v", v, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("server side: %v", err)
	}
}
