package fleetwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
)

// TestWelcomeCarriesFrameLimit pins the version-3 Welcome: it carries
// the server's frame limit after the resume point, and a zero limit
// (a literal that sets only LastSeq) round-trips as zero, which
// readers take as DefaultMaxFrame.
func TestWelcomeCarriesFrameLimit(t *testing.T) {
	for _, w := range []Welcome{{LastSeq: 7, MaxFrame: 4096}, {LastSeq: 1 << 40}, {MaxFrame: maxWelcomeFrame}} {
		got, err := ParseWelcome(AppendWelcome(nil, w))
		if err != nil || got != w {
			t.Fatalf("ParseWelcome(AppendWelcome(%+v)) = %+v, %v", w, got, err)
		}
	}
}

// TestParseWelcomeRejectsOtherLayouts pins that a Welcome of another
// layout is a protocol violation, never a misread limit: version 2's
// (LastSeq alone), one with trailing bytes, and one whose limit no int
// holds on every platform.
func TestParseWelcomeRejectsOtherLayouts(t *testing.T) {
	cases := map[string][]byte{
		"version-2 layout": binary.AppendUvarint(nil, 12),
		"trailing bytes":   append(AppendWelcome(nil, Welcome{LastSeq: 12, MaxFrame: 4096}), 0),
		"limit too large":  binary.AppendUvarint(binary.AppendUvarint(nil, 12), maxWelcomeFrame+1),
	}
	for name, p := range cases {
		if _, err := ParseWelcome(p); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ParseWelcome = %v, want ErrProtocol", name, err)
		}
	}
}

// TestHandshakeAdoptsAnnouncedLimit pins the one frame limit per
// connection: the server's Conn announces its own limit in the
// Welcome, and the agent's Conn, configured with none, writes and reads
// under it from then on.
func TestHandshakeAdoptsAnnouncedLimit(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	agent := NewConn(near, ConnConfig{})
	server := NewConn(far, ConnConfig{MaxFrame: 64})
	served := make(chan error, 1)
	go func() {
		h, err := server.ReadHello()
		if err == nil && h != (Hello{Tenant: "t", Agent: "a"}) {
			err = fmt.Errorf("server read hello %+v", h)
		}
		if err == nil {
			err = server.WriteWelcome(5)
		}
		served <- err
	}()
	w, err := agent.Handshake(Hello{Tenant: "t", Agent: "a"})
	if err != nil || w != (Welcome{LastSeq: 5, MaxFrame: 64}) {
		t.Fatalf("Handshake = %+v, %v; want LastSeq 5 and the server's 64-byte limit", w, err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := agent.WriteFrame(FrameProfileBatch, make([]byte, 65)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("65-byte write under the announced 64-byte limit = %v, want ErrFrameTooLarge", err)
	}
	go far.Write(AppendFrame(nil, FrameAckBatch, make([]byte, 65)))
	if _, _, err := agent.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("65-byte read under the announced 64-byte limit = %v, want ErrFrameTooLarge", err)
	}
}

// TestHandshakeZeroLimitMeansDefault pins that a Welcome announcing 0
// (a literal that sets only LastSeq) leaves the agent at
// DefaultMaxFrame.
func TestHandshakeZeroLimitMeansDefault(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go func() {
		server := NewConn(far, ConnConfig{})
		if _, err := server.ReadHello(); err != nil {
			return
		}
		server.WritePreamble()
		server.WriteFrame(FrameWelcome, AppendWelcome(nil, Welcome{LastSeq: 3}))
	}()
	w, err := NewConn(near, ConnConfig{}).Handshake(Hello{Tenant: "t", Agent: "a"})
	if err != nil || w != (Welcome{LastSeq: 3, MaxFrame: DefaultMaxFrame}) {
		t.Fatalf("Handshake = %+v, %v; want LastSeq 3 at DefaultMaxFrame", w, err)
	}
}
