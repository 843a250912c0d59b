package fleetwire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// pipeWithFaults returns a flaky writer side and the raw reader side.
func pipeWithFaults(f Faults) (*FlakyConn, net.Conn) {
	a, b := net.Pipe()
	return NewFlakyConn(a, f), b
}

// readAll drains c into a buffer until EOF/reset, concurrently.
func readAll(c net.Conn) (<-chan []byte, *sync.WaitGroup) {
	out := make(chan []byte, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		io.Copy(&buf, c)
		out <- buf.Bytes()
	}()
	return out, &wg
}

// TestFlakyPartialWritesDeliverEverything pins that chunked writes are
// faults of pacing, not of content: all bytes arrive, in order.
func TestFlakyPartialWritesDeliverEverything(t *testing.T) {
	fc, peer := pipeWithFaults(Faults{Seed: 1, MaxWriteChunk: 3})
	out, wg := readAll(peer)
	msg := bytes.Repeat([]byte("0123456789"), 100)
	n, err := fc.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("write = %d, %v", n, err)
	}
	fc.Close()
	wg.Wait()
	if got := <-out; !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d, content diverged", len(got), len(msg))
	}
}

// TestFlakyCutAfterBytes pins the deterministic mid-stream cut: the
// writer sees an injected reset carrying ErrInjected, the reader sees
// a closed stream, and the cut happens at the configured byte.
func TestFlakyCutAfterBytes(t *testing.T) {
	fc, peer := pipeWithFaults(Faults{Seed: 1, MaxWriteChunk: 4, CutAfterBytes: 10})
	out, wg := readAll(peer)
	msg := bytes.Repeat([]byte{0xEE}, 64)
	n, err := fc.Write(msg)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write error = %v", err)
	}
	if n >= len(msg) || n < 10 {
		t.Fatalf("cut write wrote %d bytes of %d", n, len(msg))
	}
	wg.Wait()
	if got := <-out; len(got) != n {
		t.Fatalf("reader saw %d bytes, writer claims %d", len(got), n)
	}
	// The conn stays dead: real resets do not heal.
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write = %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut read = %v", err)
	}
}

// TestFlakyCutAfterWrites pins the ack-in-flight cut shape: N writes
// succeed, then the conn dies.
func TestFlakyCutAfterWrites(t *testing.T) {
	fc, peer := pipeWithFaults(Faults{Seed: 1, CutAfterWrites: 2})
	_, wg := readAll(peer)
	if _, err := fc.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := fc.Write([]byte("two")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 = %v, want injected cut after it", err)
	}
	wg.Wait()
}

// TestFlakyCorruptionIsDetectedByFrames wires a corrupting conn under
// the frame codec: every delivered frame either round-trips intact or
// fails CRC — corruption can never surface as different payload bytes.
func TestFlakyCorruptionIsDetectedByFrames(t *testing.T) {
	fc, peer := pipeWithFaults(Faults{Seed: 42, MaxWriteChunk: 5, CorruptProb: 0.3})
	payload := []byte("profile payload that must arrive bit-exact or not at all")
	enc := AppendFrame(nil, FrameProfileBatch, payload)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fc.Write(enc)
		fc.Close()
	}()
	corrupted, intact := 0, 0
	for {
		_, got, err := ReadFrame(peer, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, ErrFrameCorrupt) || errors.Is(err, ErrFrameTruncated) {
				corrupted++
				break // framing is lost after a corrupt frame; stop like a server would
			}
			t.Fatalf("unclassified error: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("corruption passed the CRC: %q", got)
		}
		intact++
	}
	<-done
	if corrupted+intact == 0 {
		t.Fatal("nothing observed")
	}
}

// TestFlakyDeterminism pins that equal Faults misbehave identically —
// chaos runs are reproducible.
func TestFlakyDeterminism(t *testing.T) {
	run := func() (int, error) {
		fc, peer := pipeWithFaults(Faults{Seed: 7, MaxWriteChunk: 3, ResetProb: 0.05})
		_, wg := readAll(peer)
		defer wg.Wait()
		defer fc.Close()
		total := 0
		for i := 0; i < 100; i++ {
			n, err := fc.Write([]byte("deterministic chaos"))
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	n1, e1 := run()
	n2, e2 := run()
	if n1 != n2 || (e1 == nil) != (e2 == nil) {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", n1, e1, n2, e2)
	}
}

// TestFlakyListenerWrapsAccepts pins that server-side injection
// reaches accepted conns.
func TestFlakyListenerWrapsAccepts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlakyListener(ln, Faults{Seed: 3, CutAfterWrites: 1})
	defer fl.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := fl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*FlakyConn); !ok {
		t.Fatalf("accepted conn is %T, not *FlakyConn", c)
	}
	if _, err := c.Write([]byte("first")); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn write = %v, want cut", err)
	}
}
