package perffile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// validFile serializes a small well-formed perffile for corruption
// tests.
func validFile(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.WriteComm(Comm{PID: 1, Name: "prog"})
	w.WriteMmap(Mmap{PID: 1, Start: 0x1000, Size: 0x100, Module: "prog.bin"})
	w.WriteSample(Sample{Event: 1, IP: 0x1004, Cycle: 7,
		Stack: []Branch{{From: 0x1008, To: 0x1000}}})
	w.WriteLost(Lost{Count: 3, Event: 1})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// drain consumes every record of a stream and returns the first error.
func drain(raw []byte) error {
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestBadMagicIsTyped(t *testing.T) {
	raw := validFile(t)
	raw[0] = 'X'
	err := drain(raw)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupted magic: got %v, want errors.Is(ErrBadMagic)", err)
	}
	if errors.Is(err, ErrTruncatedRecord) || errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("bad magic matched an unrelated sentinel: %v", err)
	}
}

func TestUnsupportedVersionIsTyped(t *testing.T) {
	raw := validFile(t)
	binary.LittleEndian.PutUint32(raw[len(Magic):], 99)
	if err := drain(raw); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version 99: got %v, want errors.Is(ErrUnsupportedVersion)", err)
	}
	// Version 1 must still read (LOST records lose their event tag
	// only).
	binary.LittleEndian.PutUint32(raw[len(Magic):], 1)
	if err := drain(raw); err != nil {
		t.Fatalf("version 1 stream should read, got %v", err)
	}
}

// TestTruncationIsTyped chops a valid stream at every byte boundary:
// any cut after the header must surface as ErrTruncatedRecord (clean
// record boundaries read to EOF instead).
func TestTruncationIsTyped(t *testing.T) {
	raw := validFile(t)
	header := len(Magic) + 4
	var truncated int
	for cut := header; cut < len(raw); cut++ {
		err := drain(raw[:cut])
		if err == nil {
			continue // cut landed on a record boundary
		}
		if !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("cut at %d/%d: got %v, want errors.Is(ErrTruncatedRecord)", cut, len(raw), err)
		}
		truncated++
	}
	if truncated == 0 {
		t.Fatal("no cut produced a truncation error; test is vacuous")
	}
	// A partial header is a truncated stream too — and so is an empty
	// one (e.g. a raw file from a run that died before the header),
	// so every malformed input classifies under some sentinel.
	if err := drain(raw[:header/2]); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("partial header: got %v, want errors.Is(ErrTruncatedRecord)", err)
	}
	if err := drain(nil); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("empty stream: got %v, want errors.Is(ErrTruncatedRecord)", err)
	}
}

// flakyReader serves a prefix of a stream, then fails with a non-EOF
// I/O error — a transient transport failure, not a truncated file.
type flakyReader struct {
	data []byte
	off  int
	err  error
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, f.err
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

// TestIOErrorsAreNotTruncation asserts a genuine read failure
// mid-stream keeps its own identity — it must not satisfy
// errors.Is(ErrTruncatedRecord), and the cause must stay on the
// unwrap chain.
func TestIOErrorsAreNotTruncation(t *testing.T) {
	raw := validFile(t)
	cause := errors.New("connection reset")
	r, err := NewReader(&flakyReader{data: raw[:len(raw)-3], err: cause})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, cause) {
		t.Errorf("I/O cause lost from the unwrap chain: %v", err)
	}
	if errors.Is(err, ErrTruncatedRecord) {
		t.Errorf("transient I/O failure misclassified as truncation: %v", err)
	}
}

// TestTruncationKeepsEOFCause asserts the truncation sentinel still
// carries the underlying io error for unwrap-based handling.
func TestTruncationKeepsEOFCause(t *testing.T) {
	raw := validFile(t)
	err := drain(raw[:len(raw)-3])
	if !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("cut stream returned %v, want ErrTruncatedRecord", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("truncation dropped the io cause from the unwrap chain: %v", err)
	}
}

// TestPayloadLengthLies corrupts declared lengths inside otherwise
// intact payloads: a COMM name length pointing past the payload end
// must be a typed truncation, not a crash.
func TestPayloadLengthLies(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.WriteComm(Comm{PID: 1, Name: "prog"})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	raw := buf.Bytes()
	// COMM payload starts after header(12) + record header(5); its name
	// length field is at offset 4 of the payload.
	nameLen := len(Magic) + 4 + 5 + 4
	binary.LittleEndian.PutUint16(raw[nameLen:], 500)
	if err := drain(raw); !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("lying COMM name length: got %v, want errors.Is(ErrTruncatedRecord)", err)
	}
}

// TestCorruptRecordIsTyped asserts that a record header no writer
// produces — an unknown type or an implausible size — is rejected
// through both readers as ErrCorruptRecord.
func TestCorruptRecordIsTyped(t *testing.T) {
	header := validFile(t)[:len(Magic)+4]
	for name, rec := range map[string][]byte{
		"unknown type":     {9, 0, 0, 0, 0},
		"implausible size": {byte(RecordSample), 0xff, 0xff, 0xff, 0xff},
	} {
		raw := append(append([]byte{}, header...), rec...)
		if err := drain(raw); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s via Next: got %v, want errors.Is(ErrCorruptRecord)", name, err)
		}
		if err := Visit(bytes.NewReader(raw), acceptAll{}); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s via Visit: got %v, want errors.Is(ErrCorruptRecord)", name, err)
		}
	}
}

// TestOversizedClaimAllocatesLittle asserts that a record header
// claiming far more payload than the stream holds fails as truncated
// without allocating its claim: a 17-byte stream whose SAMPLE header
// declares 16 MB must cost well under 1 MB per read, through both
// readers.
func TestOversizedClaimAllocatesLittle(t *testing.T) {
	raw := append(validFile(t)[:len(Magic)+4], byte(RecordSample), 0xff, 0xff, 0xff, 0)
	if len(raw) != 17 {
		t.Fatalf("stream is %d bytes, want 17", len(raw))
	}
	for name, read := range map[string]func() error{
		"Next":  func() error { return drain(raw) },
		"Visit": func() error { return Visit(bytes.NewReader(raw), acceptAll{}) },
	} {
		if err := read(); !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("%s: got %v, want errors.Is(ErrTruncatedRecord)", name, err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = read()
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 1<<20 {
			t.Errorf("%s: %d bytes allocated per read, want well under 1 MB", name, perRead)
		}
	}
}
