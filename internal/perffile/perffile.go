// Package perffile implements the raw collection file format — the
// reproduction's stand-in for Linux perf.data.
//
// The paper's collector "gathers raw data from perf at runtime, which is
// later processed to extract EBS and LBR samples". Keeping a real binary
// serialization boundary between collection and analysis preserves that
// pipeline shape: the collector only ever appends records, and the
// analyzer reconstructs everything from the file, including the process
// and memory-map metadata needed to attribute samples to modules.
//
// Format (all integers little-endian):
//
//	header:  magic "HBBPERF1" | uint32 version
//	record:  uint8 type | uint32 payloadLen | payload
//
// Record payloads:
//
//	Comm:   uint32 pid | uint16 len | name bytes
//	Mmap:   uint32 pid | uint64 start | uint64 size | uint8 ring |
//	        uint16 len | module name bytes
//	Sample: uint8 event | uint64 ip | uint8 ring | uint64 cycle |
//	        uint16 nbranch | nbranch x (uint64 from | uint64 to)
//	Lost:   uint64 count | uint8 event
//
// Version 2 added the event tag to LOST records so replayed files
// recover per-counter drop counts. Version-1 files still read: their
// LOST records carry Event 0 (unattributed).
//
// Files can be consumed two ways: the pull-style Reader.Next, which
// materializes each record, and the streaming Visit path, which
// decodes into reused buffers and hands records to a Visitor — the
// allocation-free spine of the collector's replay pipeline.
package perffile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Magic identifies the file format.
const Magic = "HBBPERF1"

// Version is the current format version.
const Version uint32 = 2

// RecordType discriminates record payloads.
type RecordType uint8

// Record types.
const (
	RecordComm RecordType = iota + 1
	RecordMmap
	RecordSample
	RecordLost
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecordComm:
		return "COMM"
	case RecordMmap:
		return "MMAP"
	case RecordSample:
		return "SAMPLE"
	case RecordLost:
		return "LOST"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// Comm announces a process.
type Comm struct {
	PID  uint32
	Name string
}

// Mmap announces a module mapping, used for address-to-module
// attribution at analysis time.
type Mmap struct {
	PID    uint32
	Start  uint64
	Size   uint64
	Ring   uint8
	Module string
}

// Branch is one LBR entry in a sample record.
type Branch struct {
	From, To uint64
}

// Sample is one PMI capture.
type Sample struct {
	Event uint8
	IP    uint64
	Ring  uint8
	Cycle uint64
	Stack []Branch
}

// Lost reports dropped samples for one sampling event.
type Lost struct {
	Count uint64
	Event uint8
}

// Writer appends records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	if _, err := bw.Write(v[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func (w *Writer) record(t RecordType, payload []byte) {
	if w.err != nil {
		return
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
	}
}

// WriteComm appends a process record.
func (w *Writer) WriteComm(c Comm) {
	b := w.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, c.PID)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
	b = append(b, c.Name...)
	w.buf = b
	w.record(RecordComm, b)
}

// WriteMmap appends a mapping record.
func (w *Writer) WriteMmap(m Mmap) {
	b := w.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, m.PID)
	b = binary.LittleEndian.AppendUint64(b, m.Start)
	b = binary.LittleEndian.AppendUint64(b, m.Size)
	b = append(b, m.Ring)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Module)))
	b = append(b, m.Module...)
	w.buf = b
	w.record(RecordMmap, b)
}

// WriteSample appends a sample record.
func (w *Writer) WriteSample(s Sample) {
	b := w.buf[:0]
	b = append(b, s.Event)
	b = binary.LittleEndian.AppendUint64(b, s.IP)
	b = append(b, s.Ring)
	b = binary.LittleEndian.AppendUint64(b, s.Cycle)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Stack)))
	for _, br := range s.Stack {
		b = binary.LittleEndian.AppendUint64(b, br.From)
		b = binary.LittleEndian.AppendUint64(b, br.To)
	}
	w.buf = b
	w.record(RecordSample, b)
}

// WriteLost appends a lost-samples record.
func (w *Writer) WriteLost(l Lost) {
	b := w.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, l.Count)
	b = append(b, l.Event)
	w.buf = b
	w.record(RecordLost, b)
}

// Flush flushes buffered records and reports any deferred write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader iterates over a file's records.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// Sentinel errors for malformed streams. Parse failures wrap one of
// these, so callers classify them with errors.Is regardless of the
// contextual detail in the message.
var (
	// ErrBadMagic reports a stream that is not a perffile.
	ErrBadMagic = errors.New("perffile: bad magic")
	// ErrTruncatedRecord reports a stream that ends (or claims a
	// length) mid-record: a record header, payload or variable-length
	// field is shorter than its declared size.
	ErrTruncatedRecord = errors.New("perffile: truncated record")
	// ErrUnsupportedVersion reports a valid header whose format version
	// this package cannot read.
	ErrUnsupportedVersion = errors.New("perffile: unsupported version")
	// ErrCorruptRecord reports a record header no writer produces: an
	// unknown record type or an implausible record size.
	ErrCorruptRecord = errors.New("perffile: corrupt record")
)

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(Magic)+4)
	if _, err := io.ReadFull(br, head); err != nil {
		// A stream that ends inside (or before) the header — empty
		// files included — is truncated; any other I/O failure keeps
		// its own identity.
		return nil, classifyReadError("header", err)
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	// Version 1 differs only in the LOST payload (no event tag), so
	// both versions read through the same parsers.
	if v := binary.LittleEndian.Uint32(head[len(Magic):]); v != Version && v != 1 {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedVersion, v)
	}
	return &Reader{r: br}, nil
}

// classifyReadError maps a mid-record read failure to the sentinel it
// deserves: a stream that ends early is a truncated record, while any
// other I/O failure (a broken pipe, a transient network error) keeps
// its own identity so callers do not mistake a retryable read for
// file corruption. The cause stays on the unwrap chain either way.
func classifyReadError(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s: %w", ErrTruncatedRecord, what, err)
	}
	return fmt.Errorf("perffile: reading %s: %w", what, err)
}

// readRecord pulls the next raw record into the reader's reused
// buffer. The payload slice is only valid until the next call.
func (r *Reader) readRecord() (RecordType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("perffile: reading record type: %w", err)
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return 0, nil, classifyReadError("record length", err)
	}
	t := RecordType(hdr[0])
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > 1<<24 {
		return 0, nil, fmt.Errorf("%w: implausible record size %d", ErrCorruptRecord, n)
	}
	// A buffer too short for the payload grows only as far as the
	// stream has supplied, one chunk at a time, so a header that claims
	// megabytes on a short stream fails as truncated without first
	// allocating its claim.
	payload := r.buf[:0]
	for cap(payload) < int(n) {
		k := min(int(n)-len(payload), payloadChunk)
		payload = slices.Grow(payload, k)
		if _, err := io.ReadFull(r.r, payload[len(payload):len(payload)+k]); err != nil {
			return 0, nil, classifyReadError(fmt.Sprintf("%v payload", t), err)
		}
		payload = payload[:len(payload)+k]
	}
	if _, err := io.ReadFull(r.r, payload[len(payload):n]); err != nil {
		return 0, nil, classifyReadError(fmt.Sprintf("%v payload", t), err)
	}
	r.buf = payload[:n]
	return t, r.buf, nil
}

// payloadChunk bounds how many payload bytes readRecord reads, and so
// how far it grows its buffer, per step.
const payloadChunk = 1 << 16

// Next returns the next record as one of *Comm, *Mmap, *Sample or
// *Lost. It returns io.EOF at end of stream.
func (r *Reader) Next() (any, error) {
	t, payload, err := r.readRecord()
	if err != nil {
		return nil, err
	}
	switch t {
	case RecordComm:
		return parseComm(payload)
	case RecordMmap:
		return parseMmap(payload)
	case RecordSample:
		s := new(Sample)
		if err := parseSampleInto(payload, s); err != nil {
			return nil, err
		}
		return s, nil
	case RecordLost:
		return parseLost(payload)
	}
	return nil, fmt.Errorf("%w: unknown record type %d", ErrCorruptRecord, uint8(t))
}

func parseComm(b []byte) (*Comm, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: short COMM record", ErrTruncatedRecord)
	}
	n := int(binary.LittleEndian.Uint16(b[4:6]))
	if len(b) < 6+n {
		return nil, fmt.Errorf("%w: COMM name", ErrTruncatedRecord)
	}
	return &Comm{
		PID:  binary.LittleEndian.Uint32(b),
		Name: string(b[6 : 6+n]),
	}, nil
}

func parseMmap(b []byte) (*Mmap, error) {
	if len(b) < 23 {
		return nil, fmt.Errorf("%w: short MMAP record", ErrTruncatedRecord)
	}
	n := int(binary.LittleEndian.Uint16(b[21:23]))
	if len(b) < 23+n {
		return nil, fmt.Errorf("%w: MMAP name", ErrTruncatedRecord)
	}
	return &Mmap{
		PID:    binary.LittleEndian.Uint32(b),
		Start:  binary.LittleEndian.Uint64(b[4:]),
		Size:   binary.LittleEndian.Uint64(b[12:]),
		Ring:   b[20],
		Module: string(b[23 : 23+n]),
	}, nil
}

// parseSampleInto decodes a SAMPLE payload into s, reusing s.Stack's
// backing array when it is large enough.
func parseSampleInto(b []byte, s *Sample) error {
	if len(b) < 20 {
		return fmt.Errorf("%w: short SAMPLE record", ErrTruncatedRecord)
	}
	s.Event = b[0]
	s.IP = binary.LittleEndian.Uint64(b[1:])
	s.Ring = b[9]
	s.Cycle = binary.LittleEndian.Uint64(b[10:])
	nb := int(binary.LittleEndian.Uint16(b[18:20]))
	if len(b) < 20+16*nb {
		return fmt.Errorf("%w: SAMPLE stack", ErrTruncatedRecord)
	}
	s.Stack = s.Stack[:0]
	if nb > 0 {
		if cap(s.Stack) < nb {
			s.Stack = make([]Branch, 0, nb)
		}
		off := 20
		for i := 0; i < nb; i++ {
			s.Stack = append(s.Stack, Branch{
				From: binary.LittleEndian.Uint64(b[off:]),
				To:   binary.LittleEndian.Uint64(b[off+8:]),
			})
			off += 16
		}
	}
	return nil
}

func parseLost(b []byte) (*Lost, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: short LOST record", ErrTruncatedRecord)
	}
	l := &Lost{Count: binary.LittleEndian.Uint64(b)}
	// Version-1 records end after the count; their drops stay
	// unattributed (Event 0 is the plain counting event).
	if len(b) >= 9 {
		l.Event = b[8]
	}
	return l, nil
}
