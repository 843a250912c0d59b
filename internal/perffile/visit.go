package perffile

import (
	"fmt"
	"io"
)

// Visitor receives records during a streaming Visit pass, in file
// order. The *Sample passed to VisitSample (including its Stack) is
// decoded into a reused buffer and is only valid for the duration of
// the call; implementations that retain sample data must copy it.
// Returning a non-nil error aborts the pass.
type Visitor interface {
	VisitComm(c Comm) error
	VisitMmap(m Mmap) error
	VisitSample(s *Sample) error
	VisitLost(l Lost) error
}

// Visit validates the header of rd and streams every record to v.
// Unlike the pull-style Reader.Next, the pass allocates no per-record
// memory, so replaying a file costs one decode per record and nothing
// else — the property the collector's replay path relies on.
func Visit(rd io.Reader, v Visitor) error {
	r, err := NewReader(rd)
	if err != nil {
		return err
	}
	return r.Visit(v)
}

// Visit streams the reader's remaining records to v.
func (r *Reader) Visit(v Visitor) error {
	var s Sample
	for {
		t, payload, err := r.readRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch t {
		case RecordComm:
			c, err := parseComm(payload)
			if err != nil {
				return err
			}
			if err := v.VisitComm(*c); err != nil {
				return err
			}
		case RecordMmap:
			m, err := parseMmap(payload)
			if err != nil {
				return err
			}
			if err := v.VisitMmap(*m); err != nil {
				return err
			}
		case RecordSample:
			if err := parseSampleInto(payload, &s); err != nil {
				return err
			}
			if err := v.VisitSample(&s); err != nil {
				return err
			}
		case RecordLost:
			l, err := parseLost(payload)
			if err != nil {
				return err
			}
			if err := v.VisitLost(*l); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown record type %d", ErrCorruptRecord, uint8(t))
		}
	}
}
