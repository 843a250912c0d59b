package perffile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// acceptAll is a Visitor that takes every record.
type acceptAll struct{}

func (acceptAll) VisitComm(Comm) error      { return nil }
func (acceptAll) VisitMmap(Mmap) error      { return nil }
func (acceptAll) VisitSample(*Sample) error { return nil }
func (acceptAll) VisitLost(Lost) error      { return nil }

// sentinels are the errors every rejection of a malformed stream
// wraps.
var sentinels = []error{ErrBadMagic, ErrTruncatedRecord, ErrUnsupportedVersion, ErrCorruptRecord}

// FuzzVisit drives the streaming decoder with arbitrary bytes. Besides
// the seeds below, testdata/fuzz/FuzzVisit holds a small collection
// recorded by the collector. Visit must never panic, every error must
// classify as one of the package's sentinels, and the pull-style
// Reader.Next must accept exactly the streams Visit accepts.
func FuzzVisit(f *testing.F) {
	valid := validFile(f)
	header := valid[:len(Magic)+4]
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)-3])
	f.Add(binary.LittleEndian.AppendUint32([]byte(Magic), 99))
	f.Add(append(append([]byte{}, header...), 9, 0, 0, 0, 0))
	f.Add(append(append([]byte{}, header...), byte(RecordSample), 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		visitErr := Visit(bytes.NewReader(data), acceptAll{})
		nextErr := drain(data)
		for _, err := range []error{visitErr, nextErr} {
			if err != nil && !classified(err) {
				t.Fatalf("error matches no sentinel: %v", err)
			}
		}
		if (visitErr == nil) != (nextErr == nil) {
			t.Fatalf("Visit returned %v but Next returned %v", visitErr, nextErr)
		}
	})
}

func classified(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
