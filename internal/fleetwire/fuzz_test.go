package fleetwire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame drives the frame decoder with arbitrary bytes,
// mirroring the perffile/profstore fuzz pattern: ReadFrame must never
// panic, every error must classify under the sentinel set, and any
// frame it accepts must re-encode to exactly the bytes it consumed
// (the codec is its own inverse).
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: valid frames of each type, the batch codecs'
	// structural rejections, the interesting framing failure shapes,
	// and a back-to-back pair.
	f.Add(AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Tenant: "t", Agent: "a"})))
	f.Add(AppendFrame(nil, FrameWelcome, AppendWelcome(nil, Welcome{LastSeq: 12})))
	batch := AppendProfileBatch(nil, []BatchEntry{
		{Seq: 1, Epoch: 2, Profile: []byte("HBBPROF1")},
		{Seq: 2, Epoch: 2, Profile: []byte("HBBPROF1")},
	})
	f.Add(AppendFrame(nil, FrameProfileBatch, batch))
	f.Add(AppendFrame(nil, FrameAckBatch, AppendAckBatch(nil, []BatchVerdict{
		{Seq: 1, Status: BatchMerged},
		{Seq: 2, Status: BatchNacked, Code: NackOverloaded, Msg: "q"},
	})))
	f.Add(AppendFrame(nil, FrameProfileBatch, AppendProfileBatch(nil, nil)))
	f.Add(AppendFrame(nil, FrameProfileBatch, AppendProfileBatch(nil, []BatchEntry{{Seq: 5}, {Seq: 3}})))
	f.Add(AppendFrame(nil, FrameProfileBatch, batch[:len(batch)-3]))
	f.Add([]byte{})
	f.Add([]byte{byte(FrameAckBatch)})
	f.Add([]byte{byte(FrameProfileBatch), 0xFF, 0xFF, 0xFF, 0xFF})
	valid := AppendFrame(nil, FrameAckBatch, AppendAckBatch(nil, []BatchVerdict{{Seq: 3}}))
	f.Add(valid[:len(valid)-1])
	corrupt := append([]byte(nil), valid...)
	corrupt[2] ^= 0x40
	f.Add(corrupt)
	f.Add(append(AppendFrame(nil, FrameHello, nil), AppendFrame(nil, FrameAckBatch, nil)...))

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), limit)
		if err != nil {
			if err == io.EOF {
				return
			}
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameCorrupt) &&
				!errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		// An accepted frame must re-encode to the consumed prefix.
		enc := AppendFrame(nil, typ, payload)
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("accepted frame does not re-encode to its own bytes (type %v, %d payload bytes)",
				typ, len(payload))
		}
		// Accepted payloads feed the message parsers, which must not
		// panic either and must classify their rejections.
		var perr error
		switch typ {
		case FrameHello:
			_, perr = ParseHello(payload)
		case FrameWelcome:
			_, perr = ParseWelcome(payload)
		case FrameProfileBatch:
			_, perr = ParseProfileBatch(payload)
		case FrameAckBatch:
			_, perr = ParseAckBatch(payload)
		}
		if perr != nil && !errors.Is(perr, ErrProtocol) {
			t.Fatalf("unclassified payload error for %v: %v", typ, perr)
		}
	})
}
