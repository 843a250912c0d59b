package collector

// LOST-record parity: the drop accounting a collection emits
// (perffile.Lost records, one per starved counter) must survive the
// serialize→replay round trip bit-identically. The fleet ingest tier
// inherits its "drops are always accounted" contract from this layer,
// so these tests pin the bottom of that chain: zero-drop records,
// multi-counter accumulation, unknown counters, and byte-stable
// re-serialization.

import (
	"bytes"
	"context"
	"testing"

	"hbbp/internal/perffile"
	"hbbp/internal/pmu"
)

// buildLostStream serializes a synthetic collection through the same
// WriterSink a live run uses: a few samples on both counters
// interleaved with Lost records, including accumulation on one
// counter, an explicit zero-drop record and a record for a counter
// this pipeline does not know.
func buildLostStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := perffile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := &WriterSink{W: w}

	ebsEvent := uint8(pmu.InstRetiredPrecDist)
	lbrEvent := uint8(pmu.BrInstRetiredNearTaken)
	sink.Sample(&perffile.Sample{Event: ebsEvent, IP: 0x40, Ring: 3})
	sink.Lost(perffile.Lost{Count: 7, Event: ebsEvent})
	sink.Sample(&perffile.Sample{Event: lbrEvent, IP: 0x80, Ring: 3,
		Stack: []perffile.Branch{{From: 0x80, To: 0x40}}})
	sink.Lost(perffile.Lost{Count: 11, Event: lbrEvent})
	// Accumulation: a second report on the same counter adds up.
	sink.Lost(perffile.Lost{Count: 5, Event: ebsEvent})
	// Zero drops is a legal record and must not disturb the totals.
	sink.Lost(perffile.Lost{Count: 0, Event: lbrEvent})
	// A counter unknown to the EBS/LBR sinks: carried by the format,
	// ignored by this pipeline's accounting.
	sink.Lost(perffile.Lost{Count: 3, Event: 200})
	sink.Sample(&perffile.Sample{Event: ebsEvent, IP: 0x44, Ring: 0})

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLostRecordsSurviveSerializeReplay pins the totals: LostEBS and
// LostLBR re-derived from the stream equal the serialized drop
// reports — accumulated across records, zero-drop records included,
// unknown counters excluded.
func TestLostRecordsSurviveSerializeReplay(t *testing.T) {
	stream := buildLostStream(t)
	res, err := ReplayResultContext(context.Background(), bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ReplayResultContext: %v", err)
	}
	if res.LostEBS != 7+5 {
		t.Errorf("LostEBS = %d, want 12 (7 then 5, accumulated)", res.LostEBS)
	}
	if res.LostLBR != 11 {
		t.Errorf("LostLBR = %d, want 11 (the zero-drop record adds nothing)", res.LostLBR)
	}
	if len(res.EBSIPs) != 2 || len(res.Stacks) != 1 {
		t.Errorf("samples disturbed by lost records: %d EBS, %d stacks", len(res.EBSIPs), len(res.Stacks))
	}
	// The unknown counter reaches custom sinks even though the
	// built-in accounting ignores it.
	var unknown uint64
	probe := lostProbe{event: 200, total: &unknown}
	if err := ReplayContext(context.Background(), bytes.NewReader(stream), probe); err != nil {
		t.Fatal(err)
	}
	if unknown != 3 {
		t.Errorf("unknown-counter lost = %d, want 3 delivered to custom sinks", unknown)
	}
}

// lostProbe counts Lost records for one event id.
type lostProbe struct {
	event uint8
	total *uint64
}

func (p lostProbe) Sample(*perffile.Sample) {}
func (p lostProbe) Lost(l perffile.Lost) {
	if l.Event == p.event {
		*p.total += l.Count
	}
}

// TestLostRecordsReserializeByteStable pins the fixpoint: replaying a
// stream through a WriterSink reproduces the stream byte for byte —
// Lost records included — and a second generation reproduces it
// again. Serialization is its own inverse on this record set.
func TestLostRecordsReserializeByteStable(t *testing.T) {
	gen0 := buildLostStream(t)
	rewrite := func(in []byte) []byte {
		var buf bytes.Buffer
		w, err := perffile.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := ReplayContext(context.Background(), bytes.NewReader(in), &WriterSink{W: w}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	gen1 := rewrite(gen0)
	if !bytes.Equal(gen0, gen1) {
		t.Fatal("replay→rewrite changed the byte stream")
	}
	gen2 := rewrite(gen1)
	if !bytes.Equal(gen1, gen2) {
		t.Fatal("second rewrite generation diverged")
	}
}

// TestLiveLostParityUnderCollisions forces real PMI-collision drops —
// both counters at period 1, so overflows constantly coincide — and
// pins that the live drop totals survive the raw file round trip.
// This is the live-path proof that LOST records are not decorative:
// the collection genuinely drops samples and the replayed accounting
// says exactly how many.
func TestLiveLostParityUnderCollisions(t *testing.T) {
	p, main := mixedProgram(t)
	var raw bytes.Buffer
	live, err := Collect(p, main, Options{
		EBSPeriod: 1, LBRPeriod: 1, Scale: 1, Seed: 42, RawOut: &raw,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if live.LostEBS+live.LostLBR == 0 {
		t.Fatal("period-1 collection dropped nothing; the collision scenario lost its teeth")
	}
	replayed, err := ReplayResultContext(context.Background(), bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("ReplayResultContext: %v", err)
	}
	if replayed.LostEBS != live.LostEBS || replayed.LostLBR != live.LostLBR {
		t.Errorf("lost counts diverged across the round trip: replay %d/%d, live %d/%d",
			replayed.LostEBS, replayed.LostLBR, live.LostEBS, live.LostLBR)
	}
	if len(replayed.EBSIPs) != len(live.EBSIPs) || len(replayed.Stacks) != len(live.Stacks) {
		t.Errorf("sample sets diverged: replay %d/%d, live %d/%d",
			len(replayed.EBSIPs), len(replayed.Stacks), len(live.EBSIPs), len(live.Stacks))
	}
}
