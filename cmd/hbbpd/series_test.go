package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"hbbp"
)

// TestDaemonRetainRollsAndSavesSeries drives the daemon's time axis
// end to end: with -retain, profiles spanning many epochs roll out of
// live aggregators into a bounded series (the stats line shows few
// live epochs plus retained windows), and shutdown saves a series
// directory whose merged content is bit-identical to the offline flat
// merge of everything acked — folds included.
func TestDaemonRetainRollsAndSavesSeries(t *testing.T) {
	saveDir := t.TempDir()
	addr, stdout, stderr, stop, exited := startDaemon(t,
		"-retain", "1:2,4:0", "-save-dir", saveDir)

	var sent []*hbbp.StoredProfile
	for epoch := uint64(0); epoch < 12; epoch++ {
		sent = append(sent, sendProfiles(t, addr, "acme", "agent-1", epoch, 2)...)
	}

	stop()
	if code := <-exited; code != 0 {
		t.Fatalf("daemon exited %d; stderr:\n%s", code, stderr.String())
	}

	// The final stats line proves bounded memory: live epochs stay at
	// the lag frontier while history lives in retained windows.
	out := stdout.String()
	if !strings.Contains(out, "windows=") {
		t.Fatalf("final stats carry no retained-window count:\n%s", out)
	}
	if strings.Contains(out, "epochs=12") {
		t.Fatalf("all 12 epochs still live; rolling never happened:\n%s", out)
	}

	// The saved series is the whole story: offline flat merge equality.
	sdir := filepath.Join(saveDir, "acme.series")
	if !strings.Contains(stderr.String(), "saved acme series") {
		t.Fatalf("no series save confirmation:\n%s", stderr.String())
	}
	series, err := hbbp.OpenSeries(sdir)
	if err != nil {
		t.Fatalf("reopening saved series: %v", err)
	}
	lo, hi, ok := series.Bounds()
	if !ok || lo != 0 || hi != 11 {
		t.Fatalf("series bounds = %d-%d (%v), want 0-11", lo, hi, ok)
	}
	if series.Len() >= 12 {
		t.Fatalf("series retains %d windows over 12 epochs; the ladder folded nothing", series.Len())
	}
	var got, want bytes.Buffer
	if err := hbbp.SaveProfile(&got, series.Merged()); err != nil {
		t.Fatal(err)
	}
	if err := hbbp.SaveProfile(&want, hbbp.MergeProfiles(sent...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("saved series diverges from offline flat merge of the acked profiles")
	}
}

// TestDaemonSavesRawSeriesWithoutRetain pins the save path without
// -retain: epochs that rolled before shutdown and the epoch still live
// at it land in the saved series alike, as one raw window each, equal
// to the offline merge of that epoch's acked profiles.
func TestDaemonSavesRawSeriesWithoutRetain(t *testing.T) {
	saveDir := t.TempDir()
	addr, _, stderr, stop, exited := startDaemon(t, "-save-dir", saveDir)
	sent := map[uint64][]*hbbp.StoredProfile{}
	for epoch := uint64(0); epoch < 3; epoch++ {
		sent[epoch] = sendProfiles(t, addr, "acme", "agent-1", epoch, 2)
	}
	stop()
	if code := <-exited; code != 0 {
		t.Fatalf("daemon exited %d; stderr:\n%s", code, stderr.String())
	}

	series, err := hbbp.OpenSeries(filepath.Join(saveDir, "acme.series"))
	if err != nil {
		t.Fatalf("reopening saved series: %v", err)
	}
	spans := series.Spans()
	if len(spans) != 3 {
		t.Fatalf("saved series spans = %v, want three raw windows", spans)
	}
	for i, span := range spans {
		e := uint64(i)
		if span != (hbbp.SeriesSpan{Start: e, End: e}) {
			t.Fatalf("window %d spans %v, want raw epoch %d", i, span, e)
		}
		got, _ := series.At(i)
		var a, b bytes.Buffer
		if err := hbbp.SaveProfile(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := hbbp.SaveProfile(&b, hbbp.MergeProfiles(sent[e]...)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("saved epoch %d diverges from the offline merge of its acked profiles", e)
		}
	}
}

// TestDaemonRetainBadSpecFailsFast pins the usage contract: a
// malformed ladder is refused before the listener opens.
func TestDaemonRetainBadSpecFailsFast(t *testing.T) {
	var stdout, stderr syncBuffer
	code := run(t.Context(), []string{"-listen", "127.0.0.1:0", "-retain", "4:4"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("bad -retain exited %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "listening on") {
		t.Fatalf("daemon started serving before validating -retain:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "-retain") {
		t.Fatalf("message does not name the flag:\n%s", stderr.String())
	}
}
