package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hbbp"
)

// syncBuffer is a bytes.Buffer safe for the daemon goroutine and the
// test to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on ([0-9.:\[\]]+)\n`)

// startDaemon runs the daemon on an ephemeral port and returns its
// address, output buffers, the cancel that triggers shutdown, and a
// channel carrying the exit code.
func startDaemon(t *testing.T, extra ...string) (addr string, stdout, stderr *syncBuffer, stop func(), exited <-chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr = &syncBuffer{}, &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, extra...), stdout, stderr)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], stdout, stderr, cancel, code
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never printed its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sendProfiles delivers n deterministic profiles as one agent and
// returns them.
func sendProfiles(t *testing.T, addr, tenant, agent string, epoch uint64, n int) []*hbbp.StoredProfile {
	t.Helper()
	ctx := context.Background()
	c, err := hbbp.Dial(ctx, addr, hbbp.FleetClientConfig{Tenant: tenant, Agent: agent})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(42))
	var sent []*hbbp.StoredProfile
	for i := 0; i < n; i++ {
		p := &hbbp.StoredProfile{
			Workloads: []hbbp.WorkloadWeight{{Name: "gcc", Runs: 1}},
			Ops: []hbbp.OpMass{
				{Mnemonic: "add", Ring: 3, Mass: uint64(1 + rng.Intn(1000))},
				{Mnemonic: "mov", Ring: 3, Mass: uint64(1 + rng.Intn(1000))},
			},
		}
		if err := c.Send(ctx, epoch, p); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		sent = append(sent, p)
	}
	return sent
}

// TestDaemonIngestAndGracefulExit drives the daemon end to end: serve
// on an ephemeral port, ingest real profiles over the wire, shut down
// via context (the signal path), and check the exit code, the
// accounting summary and the atomically saved series.
func TestDaemonIngestAndGracefulExit(t *testing.T) {
	dir := t.TempDir()
	addr, stdout, stderr, stop, exited := startDaemon(t, "-save-dir", dir)
	sent := sendProfiles(t, addr, "acme", "host-1", 3, 4)

	stop()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code = %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit; stderr:\n%s", stderr.String())
	}

	out := stdout.String()
	if !strings.Contains(out, "tenant acme: merged=4 batches=4 duplicates=0 shed=0 rejected=0 corrupt=0 epochs=1") {
		t.Errorf("final summary wrong:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "draining in-flight ingests") {
		t.Errorf("no drain message:\n%s", stderr.String())
	}

	// The saved series must reopen, and its epoch-3 window must equal
	// the offline merge.
	sdir := filepath.Join(dir, "acme.series")
	series, err := hbbp.OpenSeries(sdir)
	if err != nil {
		t.Fatalf("saved series does not open: %v", err)
	}
	got, spans := series.Window(3, 3)
	if len(spans) != 1 || spans[0] != (hbbp.SeriesSpan{Start: 3, End: 3}) {
		t.Fatalf("saved series spans for epoch 3 = %v, want one raw window", spans)
	}
	var a, b bytes.Buffer
	if err := hbbp.SaveProfile(&a, got); err != nil {
		t.Fatal(err)
	}
	if err := hbbp.SaveProfile(&b, hbbp.MergeProfiles(sent...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("saved aggregate diverges from offline merge of the sent profiles")
	}
	// No temp debris from the atomic writes.
	for _, d := range []string{dir, sdir} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".hbbprof-") {
				t.Errorf("atomic write left temp file %s in %s", e.Name(), d)
			}
		}
	}
}

// TestDaemonSaveDirValidatedUpFront pins that a bad -save-dir fails
// before serving, with an actionable message.
func TestDaemonSaveDirValidatedUpFront(t *testing.T) {
	var stdout, stderr syncBuffer
	code := run(context.Background(), []string{"-listen", "127.0.0.1:0",
		"-save-dir", filepath.Join(t.TempDir(), "missing")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-save-dir") {
		t.Fatalf("error does not name the flag:\n%s", stderr.String())
	}

	// A file where a directory should be is equally fatal.
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr = syncBuffer{}
	code = run(context.Background(), []string{"-listen", "127.0.0.1:0", "-save-dir", file}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "not a directory") {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
}

// TestDaemonBadListenAddr pins the listen failure path.
func TestDaemonBadListenAddr(t *testing.T) {
	var stdout, stderr syncBuffer
	code := run(context.Background(), []string{"-listen", "256.0.0.1:bogus"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Fatalf("error not actionable:\n%s", stderr.String())
	}
}

// TestDaemonStatsEvery pins the periodic accounting snapshot.
func TestDaemonStatsEvery(t *testing.T) {
	addr, _, stderr, stop, exited := startDaemon(t, "-stats-every", "30ms")
	sendProfiles(t, addr, "acme", "host-1", 1, 2)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(stderr.String(), "tenant acme: merged=2") {
		if time.Now().After(deadline) {
			t.Fatalf("no periodic stats line; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	<-exited
}

// TestDaemonUsageError pins flag errors exit 2 without serving.
func TestDaemonUsageError(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
