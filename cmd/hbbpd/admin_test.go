package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbbp"
)

var adminLine = regexp.MustCompile(`admin endpoint on ([0-9.:\[\]]+)\n`)

// adminAddr extracts the admin endpoint address the daemon printed.
func adminAddr(t *testing.T, stderr *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := adminLine.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed the admin address; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get fetches one admin URL, returning status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoint drives the whole admin surface in-process: a
// parsing /metrics exposition whose counters match what was ingested,
// a healthy /healthz that flips to 503 the moment shutdown begins
// (inside the -drain-grace window), /slowops, and live pprof.
func TestAdminEndpoint(t *testing.T) {
	addr, _, stderr, stop, exited := startDaemon(t, "-http", "127.0.0.1:0", "-drain-grace", "1s")
	base := "http://" + adminAddr(t, stderr)

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	sendProfiles(t, addr, "acme", "host-1", 1, 3)

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	wantSample := `hbbp_fleetserver_profiles_total{tenant="acme",outcome="merged"} 3`
	if !strings.Contains(body, wantSample) {
		t.Errorf("/metrics missing %q:\n%s", wantSample, body)
	}
	for _, family := range []string{
		"# TYPE hbbp_fleetserver_profiles_total counter",
		"# TYPE hbbp_fleetserver_ingest_seconds histogram",
		"# TYPE hbbp_fleetserver_queue_depth gauge",
		"# TYPE hbbp_fleetserver_connections_total counter",
		"# TYPE hbbp_tsstore_epoch_appends_total counter", // process-wide section
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if problems := lintMetrics(body); len(problems) > 0 {
		t.Errorf("/metrics does not parse: %v", problems)
	}

	if code, body := get(t, base+"/slowops"); code != http.StatusOK || !strings.Contains(body, "no operations over") {
		t.Errorf("/slowops = %d %q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body misses goroutine profile", code)
	}

	// Shutdown: /healthz flips to 503 during the drain-grace window,
	// then the daemon exits cleanly.
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, base+"/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "draining") {
				t.Errorf("/healthz body = %q, want draining", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never flipped to 503; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code = %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit; stderr:\n%s", stderr.String())
	}
}

// lintMetrics is a minimal structural check of the Prometheus text
// format, deliberately duplicated from the telemetry package's test
// helper: the import-boundary rule keeps commands off internal
// packages, and an admin endpoint needs its own proof that the bytes
// it serves parse.
func lintMetrics(body string) []string {
	var problems []string
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			problems = append(problems, "no # TYPE for: "+line)
			continue
		}
		f := strings.Fields(line)
		val := f[len(f)-1]
		if val != "+Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				problems = append(problems, "bad value: "+line)
			}
		}
	}
	return problems
}

// TestNoAdminFlagServesNothing pins that the admin endpoint is opt-in:
// without -http the daemon never prints an admin address.
func TestNoAdminFlagServesNothing(t *testing.T) {
	_, _, stderr, stop, exited := startDaemon(t)
	stop()
	<-exited
	if adminLine.MatchString(stderr.String()) {
		t.Errorf("daemon advertised an admin endpoint without -http:\n%s", stderr.String())
	}
}

// TestStatsGolden pins the accounting line format — the bytes
// operators grep — against a committed fixture.
func TestStatsGolden(t *testing.T) {
	st := hbbp.FleetServerStats{
		Accepted:          7,
		HandshakeFailures: 1,
		ActiveConns:       2,
		Tenants: []hbbp.FleetTenantStats{
			{Tenant: "acme", Merged: 41, Batches: 3, Duplicates: 2, Shed: 5,
				Rejected: 1, Corrupt: 4, Epochs: []uint64{1, 2}},
			{Tenant: "globex", Merged: 9, Epochs: []uint64{1},
				Windows: []hbbp.SeriesSpan{{Start: 0, End: 3}, {Start: 4, End: 4}}},
		},
	}
	got := formatStats(st)
	path := filepath.Join("testdata", "golden_stats.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	if got != string(want) {
		t.Errorf("stats format diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
