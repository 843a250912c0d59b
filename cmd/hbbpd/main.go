// Command hbbpd is the fleet ingest daemon: it serves the hbbp wire
// protocol, merging stored profiles sent by agents (hbbp.Dial /
// examples/fleet) into per-tenant, per-epoch aggregates with exact
// drop accounting. It is a thin shell over the public hbbp library.
//
// Usage:
//
//	hbbpd [-listen ADDR] [-http ADDR] [-queue N] [-workers N]
//	      [-max-frame BYTES] [-enqueue-wait D] [-read-timeout D]
//	      [-write-timeout D] [-stats-every D] [-save-dir DIR]
//	      [-drain-timeout D] [-drain-grace D] [-retain SPEC]
//	      [-epoch-lag N]
//
// With -http, the daemon also serves an admin endpoint: /metrics in
// the Prometheus text format (every counter the accounting lines are
// rendered from, plus latency histograms, queue gauges and client
// metrics — one registry is the single source of truth), /healthz
// (200 while serving, 503 once shutdown begins), /slowops (the
// threshold-gated slow-operation log) and the standard /debug/pprof
// profiles. On a shutdown signal the daemon flips /healthz to 503,
// waits -drain-grace (the load-balancer deregistration window; 0 by
// default), then drains.
//
// The daemon prints "listening on ADDR" once the socket is open (with
// -listen :0 this is how the chosen port is discovered), serves until
// SIGINT/SIGTERM, then shuts down gracefully: in-flight profiles
// already admitted to the ingest queue are merged and acked before
// connections close, bounded by -drain-timeout. On exit it prints one
// accounting line per tenant — merged, duplicates, shed, rejected,
// corrupt — and, when -save-dir is set, writes each tenant/epoch
// aggregate as a stored profile (atomically: temp file plus rename,
// so a full disk or a crash never leaves a truncated profile behind).
//
// Overload behavior is explicit: when the bounded ingest queue stays
// full past -enqueue-wait, the server refuses the profile with a
// retryable overload nack and counts the shed against the tenant;
// nothing is dropped silently and memory stays bounded.
//
// With -retain, the daemon also bounds its memory along the time
// axis: completed epochs (those -epoch-lag behind a tenant's newest)
// roll out of their live aggregators into a per-tenant profile series
// downsampled by the given ladder — e.g. "1:8,4:4,16:0" keeps the
// last 8 epochs raw, the 16 before those at 4 epochs per window, and
// everything older at 16. Rolling is lossless: windowed queries over
// the series merge bit-identical to the flat merge of the acked
// profiles. On shutdown with -save-dir, each tenant's series is saved
// to DIR/TENANT.series/ (readable by hbbp -series); without -retain
// the historical per-epoch profile files are written instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hbbp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, returning the process
// exit code so tests can drive the daemon without exec. Cancelling
// ctx triggers the same graceful shutdown a signal does.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbbpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7690", "address to serve the fleet wire protocol on (use :0 for an ephemeral port)")
	httpAddr := fs.String("http", "", "serve the admin endpoint (/metrics, /healthz, /slowops, /debug/pprof) on this address (empty = off)")
	drainGrace := fs.Duration("drain-grace", 0, "after a shutdown signal, keep serving with /healthz at 503 this long before draining (the LB deregistration window)")
	queue := fs.Int("queue", 0, "ingest queue depth (0 = default)")
	workers := fs.Int("workers", 0, "ingest worker goroutines (0 = GOMAXPROCS)")
	maxFrame := fs.Int("max-frame", 0, "largest accepted wire frame in bytes (0 = default 16MiB)")
	enqueueWait := fs.Duration("enqueue-wait", 0, "backpressure window before shedding on a full queue (0 = default 50ms)")
	readTimeout := fs.Duration("read-timeout", 0, "per-frame read deadline (0 = default 30s)")
	writeTimeout := fs.Duration("write-timeout", 0, "per-frame write deadline (0 = default 10s)")
	statsEvery := fs.Duration("stats-every", 0, "print an accounting snapshot this often (0 = only at exit)")
	saveDir := fs.String("save-dir", "", "write each tenant/epoch aggregate (or, with -retain, each tenant's series) to this directory on shutdown")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight ingests to drain")
	retain := fs.String("retain", "", "roll completed epochs into a downsampled series by this WIDTH:KEEP,... ladder (e.g. 1:8,4:4,16:0; \"default\" = "+hbbp.DefaultRetention().String()+"); empty keeps every epoch live")
	epochLag := fs.Uint64("epoch-lag", 1, "epochs behind a tenant's newest before an epoch is considered complete and rolled (with -retain)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var retention hbbp.RetentionPolicy
	if *retain == "default" {
		retention = hbbp.DefaultRetention()
	} else if *retain != "" {
		var err error
		if retention, err = hbbp.ParseRetention(*retain); err != nil {
			fmt.Fprintf(stderr, "hbbpd: -retain: %v\n", err)
			return 2
		}
	}

	if *saveDir != "" {
		// Fail before serving, not after a day of ingestion.
		if info, err := os.Stat(*saveDir); err != nil {
			fmt.Fprintf(stderr, "hbbpd: -save-dir %s: %v\n", *saveDir, err)
			return 1
		} else if !info.IsDir() {
			fmt.Fprintf(stderr, "hbbpd: -save-dir %s is not a directory\n", *saveDir)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "hbbpd: listen %s: %v\n", *listen, err)
		return 1
	}
	reg := hbbp.NewTelemetry()
	s := hbbp.Serve(ln, hbbp.FleetServerConfig{
		Queue:        *queue,
		Workers:      *workers,
		MaxFrame:     *maxFrame,
		EnqueueWait:  *enqueueWait,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		Retention:    retention,
		EpochLag:     *epochLag,
		// A registry per run keeps a daemon's ledgers distinct from
		// any other server in the process (the in-process tests run
		// several); /metrics serves this registry plus the
		// process-wide one, so the exposition still covers the
		// package-level instrumentation (series appends, folds
		// and queries) the daemon's ingestion drives.
		Telemetry: reg,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})
	fmt.Fprintf(stderr, "hbbpd: listening on %s\n", s.Addr())

	// draining gates /healthz: it flips the instant a shutdown signal
	// arrives, -drain-grace before connections actually drain, so a
	// load balancer polling /healthz stops routing new agents while
	// the daemon still answers the ones it has.
	var draining atomic.Bool
	if *httpAddr != "" {
		adminLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "hbbpd: admin listen %s: %v\n", *httpAddr, err)
			return 1
		}
		admin := &http.Server{Handler: adminMux(reg, &draining)}
		go admin.Serve(adminLn)
		defer admin.Close()
		fmt.Fprintf(stderr, "hbbpd: admin endpoint on %s\n", adminLn.Addr())
	}

	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					printStats(stderr, s.Stats())
				}
			}
		}()
	}

	<-ctx.Done()
	draining.Store(true)
	if *drainGrace > 0 {
		fmt.Fprintf(stderr, "hbbpd: shutdown signaled, /healthz now 503, draining in %s\n", *drainGrace)
		time.Sleep(*drainGrace)
	}
	fmt.Fprintln(stderr, "hbbpd: shutting down, draining in-flight ingests")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := s.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "hbbpd: drain incomplete after %s: %v\n", *drainTimeout, err)
		code = 1
	}

	stats := s.Stats()
	printStats(stdout, stats)
	if *saveDir != "" {
		var err error
		if len(retention.Levels) > 0 {
			err = saveSeries(s, stats, *saveDir, stderr)
		} else {
			err = saveSnapshots(s, stats, *saveDir, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hbbpd: %v\n", err)
			code = 1
		}
	}
	return code
}

// adminMux builds the admin endpoint: the Prometheus exposition, a
// drain-aware health check, the slow-op log and the standard pprof
// profiles. /metrics concatenates the daemon's registry (the storage
// the accounting lines are rendered from) with the process-wide one
// (package-level instrumentation the ingestion drives); their family
// names are disjoint, so the result is one well-formed exposition.
func adminMux(reg *hbbp.Telemetry, draining *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := hbbp.WriteMetricsText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/slowops", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, reg.Slow().Render())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// printStats writes one accounting line per tenant plus a connection
// summary — the human-readable form of the drop ledger.
func printStats(w io.Writer, st hbbp.FleetServerStats) {
	io.WriteString(w, formatStats(st))
}

// formatStats renders the accounting snapshot. Every number is read
// from the process-wide telemetry registry through Stats() — the same
// storage /metrics exposes — so the lines and the exposition can
// never disagree. The format is pinned by a golden test.
func formatStats(st hbbp.FleetServerStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "conns: accepted=%d active=%d handshake-failures=%d\n",
		st.Accepted, st.ActiveConns, st.HandshakeFailures)
	for _, ts := range st.Tenants {
		fmt.Fprintf(&b, "tenant %s: merged=%d batches=%d duplicates=%d shed=%d rejected=%d corrupt=%d epochs=%d",
			ts.Tenant, ts.Merged, ts.Batches, ts.Duplicates, ts.Shed, ts.Rejected, ts.Corrupt, len(ts.Epochs))
		if len(ts.Windows) > 0 {
			fmt.Fprintf(&b, " windows=%d", len(ts.Windows))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// saveSnapshots writes every tenant/epoch aggregate to dir, each via
// an atomic temp-file-plus-rename so no partial profile can survive a
// failure. Stats() already reports tenants and epochs sorted (the
// fleetserver tests pin that), so the walk is deterministic as-is.
// The first error aborts the walk.
func saveSnapshots(s *hbbp.FleetServer, st hbbp.FleetServerStats, dir string, stderr io.Writer) error {
	for _, ts := range st.Tenants {
		for _, epoch := range ts.Epochs {
			p := s.Snapshot(ts.Tenant, epoch)
			if p == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-epoch%d.hbbprof", safeName(ts.Tenant), epoch))
			if err := writeProfileAtomic(path, p); err != nil {
				return fmt.Errorf("saving %s: %w", path, err)
			}
			fmt.Fprintf(stderr, "hbbpd: saved %s/%d to %s\n", ts.Tenant, epoch, path)
		}
	}
	return nil
}

// saveSeries writes each tenant's full time axis — rolled windows
// plus still-live epochs — as a series directory under dir, readable
// by hbbp -series. The series' own save path is atomic per file with
// the index written last, so a crash leaves a consistent store.
func saveSeries(s *hbbp.FleetServer, st hbbp.FleetServerStats, dir string, stderr io.Writer) error {
	for _, ts := range st.Tenants {
		series := s.SeriesSnapshot(ts.Tenant)
		if series.Len() == 0 {
			continue
		}
		sdir := filepath.Join(dir, safeName(ts.Tenant)+".series")
		if err := series.Save(sdir); err != nil {
			return fmt.Errorf("saving series for %s: %w", ts.Tenant, err)
		}
		lo, hi, _ := series.Bounds()
		fmt.Fprintf(stderr, "hbbpd: saved %s series (%d windows, epochs %d-%d) to %s\n",
			ts.Tenant, series.Len(), lo, hi, sdir)
	}
	return nil
}

// safeName maps a tenant name to a filesystem-safe file stem.
func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// writeProfileAtomic stores a profile at path via a same-directory
// temp file and rename: readers see either the old file or the
// complete new one, never a truncated write.
func writeProfileAtomic(path string, p *hbbp.StoredProfile) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hbbprof-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := hbbp.SaveProfile(tmp, p); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
