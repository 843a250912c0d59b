// Command hbbp-bench is the repository's end-to-end benchmark. It
// measures the paper's path (collection, HBBP analysis, capture and
// encoding of a workload profile) and the fleet's path (wire ingest,
// merge, epoch roll and fold, windowed query and trend) on four
// workloads, checks that every operation's output is correct, and
// reports the metrics BENCHMARK.json names. See README.md.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	hbbp-bench -workload NAME -seed N -seconds S -trace 0|1
//	hbbp-bench -seed N [-out FILE]      all four workloads
//	hbbp-bench -compare BASE NEW        compare two result files
//
// Each workload runs in a child process of its own. The last line of
// standard output of a one-workload run is a JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when a correctness check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbbp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default all four)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans, as WORKLOAD-SEED.json")
	out := fs.String("out", "", "append each run's result to this JSON-lines file, for -compare")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: BASE NEW")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound (for -compare)")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON (the parent's protocol)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hbbp-bench: -compare takes two result files: BASE NEW")
			return 2
		}
		return runCompare(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) ||
		(*workload != "" && !slices.Contains(workloadNames, *workload)) {
		fmt.Fprintln(stderr, "hbbp-bench: bad arguments; -workload is one of", strings.Join(workloadNames, ", "),
			"-seconds is positive, -trace is 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	if *child {
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp-bench: %s: %v\n", cfg.workload, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "hbbp-bench:", err)
			return 1
		}
		return 0
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	// An interrupt or termination kills the running child, waits for it
	// and runs no further workload.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintln(stdout, "machine:", machine())
	status := 0
	var last *result
	for _, name := range names {
		cfg.workload = name
		res, err := runChild(ctx, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp-bench: %s: %v\n", name, err)
			if ctx.Err() != nil {
				return 1
			}
			// The other workloads still run; this one has no result.
			status = 1
			continue
		}
		report(stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "hbbp-bench:", err)
				return 1
			}
		}
		status = max(status, exitCode(res))
		last = res
	}
	if len(names) == 1 && last != nil {
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "hbbp-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

// exitCode is the command's status for a run: non-zero when any
// operation failed its correctness check.
func exitCode(res *result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// runChild runs one workload in a child process of this executable and
// returns the result it printed. The child is killed when ctx ends or
// childTimeout passes.
func runChild(ctx context.Context, cfg config, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", cfg.traceDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// report prints a run's metrics by name with their units.
func report(w io.Writer, res *result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s seed %d, %gs, %s: ops %d ops_failed %d correct %t\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	list := func(m map[string]metric, tag string) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-38s %14.6g %-8s%s\n", name, m[name].Value, m[name].Unit, tag)
		}
	}
	list(res.Metrics, "")
	list(res.Extra, " (extra)")
}

// appendResult adds one result line to a JSON-lines file.
func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadResults reads a JSON-lines file of results.
func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*result
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: result %d: %w", path, len(out)+1, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return out, nil
}

// machine describes the host a result was measured on.
func machine() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
