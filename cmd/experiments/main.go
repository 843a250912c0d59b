// Command experiments regenerates the paper's tables and figures
// through the public hbbp library.
//
// Usage:
//
//	experiments [-experiment NAME] [-only NAMES] [-fast] [-seed N] [-parallel N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	experiments -list-workloads
//
// NAME is one of table1..table8, figure1..figure4, or "all" (default).
// -only takes a comma-separated subset (e.g. -only table1,figure2):
// the subset builds at once, every run it needs is collected exactly
// once through the shared run cache, and the experiments render in the
// order given. -fast trims workload repeats for a quick smoke run; the
// numbers keep their shape but carry more sampling noise. -parallel is
// the run budget: how many collection runs execute at once (0 = all
// cores, 1 = one at a time); the rendered numbers are identical at any
// setting. -list-workloads prints the workload registry (the workload
// set the experiments draw from) and exits.
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// experiment run itself (go tool pprof reads them) — the knob used to
// find and verify the merge-kernel optimizations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hbbp"
)

func main() {
	experiment := flag.String("experiment", "all",
		"experiment to run: "+strings.Join(hbbp.ExperimentNames(), ", ")+", or all")
	only := flag.String("only", "",
		"comma-separated experiment subset, built at once over one run cache (overrides -experiment)")
	fast := flag.Bool("fast", false, "reduced repeats for a quick run")
	seed := flag.Int64("seed", 1, "base random seed")
	parallel := flag.Int("parallel", 0, "collection runs at once (0 = all cores, 1 = one at a time)")
	listWorkloads := flag.Bool("list-workloads", false, "list the workload registry and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live mass
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}

	if *listWorkloads {
		for _, info := range hbbp.Workloads() {
			fmt.Printf("%-22s %-24s %s\n", info.Name, info.Class, info.Description)
		}
		return
	}

	opts := []hbbp.Option{
		hbbp.WithSeed(*seed),
		hbbp.WithParallelism(*parallel),
		hbbp.WithExperimentOutput(os.Stdout),
	}
	if *fast {
		opts = append(opts, hbbp.WithFast(0))
	}
	s, err := hbbp.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	var names []string
	switch {
	case *only != "":
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	case *experiment == "all":
		names = hbbp.ExperimentNames()
	default:
		names = []string{*experiment}
	}

	ctx := context.Background()
	start := time.Now()
	report, err := s.RunExperiments(ctx, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for _, t := range report.Experiments {
		fmt.Fprintf(os.Stderr, "%-10s %8v\n", t.Name, t.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "collected %d runs, reused %d (collection %v)\n",
		report.RunsCollected, report.RunsReused, report.CollectWall.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	// The run's telemetry: every non-zero counter and histogram the
	// instrumented layers (experiment harness, series store)
	// accumulated, in stable order.
	if snap := hbbp.RenderTelemetry(hbbp.TelemetrySnapshot()); snap != "" {
		fmt.Fprintf(os.Stderr, "telemetry:\n%s", snap)
	}
}
