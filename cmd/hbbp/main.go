// Command hbbp profiles a built-in workload with Hybrid Basic Block
// Profiling and prints instruction-mix views — the reproduction's
// equivalent of running the paper's collector+analyzer tool on a
// program. It is a thin shell over the public hbbp library.
//
// Usage:
//
//	hbbp -workload NAME [-view top|ext|packing|functions|rings]
//	     [-top N] [-raw FILE] [-replay FILE] [-save FILE] [-trained]
//	     [-seed N]
//	hbbp -merge A,B,C... [-view ...] [-top N]
//	hbbp -diff BEFORE,AFTER [-threshold PP] [-top N]
//	hbbp -series DIR -epoch N [-retain SPEC] [-workload NAME | -merge FILES]
//	hbbp -series DIR [-since N] [-until N] [-view ...] [-top N]
//	hbbp -series DIR -diff SINCE:UNTIL,SINCE:UNTIL [-threshold PP]
//	hbbp -series DIR -trend [-trend-k N] [-trend-threshold PP]
//	hbbp -list
//
// Workloads: any SPEC CPU2006 name (gcc, povray, lbm, ...), the
// paper's case studies (test40, hydro-post, kernel-prime,
// clforward-before, clforward-after, fitter-x87, fitter-sse,
// fitter-avx, fitter-avxfix), the extra scenario families
// (pointer-chase, phase-alternating, megamorphic-branchy,
// callgraph-deep) and the training corpus. -list prints the full
// registry — name, runtime class and description — in sorted order.
//
// -raw FILE additionally writes the raw collection (perf.data-like) to
// FILE; -replay FILE skips the run and analyzes such a file instead,
// streaming its records through the same sinks a live collection uses
// (the workload still selects the program image and sampling periods,
// which the file does not record). -trained trains the decision-tree
// model on the training corpus first (slower); the default uses the
// shipped length-18 rule.
//
// The fleet modes work on stored profiles. -save FILE captures the
// run's result into the mergeable profile-store format. -merge loads
// any number of stored profiles (comma-separated), merges them and
// prints the selected view of the merged fleet mix. -diff loads a
// before,after pair and prints the per-mnemonic share deltas, flagging
// movements of at least -threshold percentage points as regressions.
//
// The time-series modes work on a profile series directory (written
// by this command or by hbbpd -save-dir), adding the epoch
// axis. -series DIR -epoch N appends a profile at epoch N — captured
// from a workload run, or merged from stored profile files when
// -merge is also given — then applies the -retain ladder (e.g.
// "1:8,4:4,16:0", or "default") and saves the store back atomically.
// -series DIR alone queries: -since/-until merge the retained windows
// overlapping that inclusive epoch range (defaults: the whole series)
// and print the selected view. -series with -diff SINCE:UNTIL,
// SINCE:UNTIL diffs two epoch windows of the same series. -trend
// scans the newest -trend-k retained windows and reports every op and
// function whose share of retirement moved monotonically across all
// of them by at least -trend-threshold percentage points — the
// regression detector's shape test: one-window spikes do not qualify.
// All series failures exit non-zero with classified, actionable
// messages (truncated index, mismatched window file, not enough
// windows for the trend).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hbbp"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, returning the process
// exit code so tests can drive the command without exec.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbbp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "test40", "workload to profile")
	view := fs.String("view", "top", "view: top, ext, packing, functions, rings")
	topN := fs.Int("top", 20, "rows for top views")
	rawOut := fs.String("raw", "", "write raw collection data to this file")
	replay := fs.String("replay", "", "analyze a previously written raw file instead of running")
	saveOut := fs.String("save", "", "capture the run into a mergeable stored profile at this file")
	merge := fs.String("merge", "", "merge stored profiles (comma-separated files) and print the fleet view")
	diff := fs.String("diff", "", "diff two stored profiles given as BEFORE,AFTER")
	threshold := fs.Float64("threshold", 1.0, "regression threshold for -diff, in percentage points of share (0 flags every movement)")
	trained := fs.Bool("trained", false, "train the model on the corpus instead of the shipped rule")
	seed := fs.Int64("seed", 1, "random seed")
	list := fs.Bool("list", false, "list available workloads")
	seriesDir := fs.String("series", "", "profile series directory for the time-series modes")
	epoch := fs.Int64("epoch", -1, "with -series: append this run (or -merge FILES) at this epoch (-1 = query mode)")
	retain := fs.String("retain", "", "with -series -epoch: downsample by this WIDTH:KEEP,... ladder after appending (\"default\" = "+hbbp.DefaultRetention().String()+")")
	since := fs.Int64("since", -1, "with -series: first epoch of the query window (-1 = series start)")
	until := fs.Int64("until", -1, "with -series: last epoch of the query window (-1 = series end)")
	trend := fs.Bool("trend", false, "with -series: report ops/functions drifting monotonically across the newest windows")
	trendK := fs.Int("trend-k", 0, "windows a -trend scan covers (0 = default 3)")
	trendThreshold := fs.Float64("trend-threshold", hbbp.DefaultTrendThreshold*100, "minimum -trend drift in percentage points of share")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		infos := hbbp.Workloads()
		wName := len("WORKLOAD")
		for _, info := range infos {
			if len(info.Name) > wName {
				wName = len(info.Name)
			}
		}
		fmt.Fprintf(stdout, "%-*s  %-22s  %s\n", wName, "WORKLOAD", "CLASS", "DESCRIPTION")
		for _, info := range infos {
			fmt.Fprintf(stdout, "%-*s  %-22s  %s\n", wName, info.Name, info.Class, info.Description)
		}
		return 0
	}

	// Resolve the view before any work runs: a mistyped view name must
	// not cost a full collection pass.
	render, ok := map[string]func(*hbbp.PivotTable) string{
		"top": func(t *hbbp.PivotTable) string { return hbbp.Render([]string{"MNEMONIC"}, hbbp.TopMnemonics(t, *topN)) },
		"ext": func(t *hbbp.PivotTable) string { return hbbp.Render([]string{"INST SET"}, hbbp.ExtBreakdown(t)) },
		"packing": func(t *hbbp.PivotTable) string {
			return hbbp.Render([]string{"INST SET", "PACKING"}, hbbp.PackingView(t))
		},
		"functions": func(t *hbbp.PivotTable) string { return hbbp.Render([]string{"FUNCTION"}, hbbp.TopFunctions(t, *topN)) },
		"rings":     func(t *hbbp.PivotTable) string { return hbbp.Render([]string{"RING"}, hbbp.RingBreakdown(t)) },
	}[*view]
	if !ok {
		fmt.Fprintf(stderr, "hbbp: unknown view %q (known: top, ext, packing, functions, rings)\n", *view)
		return 2
	}

	// The time-series modes work on a series directory. -epoch selects
	// append; -trend, -diff and the -since/-until window select the
	// read-only queries.
	if *epoch >= 0 && *seriesDir == "" {
		fmt.Fprintln(stderr, "hbbp: -epoch needs -series DIR to append into")
		return 2
	}
	if *trend && *seriesDir == "" {
		fmt.Fprintln(stderr, "hbbp: -trend needs -series DIR to scan")
		return 2
	}
	if (*since >= 0 || *until >= 0) && *seriesDir == "" {
		fmt.Fprintln(stderr, "hbbp: -since/-until need -series DIR to query")
		return 2
	}
	appendRun := false
	var retention hbbp.RetentionPolicy
	if *seriesDir != "" {
		switch {
		case *trend:
			if *epoch >= 0 || *diff != "" {
				fmt.Fprintln(stderr, "hbbp: -trend cannot be combined with -epoch or -diff")
				return 2
			}
			return runTrend(*seriesDir, *trendK, *trendThreshold/100, *topN, stdout, stderr)
		case *epoch >= 0:
			if *diff != "" {
				fmt.Fprintln(stderr, "hbbp: -epoch (append) cannot be combined with -diff")
				return 2
			}
			// Resolve the ladder before any work — a bad spec must not
			// cost a collection pass or touch the store.
			var err error
			if retention, err = hbbp.ParseRetention(*retain); err != nil {
				fmt.Fprintf(stderr, "hbbp: -retain: %v\n", err)
				return 2
			}
			if *merge != "" {
				// Append pre-captured profiles: no collection run.
				return runSeriesAppendFiles(*seriesDir, uint64(*epoch), strings.Split(*merge, ","), retention, stdout, stderr)
			}
			appendRun = true // run the workload below, append instead of rendering
		case *diff != "":
			return runSeriesDiff(*seriesDir, *diff, *threshold, *topN, stdout, stderr)
		default:
			return runSeriesQuery(*seriesDir, *since, *until, *view, render, stdout, stderr)
		}
	}

	// The fleet modes work entirely on stored profiles: no workload
	// resolution, no collection.
	if *merge != "" && *diff != "" {
		fmt.Fprintln(stderr, "hbbp: -merge and -diff are mutually exclusive")
		return 2
	}
	if *merge != "" {
		return runMerge(strings.Split(*merge, ","), *view, render, stdout, stderr)
	}
	if *diff != "" {
		names := strings.Split(*diff, ",")
		if len(names) != 2 {
			fmt.Fprintf(stderr, "hbbp: -diff needs exactly two files as BEFORE,AFTER (got %d)\n", len(names))
			return 2
		}
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if names[i] == "" {
				fmt.Fprintln(stderr, "hbbp: -diff needs exactly two files as BEFORE,AFTER (empty file name)")
				return 2
			}
		}
		th, ok := shareThreshold(*threshold, stderr)
		if !ok {
			return 2
		}
		return runDiff(names[0], names[1], th, *topN, stdout, stderr)
	}

	w, err := hbbp.LookupWorkload(*workload)
	if err != nil {
		// Unknown workload: a usage error; the lookup error points at
		// -list (which prints name, class and description per entry)
		// and already carries the hbbp: prefix.
		fmt.Fprintf(stderr, "%v\n", err)
		fmt.Fprintln(stderr, "usage: hbbp -workload NAME (or -list to enumerate workloads)")
		return 2
	}

	opts := []hbbp.Option{hbbp.WithSeed(*seed)}
	var rawFile *os.File
	if *rawOut != "" {
		if *replay != "" {
			fmt.Fprintln(stderr, "hbbp: -raw cannot be combined with -replay (the raw file already exists)")
			return 2
		}
		rawFile, err = os.Create(*rawOut)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		defer rawFile.Close()
		opts = append(opts, hbbp.WithRawOutput(rawFile))
	}

	s, err := hbbp.New(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "hbbp: %v\n", err)
		return 1
	}

	model := hbbp.DefaultModel()
	if *trained {
		fmt.Fprintln(stderr, "training model on the corpus...")
		model, err = s.Train(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: training: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "model: %s\n", model.Describe())

	var prof *hbbp.Profile
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		defer f.Close()
		fmt.Fprintf(stderr, "replaying %s for %s (%s)...\n", *replay, w.Name, w.Description)
		prof, err = s.Replay(ctx, w, f)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "replayed %d EBS samples, %d LBR stacks (%d+%d lost)\n",
			len(prof.Collection.EBSIPs), len(prof.Collection.Stacks),
			prof.Collection.LostEBS, prof.Collection.LostLBR)
	} else {
		fmt.Fprintf(stderr, "profiling %s (%s)...\n", w.Name, w.Description)
		prof, err = s.Profile(ctx, w)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		st := prof.Collection.Stats
		fmt.Fprintf(stderr,
			"retired %d instructions (%d kernel), %d EBS samples, %d LBR stacks, overhead %.2f%%\n",
			st.Retired, st.KernelRetired,
			len(prof.Collection.EBSIPs), len(prof.Collection.Stacks),
			(prof.Collection.OverheadFactor()-1)*100)
	}

	if *saveOut != "" {
		sp, err := hbbp.CaptureProfile(prof, w.Name)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		if err := hbbp.SaveProfileFile(*saveOut, sp); err != nil {
			fmt.Fprintf(stderr, "hbbp: -save %s: %v (profile not written; fix the path or free space and re-run)\n",
				*saveOut, err)
			return 1
		}
		fmt.Fprintf(stderr, "saved profile to %s (%d blocks, %d mnemonics, %d retired instructions)\n",
			*saveOut, len(sp.Blocks), len(sp.Ops), sp.TotalMass())
	}

	if appendRun {
		sp, err := hbbp.CaptureProfile(prof, w.Name)
		if err != nil {
			fmt.Fprintf(stderr, "hbbp: %v\n", err)
			return 1
		}
		return appendToSeries(*seriesDir, uint64(*epoch), []*hbbp.StoredProfile{sp}, retention, stdout, stderr)
	}
	fmt.Fprint(stdout, render(hbbp.Pivot(prof, hbbp.ViewOptions{LiveText: true})))
	return 0
}

// shareThreshold converts a -threshold in percentage points into the
// share fraction DiffProfiles takes, refusing a negative one. An
// explicit 0 means "flag every movement": the smallest positive
// threshold, not the library default a zero would otherwise select.
func shareThreshold(pp float64, stderr io.Writer) (float64, bool) {
	if pp < 0 {
		fmt.Fprintf(stderr, "hbbp: -threshold %g is negative\n", pp)
		return 0, false
	}
	if pp == 0 {
		return math.SmallestNonzeroFloat64, true
	}
	return pp / 100, true
}

// storedPivot picks the pivot a view of a stored profile reads: mix
// views read the op-level pivot; the functions view needs code
// locations, which live on the block-level pivot (stored profiles keep
// the two breakdowns separate).
func storedPivot(p *hbbp.StoredProfile, view string) *hbbp.PivotTable {
	if view == "functions" {
		return hbbp.StoredBlockPivot(p)
	}
	return hbbp.StoredPivot(p)
}

// loadStoredList loads the -merge file list. The whole list is
// validated before anything is opened: a malformed invocation is a
// usage error (exit 2), not a half-completed merge. A file that fails
// to load exits 1; 0 means every profile loaded.
func loadStoredList(names []string, stderr io.Writer) ([]*hbbp.StoredProfile, int) {
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if names[i] == "" {
			fmt.Fprintln(stderr, "hbbp: -merge: empty file name in list")
			return nil, 2
		}
	}
	profiles := make([]*hbbp.StoredProfile, 0, len(names))
	for _, name := range names {
		sp, ok := loadStored(name, stderr)
		if !ok {
			return nil, 1
		}
		profiles = append(profiles, sp)
	}
	return profiles, 0
}

// loadStored opens and decodes one stored profile, translating the
// classified decode errors into actionable messages: a version
// mismatch or truncation is the user's file, not their invocation, so
// the message names the file and what is wrong with it.
func loadStored(name string, stderr io.Writer) (*hbbp.StoredProfile, bool) {
	data, err := os.ReadFile(name)
	if err != nil {
		fmt.Fprintf(stderr, "hbbp: %v\n", err)
		return nil, false
	}
	sp, err := hbbp.LoadProfileBytes(data)
	switch {
	case errors.Is(err, hbbp.ErrProfileVersion):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", name, err)
		fmt.Fprintf(stderr, "hbbp: %s was written by an incompatible hbbp version; re-save it with this build (-save)\n", name)
		return nil, false
	case errors.Is(err, hbbp.ErrProfileTruncated):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", name, err)
		fmt.Fprintf(stderr, "hbbp: %s is truncated — the save may have been interrupted; re-run with -save to regenerate it\n", name)
		return nil, false
	case errors.Is(err, hbbp.ErrProfileMagic):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", name, err)
		fmt.Fprintf(stderr, "hbbp: %s is not a stored profile (expecting a file written by -save)\n", name)
		return nil, false
	case err != nil:
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", name, err)
		return nil, false
	}
	return sp, true
}

// runMerge implements -merge: load, merge, summarize, render the
// selected view of the merged fleet mix.
func runMerge(names []string, view string, render func(*hbbp.PivotTable) string, stdout, stderr io.Writer) int {
	profiles, code := loadStoredList(names, stderr)
	if code != 0 {
		return code
	}
	merged := hbbp.MergeProfiles(profiles...)
	fmt.Fprintf(stderr, "merged %d profiles: %d runs of %d workloads, %d blocks, %d retired instructions\n",
		len(profiles), merged.TotalRuns(), len(merged.Workloads), len(merged.Blocks), merged.TotalMass())
	fmt.Fprint(stdout, render(storedPivot(merged, view)))
	return 0
}

// runDiff implements -diff: load the pair and print the movement
// report.
func runDiff(before, after string, threshold float64, topN int, stdout, stderr io.Writer) int {
	b, ok := loadStored(before, stderr)
	if !ok {
		return 1
	}
	a, ok := loadStored(after, stderr)
	if !ok {
		return 1
	}
	rep := hbbp.DiffProfiles(b, a, threshold)
	fmt.Fprint(stdout, rep.Render(topN))
	return 0
}

// openSeries loads a series directory, translating the classified
// decode errors into actionable messages the same way loadStored does
// for single profiles: the message names the store and what to do
// about it.
func openSeries(dir string, stderr io.Writer) (*hbbp.ProfileSeries, bool) {
	s, err := hbbp.OpenSeries(dir)
	switch {
	case errors.Is(err, hbbp.ErrSeriesVersion):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		fmt.Fprintf(stderr, "hbbp: the series index was written by an incompatible hbbp version; re-save the series with this build\n")
		return nil, false
	case errors.Is(err, hbbp.ErrSeriesTruncated):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		fmt.Fprintf(stderr, "hbbp: the series index is truncated — a save may have been interrupted; restore the directory from backup or rebuild it by re-appending epochs\n")
		return nil, false
	case errors.Is(err, hbbp.ErrSeriesMagic):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		fmt.Fprintf(stderr, "hbbp: %s does not hold a profile series (expecting a directory written by -series -epoch or hbbpd -save-dir)\n", dir)
		return nil, false
	case errors.Is(err, hbbp.ErrSeriesWindowMismatch):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		fmt.Fprintf(stderr, "hbbp: a window file disagrees with the series index — a torn copy or manual edit; restore the directory from a consistent save\n")
		return nil, false
	case err != nil:
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		return nil, false
	}
	return s, true
}

// appendToSeries opens (or creates) the series at dir, merges the
// profiles into the given epoch, applies the retention ladder if one
// was requested and saves the store back atomically.
func appendToSeries(dir string, epoch uint64, profiles []*hbbp.StoredProfile, retention hbbp.RetentionPolicy, stdout, stderr io.Writer) int {
	s, ok := openSeries(dir, stderr)
	if !ok {
		return 1
	}
	for _, sp := range profiles {
		s.AppendEpoch(epoch, sp)
	}
	folds := 0
	if _, hi, ok := s.Bounds(); ok && len(retention.Levels) > 0 {
		folds = s.Downsample(retention, hi)
	}
	if err := s.Save(dir); err != nil {
		fmt.Fprintf(stderr, "hbbp: saving series %s: %v (store unchanged on disk; fix the path or free space and re-run)\n", dir, err)
		return 1
	}
	lo, hi, _ := s.Bounds()
	fmt.Fprintf(stdout, "appended epoch %d to %s: %d windows over epochs %d-%d (%d folds)\n",
		epoch, dir, s.Len(), lo, hi, folds)
	return 0
}

// runSeriesAppendFiles implements -series -epoch -merge FILES: append
// pre-captured stored profiles at one epoch without a collection run.
func runSeriesAppendFiles(dir string, epoch uint64, names []string, retention hbbp.RetentionPolicy, stdout, stderr io.Writer) int {
	profiles, code := loadStoredList(names, stderr)
	if code != 0 {
		return code
	}
	return appendToSeries(dir, epoch, profiles, retention, stdout, stderr)
}

// resolveWindow turns the -since/-until flags (-1 = open end) into the
// series' concrete inclusive epoch range.
func resolveWindow(s *hbbp.ProfileSeries, since, until int64) (uint64, uint64) {
	lo, hi, ok := s.Bounds()
	if !ok {
		return 1, 0 // empty series: an empty range
	}
	if since >= 0 {
		lo = uint64(since)
	}
	if until >= 0 {
		hi = uint64(until)
	}
	return lo, hi
}

// runSeriesQuery implements the windowed merge: load the series,
// merge every retained window overlapping [since, until] and print
// the selected view. An empty window is a non-zero exit — in a
// pipeline, a query that matched nothing is a failure, not an empty
// success.
func runSeriesQuery(dir string, since, until int64, view string, render func(*hbbp.PivotTable) string, stdout, stderr io.Writer) int {
	s, ok := openSeries(dir, stderr)
	if !ok {
		return 1
	}
	lo, hi := resolveWindow(s, since, until)
	merged, spans := s.Window(lo, hi)
	if len(spans) == 0 {
		fmt.Fprintf(stderr, "hbbp: %s: no retained epochs in window [%d, %d]", dir, lo, hi)
		if slo, shi, ok := s.Bounds(); ok {
			fmt.Fprintf(stderr, " (series covers %d-%d)", slo, shi)
		} else {
			fmt.Fprint(stderr, " (series is empty)")
		}
		fmt.Fprintln(stderr)
		return 1
	}
	fmt.Fprintf(stderr, "window [%d, %d]: %d windows (%s), %d runs, %d retired instructions\n",
		lo, hi, len(spans), spanList(spans), merged.TotalRuns(), merged.TotalMass())
	fmt.Fprint(stdout, render(storedPivot(merged, view)))
	return 0
}

// runSeriesDiff implements -series -diff SINCE:UNTIL,SINCE:UNTIL —
// the windowed regression check: merge two epoch windows of one
// series and print the movement report between them.
func runSeriesDiff(dir, spec string, thresholdPP float64, topN int, stdout, stderr io.Writer) int {
	th, ok := shareThreshold(thresholdPP, stderr)
	if !ok {
		return 2
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintf(stderr, "hbbp: -series -diff needs two windows as SINCE:UNTIL,SINCE:UNTIL (got %d)\n", len(parts))
		return 2
	}
	var windows [2][2]uint64
	for i, part := range parts {
		a, b, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			fmt.Fprintf(stderr, "hbbp: -series -diff window %q is not SINCE:UNTIL\n", part)
			return 2
		}
		var err error
		if windows[i][0], err = strconv.ParseUint(a, 10, 64); err != nil {
			fmt.Fprintf(stderr, "hbbp: -series -diff window %q: %v\n", part, err)
			return 2
		}
		if windows[i][1], err = strconv.ParseUint(b, 10, 64); err != nil {
			fmt.Fprintf(stderr, "hbbp: -series -diff window %q: %v\n", part, err)
			return 2
		}
	}
	s, ok := openSeries(dir, stderr)
	if !ok {
		return 1
	}
	var merged [2]*hbbp.StoredProfile
	for i, w := range windows {
		var spans []hbbp.SeriesSpan
		merged[i], spans = s.Window(w[0], w[1])
		if len(spans) == 0 {
			fmt.Fprintf(stderr, "hbbp: %s: no retained epochs in window [%d, %d]\n", dir, w[0], w[1])
			return 1
		}
		fmt.Fprintf(stderr, "window [%d, %d]: %s\n", w[0], w[1], spanList(spans))
	}
	rep := hbbp.DiffProfiles(merged[0], merged[1], th)
	fmt.Fprint(stdout, rep.Render(topN))
	return 0
}

// runTrend implements -series -trend: the monotonic-drift regression
// detector over the newest k retained windows.
func runTrend(dir string, k int, threshold float64, topN int, stdout, stderr io.Writer) int {
	s, ok := openSeries(dir, stderr)
	if !ok {
		return 1
	}
	rep, err := s.Trend(hbbp.TrendOptions{K: k, Threshold: threshold})
	switch {
	case errors.Is(err, hbbp.ErrNotEnoughWindows):
		fmt.Fprintf(stderr, "hbbp: %s: %v\n", dir, err)
		fmt.Fprintf(stderr, "hbbp: append more epochs (the series retains %d windows) or lower -trend-k\n", s.Len())
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "hbbp: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, rep.Render(topN))
	return 0
}

// spanList renders contributing spans compactly for the stderr
// provenance lines.
func spanList(spans []hbbp.SeriesSpan) string {
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}
