package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbbp/internal/telemetry"
	"hbbp/internal/workloads"
)

// Workload names, in the order the all-workloads run executes them.
const (
	paperSuite      = "paper-suite"
	paperShortblock = "paper-shortblock"
	fleetIngest     = "fleet-ingest"
	fleetMixed      = "fleet-mixed"
)

var workloadNames = []string{paperSuite, paperShortblock, fleetIngest, fleetMixed}

// shortblockNames are the workloads with short blocks and dense PMIs:
// the regime of the paper's Tables 3, 5 and 7.
var shortblockNames = []string{"test40", "fitter-avx", "callgraph-deep",
	"megamorphic-branchy", "hydro-post", "kernel-prime"}

// setups is how many times an untraced run sets its workload up;
// setup_s is the median.
const setups = 5

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// scale shrinks the paper workloads' repeat counts when in (0, 1),
	// so a short run still completes enough ops for its percentiles.
	scale float64
}

func (c config) measured() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. Metrics holds the metrics
// BENCHMARK.json names (end-to-end untraced, per-layer traced); Extra
// holds workload-specific figures printed beside them.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Machine   string            `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
}

// phase collects one measured interval's operations. The primary op of
// each workload feeds the latency and throughput figures; background
// load (fleet-mixed's writes) counts as attempted but is timed apart.
type phase struct {
	tr       *tracer
	start    time.Time
	deadline time.Time

	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	opMs      []float64
	loadMs    []float64
	doneAt    []time.Duration // primary op completions, from start
	passes    []pass
	lateMs    []float64 // open-loop lateness: how long after its due time each call started
}

// pass is one completed round of a paper workload list.
type pass struct {
	ops     int
	retired uint64
	dur     time.Duration
}

func newPhase(tr *tracer, d time.Duration) *phase {
	now := time.Now()
	return &phase{tr: tr, start: now, deadline: now.Add(d)}
}

func (ph *phase) over() bool { return !time.Now().Before(ph.deadline) }

// maxErrs bounds how many failure messages a run keeps.
const maxErrs = 5

func (ph *phase) count(err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		if len(ph.errs) < maxErrs {
			ph.errs = append(ph.errs, err.Error())
		}
	}
}

// op records one primary operation and its latency.
func (ph *phase) op(d time.Duration, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.count(err)
	ph.opMs = append(ph.opMs, ms(d))
	ph.doneAt = append(ph.doneAt, time.Since(ph.start))
}

// load records one background operation.
func (ph *phase) load(d time.Duration, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.count(err)
	ph.loadMs = append(ph.loadMs, ms(d))
}

func (ph *phase) late(d time.Duration) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lateMs = append(ph.lateMs, ms(d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop calls fn rate times per second from start until until, on
// schedule whether or not earlier calls finished on time. Each call gets
// the time it was due, so a latency measured from it counts the wait a
// stall imposes on later calls; how late each call started is recorded.
func openLoop(ph *phase, start, until time.Time, rate float64, fn func(due time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	for due := start; due.Before(until); due = due.Add(interval) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.late(time.Since(due))
		fn(due)
	}
}

// fixture is one workload after set-up: the paper path it profiles (for
// fleet workloads, the suite that fills the payload pool) and, for fleet
// workloads or a traced paper run's fleet leg, the ingest server.
type fixture struct {
	kind     string
	seed     int64
	paper    *paperPath
	captures [][]byte            // set-up's captures: the paper digests' source and the fleet's payloads
	want     [][sha256.Size]byte // paper: digest each op's capture must match
	fleet    *fleet
	reader   *rand.Rand // query ranges
	queries  int
}

// newFixture sets a workload up: registry builds and a warm-up pass of
// the paper path, then for fleet workloads the payload pool, the server,
// its agents and (fleet-mixed) the preloaded history.
func newFixture(cfg config, tr *tracer) (*fixture, error) {
	names := workloads.SPECNames()
	if cfg.workload == paperShortblock {
		names = shortblockNames
	}
	pp, err := newPaperPath(names, cfg.seed, cfg.scale, tr)
	if err != nil {
		return nil, err
	}
	caps, err := pp.captureAll(tr)
	if err != nil {
		return nil, err
	}
	fx := &fixture{kind: cfg.workload, seed: cfg.seed, paper: pp, captures: caps,
		reader: rand.New(rand.NewPCG(uint64(cfg.seed), 2))}
	switch cfg.workload {
	case paperSuite, paperShortblock:
		for _, c := range caps {
			fx.want = append(fx.want, sha256.Sum256(c))
		}
	case fleetIngest:
		err = fx.startFleet(2)
	case fleetMixed:
		if err = fx.startFleet(1); err == nil {
			// Untraced: the send spans must cover the same sends as the
			// server-side latency read around the traced phase.
			err = fx.fleet.preload(fx.fleet.agents[0], nil)
		}
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) startFleet(agents int) error {
	pool, err := weightedPool(fx.captures, fx.seed)
	if err != nil {
		return err
	}
	fx.fleet, err = startFleet(pool, agents, fx.seed)
	return err
}

func (fx *fixture) close() {
	if fx.fleet != nil {
		fx.fleet.close()
	}
}

// measure runs the workload's own loop until the phase deadline.
func (fx *fixture) measure(ph *phase) {
	switch fx.kind {
	case paperSuite, paperShortblock:
		fx.measurePaper(ph)
	case fleetIngest:
		fx.measureIngest(ph)
	case fleetMixed:
		fx.measureMixed(ph)
	}
}

// measurePaper profiles the workload list round-robin on one goroutine,
// closed loop. An op fails on an error or when its capture differs from
// set-up's capture of the same workload.
func (fx *fixture) measurePaper(ph *phase) {
	n := len(fx.paper.ws)
	first := int(uint64(fx.seed) % uint64(n))
	for !ph.over() {
		t0 := time.Now()
		var retired uint64
		done := 0
		for ; done < n && !ph.over(); done++ {
			i := (first + done) % n
			c, res, d, err := fx.paper.op(i, ph.tr)
			if err == nil && sha256.Sum256(c) != fx.want[i] {
				err = fmt.Errorf("%s: capture differs from the set-up pass's", fx.paper.ws[i].Name)
			}
			if res != nil {
				retired += res.Stats.Retired
			}
			ph.op(d, err)
		}
		if done == n {
			ph.passes = append(ph.passes, pass{ops: n, retired: retired, dur: time.Since(t0)})
		}
	}
}

// measureIngest drives every agent in a closed loop of batch sends.
func (fx *fixture) measureIngest(ph *phase) {
	var wg sync.WaitGroup
	for _, a := range fx.fleet.agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !ph.over() {
				t0 := time.Now()
				err := fx.fleet.send(a, a.sent/batchesPerEpoch, ph.tr)
				ph.op(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
}

// measureMixed runs one writer in an open loop and one reader in a
// closed loop against the same server. The reader's queries are the
// primary ops. The writer keeps its rate whatever the reader does, so
// the series changes under the reader at the same pace on every run.
func (fx *fixture) measureMixed(ph *phase) {
	w := fx.fleet.agents[0]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(ph, ph.start, ph.deadline, writeRate, func(due time.Time) {
			err := fx.fleet.send(w, preloadEpochs+(w.sent-preloadEpochs)/batchesPerEpoch, ph.tr)
			ph.load(time.Since(due), err)
		})
	}()
	for !ph.over() {
		t0 := time.Now()
		err := fx.fleet.query(fx.queries, fx.reader, ph.tr)
		fx.queries++
		ph.op(time.Since(t0), err)
	}
	wg.Wait()
}

// queryLeg issues a traced run's fixed leg of queries in an open loop.
func (fx *fixture) queryLeg(ph *phase) {
	start := time.Now()
	openLoop(ph, start, start.Add(legQueries*time.Second/queryRate), queryRate, func(due time.Time) {
		err := fx.fleet.query(fx.queries, fx.reader, ph.tr)
		fx.queries++
		ph.op(time.Since(due), err)
	})
}

// legs runs, in a traced run, the stages the workload's own loop does
// not reach, so every traced run reports every layer: a paper workload
// ships its captures through a fresh server and queries them; fleet-ingest
// adds a query leg; every traced run replays the server's stages offline.
func (fx *fixture) legs(ph *phase) error {
	switch fx.kind {
	case paperSuite, paperShortblock:
		if err := fx.startFleet(1); err != nil {
			return err
		}
		if err := fx.fleet.preload(fx.fleet.agents[0], ph.tr); err != nil {
			return err
		}
		fallthrough
	case fleetIngest:
		fx.queryLeg(ph)
	}
	return fx.fleet.replay(fx.seed, ph.tr)
}

// check is the end-of-run correctness check of the fleet, if any.
func (fx *fixture) check() error {
	if fx.fleet == nil {
		return nil
	}
	return fx.fleet.verify(fx.fleet.expected())
}

// runWorkload sets the workload up, measures it, and checks its
// outputs: untraced for the end-to-end metrics, traced for the
// per-layer ones. A traced run sets up once; set-up time is not among
// its metrics.
func runWorkload(cfg config) (*result, error) {
	var tr *tracer
	n := setups
	if cfg.trace {
		tr, n = newTracer(), 1
	}
	var fx *fixture
	var setupS []float64
	for i := 0; i < n; i++ {
		if fx != nil {
			fx.close()
			// Each set-up starts from the same heap, so its time does
			// not depend on when the collector frees the previous
			// fixture.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if fx, err = newFixture(cfg, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer fx.close()
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine: machine(), Metrics: map[string]metric{}, Extra: map[string]metric{}}
	var err error
	if cfg.trace {
		err = measureTraced(cfg, fx, tr, res)
	} else {
		err = measureUntraced(cfg, fx, res, setupS)
	}
	if err == nil {
		err = finite(res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func measureUntraced(cfg config, fx *fixture, res *result, setupS []float64) error {
	rss := startRSS()
	ph := newPhase(nil, cfg.measured())
	fx.measure(ph)
	rssMB, err := rss.median()
	if err != nil {
		return err
	}
	finish(res, fx, ph)
	if err := endToEnd(res, fx.kind, ph); err != nil {
		return err
	}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["rss_mb"] = metric{rssMB, "MB"}
	return nil
}

// measureTraced measures half the time untraced and half traced, in
// quarters ordered untraced, traced, traced, untraced so that a linear
// drift over the run cancels out of their difference (the tracing
// overhead), then runs the legs, derives the per-layer metrics and
// writes the spans.
func measureTraced(cfg config, fx *fixture, tr *tracer, res *result) error {
	in := layerInput{legs: newPhase(tr, 0)}
	for _, on := range []bool{false, true, true, false} {
		if !on {
			ph := newPhase(nil, cfg.measured()/4)
			fx.measure(ph)
			in.plain = append(in.plain, ph)
			continue
		}
		r := read{before: registries(fx)}
		ph := newPhase(tr, cfg.measured()/4)
		fx.measure(ph)
		in.traced = append(in.traced, ph)
		r.after = registries(fx)
		in.reads = append(in.reads, r)
	}
	r := read{before: registries(fx)}
	if err := fx.legs(in.legs); err != nil {
		return fmt.Errorf("legs: %w", err)
	}
	r.after = registries(fx)
	in.reads = append(in.reads, r)
	finish(res, fx, slices.Concat(in.plain, in.traced, []*phase{in.legs})...)
	var err error
	if in.acc, err = fx.paper.accuracy(); err != nil {
		return err
	}
	in.spans, in.windows, in.shed = tr.snapshot(), fx.fleet.windows(), fx.fleet.shed()
	if res.Metrics, err = perLayer(in); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed)), res)
}

// finite refuses a metric that is not a finite number.
func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s is %v", name, v.Value)
		}
	}
	return nil
}

// finish totals the phases' operations and applies the end-of-run check:
// a failed check fails every op of the run.
func finish(res *result, fx *fixture, phases ...*phase) {
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Errors = append(res.Errors, ph.errs...)
	}
	if err := fx.check(); err != nil {
		res.Failed = res.Attempted
		res.Errors = append(res.Errors, err.Error())
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// endToEnd derives the end-to-end metrics from an untraced phase. The
// op is one profiled workload (paper-*), one batch of 16 profiles
// (fleet-ingest) or one query (fleet-mixed).
func endToEnd(res *result, kind string, ph *phase) error {
	p50, err := percentile(ph.opMs, 50)
	if err != nil {
		return fmt.Errorf("op_ms_p50: %w", err)
	}
	p90, err := percentile(ph.opMs, 90)
	if err != nil {
		return fmt.Errorf("op_ms_p90: %w", err)
	}
	var segs []segment
	if kind == paperSuite || kind == paperShortblock {
		instr := make([]segment, len(ph.passes))
		for i, p := range ph.passes {
			segs = append(segs, segment{float64(p.ops), p.dur})
			instr[i] = segment{float64(p.retired) / 1e6, p.dur}
		}
		if minst, err := medianRate(instr); err == nil {
			res.Extra["minst_per_s"] = metric{minst, "Minst/s"}
		}
	} else {
		segs = intervals(ph.doneAt, time.Second)
	}
	rate, err := medianRate(segs)
	if err != nil {
		return fmt.Errorf("ops_per_s: %w", err)
	}
	res.Metrics["op_ms_p50"] = metric{p50, "ms"}
	res.Metrics["op_ms_p90"] = metric{p90, "ms"}
	res.Metrics["ops_per_s"] = metric{rate, "1/s"}
	switch kind {
	case fleetIngest:
		res.Extra["profiles_per_s"] = metric{rate * batchSize, "1/s"}
		addPercentile(res.Extra, "batch_ms_p99", ph.opMs, 99)
	case fleetMixed:
		addPercentile(res.Extra, "query_ms_p99", ph.opMs, 99)
		addPercentile(res.Extra, "batch_ms_p50", ph.loadMs, 50)
		addPercentile(res.Extra, "batch_ms_p99", ph.loadMs, 99)
		addPercentile(res.Extra, "gen_late_ms_p99", ph.lateMs, 99)
	}
	return nil
}

// addPercentile adds a percentile to m when enough samples back it.
func addPercentile(m map[string]metric, name string, xs []float64, p int) {
	if v, err := percentile(xs, p); err == nil {
		m[name] = metric{v, "ms"}
	}
}

// read is the registries read before and after one traced interval.
type read struct{ before, after [2]telemetry.Snapshot }

// registries reads the process-wide registry (profstore's merge-path
// and tsstore's tree-cache counters) and the fleet server's, if any.
func registries(fx *fixture) [2]telemetry.Snapshot {
	var s [2]telemetry.Snapshot
	s[0] = telemetry.Default().Snapshot()
	if fx.fleet != nil {
		s[1] = fx.fleet.tel.Snapshot()
	}
	return s
}

// rssSampler reads this process's resident set every rssEvery on a
// goroutine of its own. The median over a measured phase is the memory
// the workload holds. The peak is not reported: when it is reached
// depends on how far the garbage collector lags a burst of allocation,
// which varies with the host's speed, so it repeats far worse than the
// median (README.md, Measured spread).
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

const rssEvery = 100 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
				if v, err := residentMB(); err == nil {
					mb = append(mb, v)
				}
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median of its samples.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	mb := <-s.done
	if len(mb) == 0 {
		return 0, errors.New("rss_mb: no resident-set sample (run longer, or /proc/self/statm is unreadable)")
	}
	return median(mb), nil
}

// residentMB reads this process's resident set from /proc/self/statm,
// whose second field counts resident pages.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
