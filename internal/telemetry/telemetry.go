// Package telemetry is the repo's runtime observability layer: a
// concurrency-safe metrics registry whose hot-path increments are
// allocation-free, a Prometheus text exposition writer (expose.go) and
// a threshold-gated slow-operation event log (slowlog.go).
//
// The paper's premise is measuring software at near-zero overhead; the
// same discipline applies to measuring this stack itself. Counters and
// gauges are single atomic words, histograms are fixed-bucket arrays
// of atomic words observed with a short linear scan, and none of them
// allocate or take locks on the update path — proven by
// testing.AllocsPerRun in the package tests — so instrumenting the
// wire ingest loop, the series store and the collection planner does
// not perturb the numbers they produce.
//
// Metrics are registered get-or-create by (name, label pairs):
// registering the same metric twice returns the same handle, so
// package-level instrumentation (profstore's merge-path counters) and
// dynamically keyed instrumentation (fleetserver's per-tenant ledgers)
// both resolve their handles once, off the hot path, and share them
// freely across goroutines. Snapshot and WriteProm render the registry
// in a stable order (family name, then label string), so exposition
// bytes are deterministic for a deterministic sequence of updates —
// golden-testable like every other format in this repo.
//
// The package imports only the standard library and is imported by the
// instrumented internals, never the reverse; the repository's
// import-boundary test enforces both directions.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric: merges completed,
// frames shed, retries taken. The zero value is ready to use, but
// counters are normally obtained from [Registry.Counter] so they are
// exported. Add and Inc are one atomic add: lock-free and
// allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that goes up and down: queue depth, live
// connections. Updates are single atomic stores/adds.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution over int64 observations in
// a native integer unit (nanoseconds for latencies, entries for batch
// sizes). Bounds are inclusive upper bounds, ascending; one implicit
// +Inf bucket catches the overflow. Observe is a short linear scan
// plus two atomic adds — allocation-free and lock-free. Scale converts
// the native unit to the exposition base unit (1e-9 for ns → seconds;
// 1 for dimensionless counts).
type Histogram struct {
	bounds []int64
	scale  float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // total observed mass, native units
}

// Observe records one value. Negative values clamp to zero (durations
// from a stepping clock).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(uint64(v))
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// ObserveSince records the elapsed nanoseconds from start — the timer
// idiom for latency histograms: h.ObserveSince(t0).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the observed mass in native units.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// NanosToSeconds is the histogram scale for nanosecond observations
// exposed in Prometheus base seconds.
const NanosToSeconds = 1e-9

// DurationBuckets returns the standard latency ladder in nanoseconds:
// 10µs to 5s, roughly half-decade steps. Pair with [NanosToSeconds].
func DurationBuckets() []int64 {
	return []int64{
		int64(10 * time.Microsecond),
		int64(50 * time.Microsecond),
		int64(100 * time.Microsecond),
		int64(500 * time.Microsecond),
		int64(1 * time.Millisecond),
		int64(5 * time.Millisecond),
		int64(10 * time.Millisecond),
		int64(50 * time.Millisecond),
		int64(100 * time.Millisecond),
		int64(500 * time.Millisecond),
		int64(1 * time.Second),
		int64(5 * time.Second),
	}
}

// CountBuckets returns the standard size ladder for dimensionless
// counts (batch entries, windows per query): powers of two, 1 to 1024.
// Use scale 1.
func CountBuckets() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// kind is a family's metric type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// String renders the Prometheus TYPE keyword.
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (name, labels) time series inside a family. Exactly
// one of the value fields is set, per the family's kind.
type series struct {
	labels  string // rendered `k="v",...` form, possibly empty
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name: one TYPE, one
// HELP, many label sets.
type family struct {
	name   string
	help   string
	kind   kind
	scale  float64 // histograms only
	bounds []int64 // histograms only
	series map[string]*series
}

// Registry holds metric families and hands out shared metric handles.
// Registration (Counter, Gauge, Histogram, GaugeFunc) takes the
// registry lock and is get-or-create — call it at setup, keep the
// handle for the hot path. Snapshot and WriteProm iterate in stable
// (name, labels) order. The zero value is not usable; construct with
// [NewRegistry] or share the process-wide [Default].
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	slowOnce sync.Once
	slow     *SlowLog
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// std is the process-wide default registry: the one package-level
// instrumentation (profstore, tsstore, harness) writes to and the one
// hbbpd's /metrics endpoint serves.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// labelString renders label pairs in given order as `k="v",...` with
// Prometheus value escaping. Pairs are not sorted: callers register
// with a consistent order, and that order becomes the stable identity.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns (creating if needed) the family for name,
// panicking on a kind conflict — re-registering one name as two
// metric types is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, k kind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.kind, k))
	}
	return f
}

// Counter returns the counter for (name, labels), creating and
// registering it on first use. labels are alternating key, value
// pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls, counter: &Counter{}}
		f.series[ls] = s
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating and registering
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls, gauge: &Gauge{}}
		f.series[ls] = s
	}
	return s.gauge
}

// GaugeFunc registers a gauge sampled by calling fn at snapshot and
// exposition time — for values something else already tracks (queue
// depth as len(chan)). Re-registering the same (name, labels) replaces
// the callback (last writer wins: a restarted server re-binds its
// queue). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGaugeFunc)
	f.series[ls] = &series{labels: ls, gaugeFn: fn}
}

// Histogram returns the histogram for (name, labels), creating and
// registering it on first use with the given bucket bounds (inclusive
// upper bounds, ascending, native integer units) and exposition scale
// (use [NanosToSeconds] for nanosecond observations; 0 means 1). All
// series of one family share the first registration's bounds and
// scale.
func (r *Registry) Histogram(name, help string, scale float64, bounds []int64, labels ...string) *Histogram {
	if scale == 0 {
		scale = 1
	}
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	if f.bounds == nil {
		f.bounds = append([]int64(nil), bounds...)
		f.scale = scale
	}
	s := f.series[ls]
	if s == nil {
		h := &Histogram{bounds: f.bounds, scale: f.scale}
		h.counts = make([]atomic.Uint64, len(f.bounds)+1)
		s = &series{labels: ls, hist: h}
		f.series[ls] = s
	}
	return s.hist
}

// Slow returns the registry's slow-operation log, creating it with
// [DefaultSlowThreshold] and [DefaultSlowCapacity] on first use.
func (r *Registry) Slow() *SlowLog {
	r.slowOnce.Do(func() {
		r.slow = NewSlowLog(DefaultSlowThreshold, DefaultSlowCapacity)
	})
	return r.slow
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns one family's series in label order. Called
// without the registry lock: the series map only grows, and growth
// races merely mean a just-registered series shows up one snapshot
// late.
func (f *family) sortedSeries(r *Registry) []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
