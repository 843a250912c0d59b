package tsstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hbbp/internal/profstore"
)

// DefaultTrendK is the window count Trend uses when TrendOptions.K is
// zero: three consecutive windows, the smallest count where
// "monotonic" means more than "changed".
const DefaultTrendK = 3

// DefaultTrendThreshold is the share movement (as a fraction of total
// mass, first window to last) required to flag a monotonic drift when
// TrendOptions.Threshold is zero: half a percentage point.
const DefaultTrendThreshold = 0.005

// ErrNotEnoughWindows reports a Trend call over a series with fewer
// retained windows than the requested k — the caller needs more
// history (or a smaller -trend-k) before trends mean anything.
var ErrNotEnoughWindows = errors.New("tsstore: not enough retained windows for trend")

// TrendKind distinguishes what a trend entry tracks.
type TrendKind uint8

const (
	// TrendOp tracks one (mnemonic, ring)'s share of op mass.
	TrendOp TrendKind = iota
	// TrendFunction tracks one (unit, module, function)'s share of
	// block mass.
	TrendFunction
)

// String names the kind for rendering.
func (k TrendKind) String() string {
	if k == TrendFunction {
		return "function"
	}
	return "op"
}

// TrendEntry is one op or function whose retirement share moved
// monotonically across every one of the report's k windows.
type TrendEntry struct {
	Kind TrendKind
	// Name is the mnemonic (TrendOp) or unit/module.function
	// (TrendFunction).
	Name string
	// Ring is the privilege level (TrendOp only; functions aggregate
	// over rings under one symbol).
	Ring uint8
	// Shares is the per-window share of total mass, oldest window
	// first — strictly monotonic by construction.
	Shares []float64
	// Delta is Shares[k-1] - Shares[0]: the total drift, positive for
	// growth.
	Delta float64
}

// Direction renders the drift's sign.
func (e *TrendEntry) Direction() string {
	if e.Delta >= 0 {
		return "rising"
	}
	return "falling"
}

// TrendOptions parameterize a trend scan.
type TrendOptions struct {
	// K is how many of the newest retained windows to scan; zero
	// selects DefaultTrendK. A share must move strictly monotonically
	// across all K windows to be flagged.
	K int
	// Threshold is the minimum |total drift| (share fraction, first
	// window to last) to flag; zero selects DefaultTrendThreshold.
	Threshold float64
}

// TrendReport is the outcome of a trend scan over the newest k
// retained windows.
type TrendReport struct {
	// Windows are the scanned spans, oldest first.
	Windows []Span
	// Threshold is the resolved drift threshold.
	Threshold float64
	// Ops and Functions hold the flagged monotonic movers, sorted by
	// decreasing |Delta|, ties broken by name then ring.
	Ops, Functions []TrendEntry
}

// Trend scans the newest k retained windows for ops and functions
// whose share of retirement mass moves strictly monotonically across
// all of them with a total drift of at least threshold. Monotonic
// across k consecutive windows is the regression detector's shape
// test: a one-window spike fails it, while a steady climb — the
// signature of a creeping regression or a rollout changing the mix —
// passes. Returns ErrNotEnoughWindows if the series retains fewer
// than k windows. Shares are per-window fractions of that window's own
// total mass, so windows covering different epoch counts (after
// downsampling) compare directly.
func (s *Series) Trend(opts TrendOptions) (*TrendReport, error) {
	k := opts.K
	if k == 0 {
		k = DefaultTrendK
	}
	if k < 2 {
		return nil, fmt.Errorf("tsstore: trend needs k >= 2 windows, got %d", k)
	}
	if len(s.windows) < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughWindows, len(s.windows), k)
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultTrendThreshold
	}
	rep := &TrendReport{Threshold: threshold}
	tail := s.windows[len(s.windows)-k:]
	for _, w := range tail {
		rep.Windows = append(rep.Windows, w.span)
	}

	type seriesKey struct {
		kind TrendKind
		name string
		ring uint8
	}
	shares := make(map[seriesKey][]float64)
	at := func(key seriesKey, wi int, share float64) {
		sl := shares[key]
		if sl == nil {
			sl = make([]float64, k)
			shares[key] = sl
		}
		sl[wi] = share
	}
	// names holds each (unit, module, function)'s rendered name, built
	// once per scan rather than once per block.
	type fnKey struct{ unit, module, function string }
	names := make(map[fnKey]string)
	for wi, w := range tail {
		opTotal := float64(w.prof.TotalMass())
		if opTotal > 0 {
			for _, o := range w.prof.Ops {
				at(seriesKey{TrendOp, o.Mnemonic, o.Ring}, wi, float64(o.Mass)/opTotal)
			}
		}
		var blockTotal float64
		for i := range w.prof.Blocks {
			blockTotal += float64(w.prof.Blocks[i].Mass())
		}
		if blockTotal > 0 {
			// Function mass sums by rendered name, so two triples that
			// render alike still share one entry. A canonical window
			// sorts a function's blocks together, so each run of blocks
			// with one key reads and writes its map entry once; the
			// additions happen in block order either way, keeping every
			// sum bit-identical to one map update per block.
			fn := make(map[string]float64)
			for i := 0; i < len(w.prof.Blocks); {
				b := &w.prof.Blocks[i]
				key := fnKey{b.Unit, b.Module, b.Function}
				name, ok := names[key]
				if !ok {
					name = b.Unit + "/" + b.Module + "." + b.Function
					names[key] = name
				}
				mass := fn[name]
				for ; i < len(w.prof.Blocks); i++ {
					b = &w.prof.Blocks[i]
					if b.Function != key.function || b.Module != key.module || b.Unit != key.unit {
						break
					}
					mass += float64(b.Mass())
				}
				fn[name] = mass
			}
			for name, mass := range fn {
				at(seriesKey{TrendFunction, name, 0}, wi, mass/blockTotal)
			}
		}
	}

	for key, sl := range shares {
		if !monotonic(sl) {
			continue
		}
		delta := sl[k-1] - sl[0]
		if abs(delta) < threshold {
			continue
		}
		e := TrendEntry{Kind: key.kind, Name: key.name, Ring: key.ring,
			Shares: sl, Delta: delta}
		if key.kind == TrendOp {
			rep.Ops = append(rep.Ops, e)
		} else {
			rep.Functions = append(rep.Functions, e)
		}
	}
	for _, sl := range [][]TrendEntry{rep.Ops, rep.Functions} {
		sort.Slice(sl, func(i, j int) bool {
			if di, dj := abs(sl[i].Delta), abs(sl[j].Delta); di != dj {
				return di > dj
			}
			if sl[i].Name != sl[j].Name {
				return sl[i].Name < sl[j].Name
			}
			return sl[i].Ring < sl[j].Ring
		})
	}
	return rep, nil
}

// monotonic reports whether the shares move strictly in one direction
// across every consecutive pair. An absent key in some window reads as
// share 0 there, so appearing (0 -> up) and vanishing count as moves.
func monotonic(sl []float64) bool {
	up, down := true, true
	for i := 1; i < len(sl); i++ {
		if sl[i] <= sl[i-1] {
			up = false
		}
		if sl[i] >= sl[i-1] {
			down = false
		}
	}
	return up || down
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render formats the report as an aligned text table showing up to n
// entries per section (n <= 0: all).
func (rep *TrendReport) Render(n int) string {
	var sb strings.Builder
	spans := make([]string, len(rep.Windows))
	for i, s := range rep.Windows {
		spans[i] = s.String()
	}
	fmt.Fprintf(&sb, "TREND — %d windows [%s], drift threshold %.2fpp: %d ops, %d functions moving monotonically\n",
		len(rep.Windows), strings.Join(spans, " "),
		rep.Threshold*100, len(rep.Ops), len(rep.Functions))
	for _, section := range []struct {
		title   string
		entries []TrendEntry
	}{{"OP", rep.Ops}, {"FUNCTION", rep.Functions}} {
		if len(section.entries) == 0 {
			continue
		}
		rows := section.entries
		if n > 0 && len(rows) > n {
			rows = rows[:n]
		}
		nw := len(section.title)
		for _, e := range rows {
			if len(e.Name) > nw {
				nw = len(e.Name)
			}
		}
		fmt.Fprintf(&sb, "%-*s  %-6s  %-7s  %9s  %s\n", nw, section.title, "RING", "TREND", "DRIFT", "SHARES")
		for _, e := range rows {
			ring := ""
			if e.Kind == TrendOp {
				ring = ringName(e.Ring)
			}
			parts := make([]string, len(e.Shares))
			for i, v := range e.Shares {
				parts[i] = fmt.Sprintf("%.1f%%", v*100)
			}
			fmt.Fprintf(&sb, "%-*s  %-6s  %-7s  %+8.2fpp  %s\n",
				nw, e.Name, ring, e.Direction(), e.Delta*100, strings.Join(parts, " -> "))
		}
	}
	return sb.String()
}

// ringName mirrors profstore's rendering without exporting it.
func ringName(r uint8) string {
	if r == profstore.RingKernel {
		return "kernel"
	}
	return "user"
}
