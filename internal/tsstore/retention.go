package tsstore

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hbbp/internal/profstore"
)

// Level is one rung of a retention ladder: keep Keep windows of Width
// epochs each before epochs age into the next (wider) rung.
type Level struct {
	// Width is the number of epochs per window at this level. The
	// first level must have Width 1 (raw epochs); every later width
	// must be a multiple of the one before it, so folded windows nest
	// exactly inside coarser buckets and re-folding stays lossless.
	Width uint64
	// Keep is how many epochs' worth of history stays at this level,
	// expressed in windows: Keep*Width epochs. Keep 0 on the last
	// level means "everything older", which is the only place an
	// unbounded count is allowed.
	Keep uint64
}

// Retention is a downsampling ladder, newest level first — e.g.
// {1,8},{4,4},{16,0}: the last 8 epochs stay raw, the 16 before those
// fold 4:1, everything older folds 16:1. The zero value retains
// everything raw (no folding).
type Retention struct {
	Levels []Level
}

// DefaultRetention is the ladder the daemon and CLI use when asked for
// retention without a spec: 8 raw epochs, then 4:1 for the next 16,
// then 16:1 forever.
func DefaultRetention() Retention {
	return Retention{Levels: []Level{{Width: 1, Keep: 8}, {Width: 4, Keep: 4}, {Width: 16}}}
}

// Validate checks the ladder's structural rules; a zero-value (empty)
// retention is valid and folds nothing.
func (r Retention) Validate() error {
	for i, lv := range r.Levels {
		if lv.Width == 0 {
			return fmt.Errorf("tsstore: retention level %d has width 0", i)
		}
		if i == 0 {
			if lv.Width != 1 {
				return fmt.Errorf("tsstore: first retention level must have width 1 (raw epochs), got %d", lv.Width)
			}
		} else {
			prev := r.Levels[i-1].Width
			if lv.Width <= prev || lv.Width%prev != 0 {
				return fmt.Errorf("tsstore: retention level %d width %d is not a growing multiple of %d",
					i, lv.Width, prev)
			}
		}
		if lv.Keep == 0 && i != len(r.Levels)-1 {
			return fmt.Errorf("tsstore: retention level %d keeps 0 windows but is not the last level", i)
		}
	}
	return nil
}

// String renders the ladder in the form ParseRetention reads.
func (r Retention) String() string {
	parts := make([]string, len(r.Levels))
	for i, lv := range r.Levels {
		parts[i] = fmt.Sprintf("%d:%d", lv.Width, lv.Keep)
	}
	return strings.Join(parts, ",")
}

// ParseRetention reads a ladder spec of comma-separated WIDTH:KEEP
// pairs, e.g. "1:8,4:4,16:0" — keep 8 raw epochs, then 4 windows of 4,
// then 16:1 unbounded. KEEP 0 is only valid on the last level (keep
// everything older at that width). The empty string is the empty
// (fold-nothing) retention, and "default" is [DefaultRetention].
func ParseRetention(spec string) (Retention, error) {
	var r Retention
	switch strings.TrimSpace(spec) {
	case "":
		return r, nil
	case "default":
		return DefaultRetention(), nil
	}
	for _, part := range strings.Split(spec, ",") {
		ws, ks, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return Retention{}, fmt.Errorf("tsstore: retention level %q is not WIDTH:KEEP", part)
		}
		w, err := strconv.ParseUint(ws, 10, 64)
		if err != nil {
			return Retention{}, fmt.Errorf("tsstore: retention width %q: %v", ws, err)
		}
		k, err := strconv.ParseUint(ks, 10, 64)
		if err != nil {
			return Retention{}, fmt.Errorf("tsstore: retention keep %q: %v", ks, err)
		}
		r.Levels = append(r.Levels, Level{Width: w, Keep: k})
	}
	if err := r.Validate(); err != nil {
		return Retention{}, err
	}
	return r, nil
}

// Downsample applies the retention ladder to the series given the
// newest completed epoch. Windows older than a level's keep horizon
// fold into that level's width-aligned buckets — each fold is one
// profstore.MergeCanonical of whole windows (canonical, as every
// window the series holds is), so the series' merged content is
// unchanged down to the bit, only its granularity coarsens. Returns
// the number of merges performed (0 means the series already conformed
// to the ladder). A folded window's column is the sum of its windows'
// columns when all of them are indexed, and it is unindexed otherwise.
// Folding only ever coarsens: epochs inside the raw
// horizon are untouched, and a window is folded only when it fits
// entirely inside its target bucket, which the width-multiple rule
// guarantees for windows this package produced.
func (s *Series) Downsample(r Retention, latest uint64) int {
	if len(r.Levels) < 2 {
		return 0
	}
	t0 := time.Now()
	defer foldWall.ObserveSince(t0)
	folds := 0
	defer func() { retentionFolds.Add(uint64(folds)) }()
	// horizon is the first epoch (inclusive) that must NOT fold into
	// the level being processed: everything newer stays at finer
	// widths. It starts one past the raw band and recedes by each
	// level's span.
	horizon, underflow := sub(latest+1, r.Levels[0].Width*r.Levels[0].Keep)
	for li := 1; li < len(r.Levels); li++ {
		if underflow {
			return folds // not enough history for this level yet
		}
		width := r.Levels[li].Width
		folds += s.foldLevel(width, horizon)
		if r.Levels[li].Keep == 0 {
			break // last level: unbounded, nothing recedes past it
		}
		horizon, underflow = sub(horizon, width*r.Levels[li].Keep)
	}
	return folds
}

// sub is saturating subtraction with an underflow report.
func sub(a, b uint64) (uint64, bool) {
	if b > a {
		return 0, true
	}
	return a - b, false
}

// foldLevel merges every run of windows sharing one width-aligned
// bucket that ends before horizon into a single window spanning the
// run's actual epochs. Returns the number of buckets that actually
// folded (had more than one window).
func (s *Series) foldLevel(width, horizon uint64) int {
	out := s.windows[:0]
	folds := 0
	for i := 0; i < len(s.windows); {
		w := s.windows[i]
		bucket := w.span.Start / width
		bucketEnd := bucket*width + width - 1
		if w.span.End > bucketEnd {
			// Already coarser than this level (folded by a wider rung
			// on an earlier pass): not this level's business.
			out = append(out, w)
			i++
			continue
		}
		if bucketEnd >= horizon {
			// Inside the keep band; every later window is newer, so
			// the pass is done for this level.
			out = append(out, s.windows[i:]...)
			s.windows = out
			return folds
		}
		// Gather the full run of windows inside this bucket.
		j := i + 1
		for j < len(s.windows) && s.windows[j].span.End <= bucketEnd {
			j++
		}
		if j == i+1 {
			out = append(out, w)
			i = j
			continue
		}
		profs := make([]*profstore.Profile, 0, j-i)
		for k := i; k < j; k++ {
			profs = append(profs, s.windows[k].prof)
		}
		out = append(out, window{
			span: Span{Start: w.span.Start, End: s.windows[j-1].span.End},
			prof: profstore.MergeCanonical(profs...),
			col:  s.foldColumn(i, j),
		})
		folds++
		i = j
	}
	s.windows = out
	return folds
}
