// Package tsstore is the time-series profile store: the fleet layer's
// time axis. Where internal/profstore answers "what is the fleet
// running" and Diff answers "what changed between these two mixes",
// this package answers "what changed over the last k windows" — the
// question a continuous-profiling deployment actually asks.
//
// A [Series] is an epoch-indexed sequence of windows, each holding one
// merged profstore profile for an inclusive epoch range. Profiles
// append per epoch ([Series.AppendEpoch]); a retention ladder
// ([Retention], [Series.Downsample]) folds old epochs into coarser
// windows — e.g. keep the last 8 raw, then 4 epochs per window, then
// 16 — bounding what a long-lived store or daemon holds; windowed
// queries ([Series.Window]) merge any [since, until] range back into
// one profile; and [Series.Trend] flags ops and functions whose
// retirement share moves monotonically across the last k windows.
//
// A series that answers many queries can index its windows
// ([Series.Index]): each indexed window also holds its masses as a
// column on a key spine shared by the whole series (profstore.Spine),
// so a query adds the columns of the windows it covers and
// materializes the sum once instead of merging their rows. Columns are
// filled on the read path only, kept current by appends and folds
// (cleared and summed), shared with clones, never saved, and left off
// any window whose column would outweigh its rows. Indexed answers are
// the merged answers, byte for byte.
//
// The store's keystone property is inherited from profstore and kept
// by construction: merging is exact integer addition over canonical
// keys, commutative and associative, so folding epochs into coarser
// windows is *lossless* for every query whose bounds align with the
// retained window boundaries. Any re-grouping of epochs — raw, 4:1,
// 16:1, or any mix — merges bit-identical to the flat merge of the
// same epochs; the property tests pin it down to serialized bytes.
// Downsampling here is not an approximation, which is the rare case
// where a retention policy can be proven exact rather than estimated.
//
// Like the other storage-format packages, tsstore stays liftable: it
// imports only the standard library, internal/profstore (whose codec
// the on-disk layout reuses; see disk.go) and the stdlib-only
// internal/telemetry counters, enforced by the repository's
// import-boundary test.
package tsstore

import (
	"fmt"
	"sort"
	"time"

	"hbbp/internal/profstore"
)

// Span is one retained window's inclusive epoch range.
type Span struct {
	// Start and End are the first and last epoch folded into the
	// window, inclusive. A raw (unfolded) epoch has Start == End.
	Start, End uint64
}

// Epochs returns the number of epochs the span covers.
func (s Span) Epochs() uint64 { return s.End - s.Start + 1 }

// Contains reports whether epoch e falls inside the span.
func (s Span) Contains(e uint64) bool { return s.Start <= e && e <= s.End }

// String renders the span compactly: "7" for a raw epoch, "4-7" for a
// folded window.
func (s Span) String() string {
	if s.Start == s.End {
		return fmt.Sprintf("%d", s.Start)
	}
	return fmt.Sprintf("%d-%d", s.Start, s.End)
}

// window is one retained window: a span plus the merged profile of
// every profile appended to an epoch inside it, and, once [Series.Index]
// has filled it, the same masses as a column on the series' spine.
type window struct {
	span Span
	prof *profstore.Profile
	// col holds prof's masses at the series spine's positions, or is
	// nil while the window is unindexed. A column is never written
	// after it is made, so clones share it.
	col []uint64
	// wide marks a window Index left unindexed because its column
	// would take more bytes than its rows; it is cleared whenever prof
	// changes.
	wide bool
}

// Series is an epoch-indexed profile store: non-overlapping windows in
// ascending epoch order, each holding the merged profile of its span.
// The zero value is an empty, usable series. A Series is not safe for
// concurrent use; callers that share one (fleetserver's tenants) hold
// their own lock.
type Series struct {
	windows []window
	// spine is the sorted key union the windows' columns index (nil
	// until Index first fills one). It is replaced, never modified,
	// when it grows, so clones share it.
	spine *profstore.Spine
}

// Len returns the number of retained windows.
func (s *Series) Len() int { return len(s.windows) }

// Spans returns the retained windows' epoch ranges, ascending.
func (s *Series) Spans() []Span {
	out := make([]Span, len(s.windows))
	for i := range s.windows {
		out[i] = s.windows[i].span
	}
	return out
}

// Bounds returns the lowest and highest retained epoch. ok is false
// for an empty series.
func (s *Series) Bounds() (lo, hi uint64, ok bool) {
	if len(s.windows) == 0 {
		return 0, 0, false
	}
	return s.windows[0].span.Start, s.windows[len(s.windows)-1].span.End, true
}

// At returns the merged profile of the i'th retained window (ascending
// epoch order) and its span. The profile is the series' own copy;
// callers must not mutate it.
func (s *Series) At(i int) (*profstore.Profile, Span) {
	return s.windows[i].prof, s.windows[i].span
}

// Clone returns a deep-enough copy: the window list is copied, the
// profiles, columns and spine are shared. Safe because every mutation
// path in this package replaces a window's profile or column rather
// than editing it in place, the replacement profile is a
// profstore.Merge or MergeCanonical result (which it copies out of its
// pooled scratch, so it shares memory with no later merge), a grown
// spine is a new spine with fresh columns, and queries only read — so
// callers like fleetserver index and clone under a lock and query the
// clone outside it, and the clone keeps every column filled before it
// was made.
func (s *Series) Clone() *Series {
	return &Series{windows: append([]window(nil), s.windows...), spine: s.spine}
}

// locate returns the index of the window containing epoch e, or
// (insertion index, false) if no window contains it.
func (s *Series) locate(e uint64) (int, bool) {
	i := sort.Search(len(s.windows), func(i int) bool {
		return s.windows[i].span.End >= e
	})
	if i < len(s.windows) && s.windows[i].span.Contains(e) {
		return i, true
	}
	return i, false
}

// AppendEpoch folds one profile into the series at epoch e. If e falls
// inside an already-retained window — the common case is the newest
// raw epoch receiving many per-run profiles, but a late arrival for an
// epoch long since folded lands just as correctly — the profile merges
// into that window; otherwise a new raw window [e, e] is inserted in
// order. The caller's profile goes through profstore.Merge, so it need
// not be canonical, and every window stays canonical — the
// precondition Window's and Downsample's MergeCanonical rely on. Nil
// profiles are ignored. The flat-merge invariant is preserved either
// way: a query covering e always reflects every profile ever appended
// at e. A window that takes the profile drops its column, so it is
// unindexed until the next Index covers it.
func (s *Series) AppendEpoch(e uint64, p *profstore.Profile) {
	if p == nil {
		return
	}
	epochAppends.Inc()
	i, ok := s.locate(e)
	if ok {
		w := &s.windows[i]
		w.prof = profstore.Merge(w.prof, p)
		w.col, w.wide = nil, false
		return
	}
	s.windows = append(s.windows, window{})
	copy(s.windows[i+1:], s.windows[i:])
	s.windows[i] = window{span: Span{Start: e, End: e}, prof: profstore.Merge(p)}
}

// overlap returns the index range [i, j) of the windows overlapping
// [since, until]; since must not exceed until.
func (s *Series) overlap(since, until uint64) (int, int) {
	i, _ := s.locate(since)
	j := i
	for j < len(s.windows) && s.windows[j].span.Start <= until {
		j++
	}
	return i, j
}

// Window merges every retained window overlapping [since, until] into
// one canonical profile, returning it with the spans that contributed.
// The result is bit-identical to the flat profstore.Merge of every
// profile appended to those spans; it equals the flat merge of exactly
// the epochs [since, until] when the bounds align with retained window
// boundaries (always true before any downsampling, and true after for
// any query cut at fold boundaries — the spans tell the caller which
// epochs were actually included). An empty overlap returns the empty
// profile and no spans. since > until is a caller bug and returns the
// same empty result.
//
// Window only reads the series. When two or more of the overlapping
// windows are indexed (see [Series.Index]), their columns are summed
// into pooled scratch and materialized once, so they cost one vector
// add each instead of a merge; that result and every unindexed window
// then meet in one profstore.MergeCanonical. Every window holds a Merge
// or MergeCanonical result or a window file Open decoded, each
// canonical, so none is re-checked.
func (s *Series) Window(since, until uint64) (*profstore.Profile, []Span) {
	if since > until {
		return &profstore.Profile{}, nil
	}
	windowQueries.Inc()
	t0 := time.Now()
	defer windowWall.ObserveSince(t0)
	i, j := s.overlap(since, until)
	if i == j {
		return &profstore.Profile{}, nil
	}
	windowSpans.Observe(int64(j - i))
	spans := make([]Span, j-i)
	indexed := 0
	for k := i; k < j; k++ {
		spans[k-i] = s.windows[k].span
		if s.windows[k].col != nil {
			indexed++
		}
	}
	if indexed < 2 {
		indexed = 0 // one column saves nothing over its window's rows
	}
	profs := make([]*profstore.Profile, 0, j-i-indexed+1)
	if indexed > 0 {
		profs = append(profs, s.sumColumns(i, j))
	}
	for k := i; k < j; k++ {
		if indexed == 0 || s.windows[k].col == nil {
			profs = append(profs, s.windows[k].prof)
		}
	}
	windowsByColumn.Add(uint64(indexed))
	windowsByMerge.Add(uint64(j - i - indexed))
	if indexed > 0 && len(profs) == 1 {
		return profs[0], spans // the materialized sum is already the caller's own
	}
	return profstore.MergeCanonical(profs...), spans
}

// Merged returns the merge of the whole series — the flat fleet
// profile every retention state must agree with.
func (s *Series) Merged() *profstore.Profile {
	lo, hi, ok := s.Bounds()
	if !ok {
		return &profstore.Profile{}
	}
	p, _ := s.Window(lo, hi)
	return p
}
