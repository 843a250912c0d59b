package hbbp

import (
	"hbbp/internal/tsstore"
)

// The time axis of the fleet layer: where StoredProfile answers "what
// is the fleet running" and DiffProfiles answers "what changed between
// these two mixes", a ProfileSeries answers "what changed over the
// last k windows". Profiles append per epoch, a retention ladder folds
// old epochs into coarser windows (bounding what a long-lived store
// holds), windowed queries merge any epoch range back into one
// profile, and trend detection flags ops and functions whose
// retirement share moves monotonically across consecutive windows.
// Folding is lossless by construction — profile merging is exact
// integer addition, so any re-grouping of epochs merges bit-identical
// to the flat merge — which makes this the rare retention policy that
// is proven exact rather than estimated.

// ProfileSeries is an epoch-indexed store of merged profiles:
// non-overlapping windows in ascending epoch order. The zero value is
// an empty, usable series. Not safe for concurrent use.
type ProfileSeries = tsstore.Series

// SeriesSpan is one retained window's inclusive epoch range.
type SeriesSpan = tsstore.Span

// RetentionPolicy is a downsampling ladder — e.g. keep the last 8
// epochs raw, then 4 epochs per window, then 16. The zero value
// retains everything raw. Set it on [FleetServerConfig].Retention to
// bound a long-lived ingest server's memory.
type RetentionPolicy = tsstore.Retention

// RetentionLevel is one rung of a [RetentionPolicy].
type RetentionLevel = tsstore.Level

// TrendOptions parameterize [ProfileSeries.Trend]: how many of the
// newest windows to scan (K) and the minimum share drift to flag
// (Threshold). The zero value selects the defaults.
type TrendOptions = tsstore.TrendOptions

// TrendReport is the outcome of a trend scan: ops and functions whose
// retirement share moved strictly monotonically across the scanned
// windows, sorted by drift magnitude.
type TrendReport = tsstore.TrendReport

// TrendEntry is one flagged monotonic mover.
type TrendEntry = tsstore.TrendEntry

// DefaultTrendK and DefaultTrendThreshold are the trend scan defaults:
// three consecutive windows, half a percentage point of drift.
const (
	DefaultTrendK         = tsstore.DefaultTrendK
	DefaultTrendThreshold = tsstore.DefaultTrendThreshold
)

// DefaultRetention returns the standard ladder: 8 raw epochs, then
// 4:1 for the next 16, then 16:1 forever.
func DefaultRetention() RetentionPolicy { return tsstore.DefaultRetention() }

// ParseRetention reads a ladder spec of comma-separated WIDTH:KEEP
// pairs, e.g. "1:8,4:4,16:0". The empty string is the fold-nothing
// policy, and "default" is [DefaultRetention].
func ParseRetention(spec string) (RetentionPolicy, error) {
	return tsstore.ParseRetention(spec)
}

// OpenSeries loads a profile series from a directory written by
// [ProfileSeries.Save]. A nonexistent or index-less directory opens as
// an empty series. Malformed stores classify under errors.Is against
// [ErrSeriesMagic], [ErrSeriesTruncated], [ErrSeriesVersion],
// [ErrSeriesWindowMismatch] and the profile sentinels.
func OpenSeries(dir string) (*ProfileSeries, error) {
	return tsstore.Open(dir)
}

// The series' window profiles and [StoredProfile] are the same type —
// a windowed query result flows straight into the stored analysis
// views (pivots, diffs, SaveProfile) with no adaptation. This
// compile-time check keeps the façade honest about it.
var _ func(*ProfileSeries) *StoredProfile = (*ProfileSeries).Merged
