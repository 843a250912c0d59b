package tsstore

import "hbbp/internal/telemetry"

// Package-level metric handles, resolved once at init against the
// process-wide registry. Every update below is a single atomic
// operation, so instrumenting the windowed-query path does not move
// the SeriesWindow benchmark.
var (
	windowQueries = telemetry.Default().Counter("hbbp_tsstore_window_queries_total",
		"Windowed queries answered.")
	windowWall = telemetry.Default().Histogram("hbbp_tsstore_window_seconds",
		"Windowed query wall time.", telemetry.NanosToSeconds, telemetry.DurationBuckets())
	windowSpans = telemetry.Default().Histogram("hbbp_tsstore_window_spans",
		"Retained windows covered per query.", 1, telemetry.CountBuckets())
	windowsByColumn = telemetry.Default().Counter("hbbp_tsstore_window_sources_total",
		"Windows answered per query source: a summed column or a row merge.", "source", "column")
	windowsByMerge = telemetry.Default().Counter("hbbp_tsstore_window_sources_total",
		"Windows answered per query source: a summed column or a row merge.", "source", "merge")
	columnsBuilt = telemetry.Default().Counter("hbbp_tsstore_columns_built_total",
		"Window columns Index aligned onto a series spine.")
	epochAppends = telemetry.Default().Counter("hbbp_tsstore_epoch_appends_total",
		"Epoch profiles appended across all series.")
	retentionFolds = telemetry.Default().Counter("hbbp_tsstore_retention_folds_total",
		"Window buckets folded by downsampling.")
	foldWall = telemetry.Default().Histogram("hbbp_tsstore_downsample_seconds",
		"Downsample pass wall time.", telemetry.NanosToSeconds, telemetry.DurationBuckets())
)
