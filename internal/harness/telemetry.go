package harness

import "hbbp/internal/telemetry"

// Package-level metric handles for the experiment harness, resolved
// once at init against the process-wide registry. These mirror the
// RunPlan Report numbers: the Report stays the per-call receipt, the
// registry the process-lifetime view /metrics serves.
var (
	runcacheMisses = telemetry.Default().Counter("hbbp_harness_runcache_total",
		"Keyed run-cache requests by result (miss = collection executed).", "result", "miss")
	runcacheHits = telemetry.Default().Counter("hbbp_harness_runcache_total",
		"Keyed run-cache requests by result (miss = collection executed).", "result", "hit")
	collectWall = telemetry.Default().Histogram("hbbp_harness_collect_seconds",
		"Build-phase wall time per successful RunPlan call (all requested experiments building at once).",
		telemetry.NanosToSeconds, telemetry.DurationBuckets())
	renderWall = telemetry.Default().Histogram("hbbp_harness_render_seconds",
		"Per-experiment build-plus-render wall time.", telemetry.NanosToSeconds, telemetry.DurationBuckets())
)
