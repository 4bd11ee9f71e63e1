package sampling

import "samplecf/internal/obs"

// Process-wide sampling tallies on the default obs registry: one atomic
// add per draw call (not per row), so the sampling paths stay
// allocation-free.
var (
	metricRowsDrawn = obs.Default().Counter(
		"samplecf_sampling_rows_drawn_total",
		"Rows drawn by sampling routines: one-shot, resumable-round and reservoir-gather draws, and every routed stream row of a stratified draw.")
	metricReservoirRebuilds = obs.Default().Counter(
		"samplecf_reservoir_rebuilds_total",
		"Backing-sample reservoir resets ahead of a staleness rebuild scan.")
)
