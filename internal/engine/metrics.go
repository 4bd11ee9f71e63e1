package engine

import (
	"samplecf/internal/obs"
)

// Stage label values of the per-stage latency histogram — the pipeline
// phases a traced estimate records: sample draw, arena prepare (encode +
// radix sort), per-page compression, and adaptive CI rounds.
const (
	stageDraw     = "draw"
	stageSort     = "sort"
	stageCompress = "compress"
	stageRounds   = "rounds"
)

// metrics is the engine's instrument set, resolved once at New against the
// engine's registry (Config.Metrics, or a private registry when unset — an
// engine's counters are per-engine state, not process globals, so tests
// running many engines never share ledgers). Every field is an obs
// instrument whose mutation is a single atomic op: the evaluate hot path
// observes without locks or allocation.
type metrics struct {
	hits            *obs.Counter
	misses          *obs.Counter
	evictions       *obs.Counter
	samplesDrawn    *obs.Counter
	samplesShared   *obs.Counter
	maintainedHits  *obs.Counter
	maintainedStale *obs.Counter
	prepared        *obs.Counter
	evaluated       *obs.Counter
	precisionHits   *obs.Counter
	adaptiveRounds  *obs.Counter
	adaptiveRows    *obs.Counter
	prepareNanos    *obs.Counter
	sortRows        *obs.Counter
	shardScatters   *obs.Counter
	shardHits       *obs.Counter
	shardMisses     *obs.Counter
	stratified      *obs.Counter
	strataDirBuilds *obs.Counter
	coalescedWaits  *obs.Counter
	panicsRecovered *obs.Counter
	shardRetries    *obs.Counter
	degradedResults *obs.Counter
	staleServed     *obs.Counter
	breakerOpens    *obs.Counter

	// strataRows ledgers rows drawn per stratum arm (label: the arm's index
	// among its table's non-empty strata) — the skew of this vec is Neyman
	// allocation made visible.
	strataRows *obs.CounterVec
	// strataCountHist records arms per stratified estimate (a count pushed
	// through the duration-typed histogram: bucket boundaries are powers of
	// two either way).
	strataCountHist *obs.Histogram

	queueDepth *obs.Gauge
	inFlight   *obs.Gauge

	// scatterHist times one scattered request's full shard fan-out (draw +
	// sort + compress across every missed shard, plus the gather).
	scatterHist *obs.Histogram

	// Pre-resolved per-stage latency children of
	// samplecf_engine_stage_duration_seconds — resolved once here so the
	// hot path never pays the vec's label lookup.
	stageDrawHist     *obs.Histogram
	stageSortHist     *obs.Histogram
	stageCompressHist *obs.Histogram
	stageRoundsHist   *obs.Histogram
}

// Canonical engine metric names. The /stats compatibility shim in cfserve
// maps the legacy JSON fields onto these, so changing one is an API break
// twice over.
const (
	MetricCacheHits        = "samplecf_engine_cache_hits_total"
	MetricCacheMisses      = "samplecf_engine_cache_misses_total"
	MetricCacheEvictions   = "samplecf_engine_cache_evictions_total"
	MetricSamplesDrawn     = "samplecf_engine_samples_drawn_total"
	MetricSamplesShared    = "samplecf_engine_samples_shared_total"
	MetricMaintainedHits   = "samplecf_engine_maintained_hits_total"
	MetricMaintainedStale  = "samplecf_engine_maintained_stale_total"
	MetricIndexesPrepared  = "samplecf_engine_indexes_prepared_total"
	MetricEvaluated        = "samplecf_engine_evaluated_total"
	MetricPrecisionHits    = "samplecf_engine_precision_hits_total"
	MetricAdaptiveRounds   = "samplecf_engine_adaptive_rounds_total"
	MetricAdaptiveRows     = "samplecf_engine_adaptive_rows_total"
	MetricPrepareNanos     = "samplecf_engine_prepare_nanos_total"
	MetricSortRows         = "samplecf_engine_sort_rows_total"
	MetricShardScatters    = "samplecf_engine_shard_scatters_total"
	MetricShardHits        = "samplecf_engine_shard_cache_hits_total"
	MetricShardMisses      = "samplecf_engine_shard_cache_misses_total"
	MetricStratified       = "samplecf_engine_stratified_estimates_total"
	MetricStrataDirBuilds  = "samplecf_engine_strata_directory_builds_total"
	MetricCoalescedWaits   = "samplecf_engine_coalesced_waits_total"
	MetricPanicsRecovered  = "samplecf_engine_panics_recovered_total"
	MetricShardRetries     = "samplecf_engine_shard_retries_total"
	MetricDegradedResults  = "samplecf_engine_degraded_results_total"
	MetricStaleServed      = "samplecf_engine_stale_served_total"
	MetricBreakerOpens     = "samplecf_engine_breaker_opens_total"
	MetricStrataRows       = "samplecf_engine_strata_rows_total"
	MetricStrataCount      = "samplecf_engine_strata_count"
	MetricScatterFanout    = "samplecf_engine_scatter_fanout_seconds"
	MetricQueueDepth       = "samplecf_engine_queue_depth"
	MetricInFlight         = "samplecf_engine_inflight_jobs"
	MetricCacheEntries     = "samplecf_engine_cache_entries"
	MetricPrecisionEntries = "samplecf_engine_precision_cache_entries"
	MetricStageDuration    = "samplecf_engine_stage_duration_seconds"
)

// newMetrics registers the engine's instruments on r.
func newMetrics(r *obs.Registry) metrics {
	stage := r.HistogramVec(MetricStageDuration,
		"Latency of one pipeline stage execution, by stage.", "stage")
	return metrics{
		hits:            r.Counter(MetricCacheHits, "Result-cache lookups answered from cache (fixed and adaptive)."),
		misses:          r.Counter(MetricCacheMisses, "Result-cache lookups that required evaluation."),
		evictions:       r.Counter(MetricCacheEvictions, "LRU result-cache displacements."),
		samplesDrawn:    r.Counter(MetricSamplesDrawn, "Physical sample draws against storage."),
		samplesShared:   r.Counter(MetricSamplesShared, "Candidates that reused a batch-mate's sample."),
		maintainedHits:  r.Counter(MetricMaintainedHits, "Sample draws served from a table's maintained sample."),
		maintainedStale: r.Counter(MetricMaintainedStale, "Maintained-sample fallbacks to a fresh draw."),
		prepared:        r.Counter(MetricIndexesPrepared, "Encode+sort index builds."),
		evaluated:       r.Counter(MetricEvaluated, "Candidate estimates computed (cache hits excluded)."),
		precisionHits:   r.Counter(MetricPrecisionHits, "Adaptive requests answered from the precision cache by dominance."),
		adaptiveRounds:  r.Counter(MetricAdaptiveRounds, "Estimate-extend rounds run by adaptive requests."),
		adaptiveRows:    r.Counter(MetricAdaptiveRows, "Rows drawn by adaptive requests (cache hits excluded)."),
		prepareNanos:    r.Counter(MetricPrepareNanos, "Wall nanoseconds spent in the prepare stage (encode + sort + profile)."),
		sortRows:        r.Counter(MetricSortRows, "Rows sorted by prepare-stage builds."),
		shardScatters:   r.Counter(MetricShardScatters, "Requests scattered across a partitioned table's shards."),
		shardHits:       r.Counter(MetricShardHits, "Per-shard result-cache hits within scattered requests."),
		shardMisses:     r.Counter(MetricShardMisses, "Per-shard result-cache misses within scattered requests."),
		stratified:      r.Counter(MetricStratified, "Stratified estimates computed, fixed and adaptive (cache hits excluded)."),
		strataDirBuilds: r.Counter(MetricStrataDirBuilds, "Stratification partition builds the partition cache did not absorb, one per table version, key columns and strata count. A build draws a storage pilot only to cut a key domain with no index (1,024 rows, once per domain until its row count halves or doubles) or to weigh the strata of a table with no maintained reservoir at that version (8,192 rows); otherwise it counts the reservoir."),
		coalescedWaits:  r.Counter(MetricCoalescedWaits, "Results served by waiting on a concurrent identical request's in-flight computation."),
		panicsRecovered: r.Counter(MetricPanicsRecovered, "Panics converted to per-item or per-shard errors by the engine's isolation traps."),
		shardRetries:    r.Counter(MetricShardRetries, "Failed shard work units re-run with backoff."),
		degradedResults: r.Counter(MetricDegradedResults, "Partial scatter-gathers served under Request.AllowPartial."),
		staleServed:     r.Counter(MetricStaleServed, "Results served from the last-good-estimate cache while a breaker was open."),
		breakerOpens:    r.Counter(MetricBreakerOpens, "Closed-to-open circuit breaker transitions."),
		strataRows:      r.CounterVec(MetricStrataRows, "Rows drawn per stratum arm by stratified estimates.", "stratum"),
		strataCountHist: r.Histogram(MetricStrataCount, "Arms per stratified estimate (a count, not a duration)."),

		queueDepth: r.Gauge(MetricQueueDepth, "Batch items waiting for a pool worker."),
		inFlight:   r.Gauge(MetricInFlight, "Batch items currently executing on pool workers."),

		scatterHist: r.Histogram(MetricScatterFanout, "Latency of one scattered request's shard fan-out and gather."),

		stageDrawHist:     stage.With(stageDraw),
		stageSortHist:     stage.With(stageSort),
		stageCompressHist: stage.With(stageCompress),
		stageRoundsHist:   stage.With(stageRounds),
	}
}
