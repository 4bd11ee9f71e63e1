// Package engine is the concurrent what-if estimation engine: the layer
// that turns one-shot SampleCF runs into a service-grade primitive. The
// paper's point is that sampling makes compressed-index size estimates
// cheap enough for an automated physical design tool to call *many times*;
// the realistic call pattern (Kimura et al., "Compression Aware Physical
// Database Design") is a batch of what-if questions over many
// (index-column-set, codec) candidates of the same table. The engine
// exploits that shape three ways:
//
//   - shared-sample batching — one uniform sample is drawn per
//     (table, fraction|rows, seed) and reused by every candidate in the
//     batch, and the encoded, key-sorted index build (core.PreparedIndex)
//     is shared by every codec of the same column set;
//   - a worker pool — candidates evaluate concurrently across a bounded
//     set of goroutines shared by all in-flight batches;
//   - an LRU result cache keyed by (table instance id, version epoch, key
//     columns, codec, fraction|rows, seed, page size) with
//     hit/miss/eviction counters, so repeated what-if traffic (the
//     advisor's enumeration loops, cfserve's HTTP clients) skips
//     re-estimation entirely. The epoch comes from the catalog contract:
//     mutations bump it, so stale entries miss by key inequality — an O(1)
//     invalidation with no row access, replacing the previous per-request
//     content fingerprint that probed table rows;
//   - a maintained-sample fast path — tables that keep a backing sample
//     (catalog.SampleProvider, e.g. live db tables) serve estimation
//     samples from memory when the snapshot matches the request's epoch,
//     skipping the O(r) storage draw entirely;
//   - cross-request coalescing — concurrent identical cache misses from
//     different batches collapse into one in-flight computation whose
//     result fans out to every waiter (flight.go), with per-waiter
//     cancellation that never aborts the shared work while a waiter
//     remains;
//   - snapshot-pinned draws — fresh draws against tables that publish
//     copy-on-write snapshots (catalog.SnapshotProvider) read a pinned
//     immutable view, so sampling a live table holds no lock and never
//     stalls its writers.
//
// Batches take a context: items not yet started when the deadline expires
// fail with the context error, while every other item completes normally —
// errors are isolated per candidate, never batch-fatal.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/faults"
	"samplecf/internal/obs"
	"samplecf/internal/page"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// Table is the engine's view of an estimation source: the versioned
// catalog abstraction. workload.Table, workload.VirtualTable, and live
// db.Table all satisfy it.
type Table = catalog.Table

// Config tunes an Engine.
type Config struct {
	// Workers is the goroutine pool size (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the LRU result cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// PageSize is the default index page size for requests that leave
	// theirs zero (default page.DefaultSize).
	PageSize int
	// Metrics is the registry the engine's instruments register on. Leave
	// nil for a private registry: an engine's counters are per-engine
	// state, and sharing a process registry across engines would merge
	// their ledgers. cfserve passes its own registry so GET /metrics
	// serves the engine's instruments.
	Metrics *obs.Registry

	// RetryMax caps how many times a failed shard of a scattered request
	// is retried before the request gives up on it (default 2; negative
	// disables retries).
	RetryMax int
	// RetryBackoff is the first retry's backoff (default 1ms); it doubles
	// per attempt up to RetryBackoffCap (default 50ms). The sleep is
	// jittered over [d/2, d] and aborts when the request's context
	// expires.
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration

	// BreakerThreshold is the consecutive full-failure count that opens a
	// (table instance, codec) circuit breaker (default 5; negative
	// disables the breaker and the stale-while-revalidate path with it).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker denies computation
	// before admitting one probe (default 1s). While open, requests are
	// served the last good estimate marked Stale when one exists, and
	// ErrBreakerOpen otherwise.
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 1024
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.PageSize == 0 {
		c.PageSize = page.DefaultSize
	}
	switch {
	case c.RetryMax == 0:
		c.RetryMax = 2
	case c.RetryMax < 0:
		c.RetryMax = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.RetryBackoffCap == 0 {
		c.RetryBackoffCap = 50 * time.Millisecond
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 5
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Request is one what-if question: how big would the index on
// Table(KeyColumns) be under Codec, estimated from a sample of Fraction
// (or exactly SampleRows rows) drawn with Seed?
type Request struct {
	Table Table
	// KeyColumns is the index column sequence (empty = all columns).
	KeyColumns []string
	// Codec is required; sizing uncompressed candidates needs no estimator.
	Codec compress.Codec
	// Fraction is the sampling fraction f; ignored when SampleRows > 0.
	Fraction float64
	// SampleRows fixes the sample size r directly.
	SampleRows int64
	// Seed fixes the sample, making results reproducible and cacheable.
	Seed uint64
	// PageSize overrides the engine default for this request.
	PageSize int
	// FreshSample bypasses the maintained-sample fast path: the estimate
	// is computed from a direct draw against the table even when it
	// offers a maintained sample (catalog.SampleProvider). Fresh results
	// are cached separately from maintained-sample results, so a fresh
	// request is never answered with a maintained-sample estimate.
	FreshSample bool

	// Strata switches the request to stratified sampling: the key domain
	// splits into up to Strata contiguous ranges (boundaries from an
	// existing index's separator keys, else a fixed-seed pilot; kept
	// across writes until the table halves or doubles), each range fed by
	// its own queue of one routed uniform stream and weighted by the
	// table's maintained reservoir at the request's epoch (a fixed-seed
	// weight pilot when it keeps none), composed by stratified mean and
	// variance. 0 and 1 both disable it: a Strata 1 ask is answered
	// exactly as a Strata 0 one, cache entry included. Stratified draws
	// are always fresh (the maintained sample serves only the weights),
	// and a partitioned table stratifies within each shard.
	Strata int

	// TargetError switches the request to precision-targeted adaptive
	// estimation: instead of a fixed sample size, the engine grows the
	// sample in resumable rounds until the estimate's confidence interval
	// has half-width ≤ TargetError (absolute, on CF) or the row budget is
	// exhausted. Fraction/SampleRows, when set, seed the first round's
	// size. Adaptive results are cached by precision dominance — an entry
	// achieving ±1% answers a later ±5% request for the same (instance,
	// epoch, columns, codec) without resampling — rather than by exact
	// (fraction, rows, seed) match.
	TargetError float64
	// Confidence is the adaptive CI's two-sided confidence level
	// (default 0.95). Requires TargetError.
	Confidence float64
	// MaxSampleRows caps the adaptive row budget (default: the table
	// size). When the target is unreachable within the budget the result
	// reports Converged=false with the honest achieved error. Requires
	// TargetError.
	MaxSampleRows int64

	// AllowPartial lets a request against a partitioned table succeed
	// when some shards fail persistently (after retries): the surviving
	// shards merge under renormalized stratified weights and the result
	// reports Degraded, the failed shard indices, and a widened
	// confidence interval. Without it, any shard failure fails the
	// request with every shard's error joined.
	AllowPartial bool

	// bypassBreaker marks the engine's own background revalidation
	// requests, which must compute even while the breaker is open.
	bypassBreaker bool
}

// Result is one candidate's outcome. Err is per-candidate: a failed or
// deadline-expired item never poisons its batch.
type Result struct {
	Estimate core.Estimate
	Err      error
	// CacheHit reports the estimate came from the LRU cache (fixed-r
	// requests) or the precision cache by dominance (adaptive requests).
	CacheHit bool
	// SharedSample reports the estimate reused a sample drawn for another
	// candidate in the same batch.
	SharedSample bool
	// Coalesced reports the estimate was computed by a concurrent identical
	// request (possibly from another batch) and fanned out to this one.
	Coalesced bool

	// Adaptive-request outcome (zero for fixed-r requests): AchievedError
	// is the final CI half-width at the requested confidence, Rounds the
	// number of estimate→extend rounds run, and Converged whether the
	// target was met within the row budget. Degraded results repurpose
	// AchievedError for the widened interval (see Degraded).
	AchievedError float64
	Rounds        int
	Converged     bool

	// Degraded reports a partial scatter-gather (Request.AllowPartial):
	// the shards in ShardsFailed failed persistently and the estimate
	// merges only the survivors under renormalized stratified weights,
	// with AchievedError carrying the widened 95% half-width. Degraded
	// results are never cached — the next request retries the shards.
	Degraded     bool
	ShardsFailed []int

	// Stale reports the estimate is the last good result for this
	// request's identity, served because the (table, codec) circuit
	// breaker is open; a background revalidation may be in flight.
	Stale bool
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Hits and Misses count result-cache lookups; Evictions counts LRU
	// displacements.
	Hits, Misses, Evictions uint64
	// SamplesDrawn counts physical sample draws; SamplesShared counts
	// candidates that reused a batch-mate's sample.
	SamplesDrawn, SamplesShared uint64
	// MaintainedHits counts sample draws served from a table's maintained
	// sample; MaintainedStale counts fallbacks to a fresh draw because the
	// maintained snapshot was missing, undersized, or at a different
	// epoch than the request.
	MaintainedHits, MaintainedStale uint64
	// IndexesPrepared counts encode+sort builds; Evaluated counts candidate
	// estimates computed (cache hits excluded).
	IndexesPrepared, Evaluated uint64
	// PrecisionHits counts adaptive requests answered from the precision
	// cache by dominance (a tighter cached interval satisfied the ask);
	// each is also counted in Hits, so Hits/Misses stays the overall
	// cache hit ledger across fixed and adaptive traffic.
	PrecisionHits uint64
	// AdaptiveRounds and AdaptiveRows total the estimate→extend rounds
	// run and the rows drawn by adaptive requests (cache hits excluded).
	AdaptiveRounds, AdaptiveRows uint64
	// PrepareNanos totals wall time spent in the prepare stage (encode +
	// radix sort + profile, including adaptive extensions); SortRows totals
	// the rows those builds sorted. Together they expose the per-row cost
	// of the sort subsystem: PrepareNanos/SortRows is the live ns/row.
	PrepareNanos, SortRows uint64
	// ShardScatters counts requests scattered across a partitioned table's
	// shards; ShardCacheHits/ShardCacheMisses are the per-shard result-cache
	// ledger inside those scatters (a fully-hit scatter is also one Hits).
	ShardScatters, ShardCacheHits, ShardCacheMisses uint64
	// StratifiedEstimates counts stratified estimates computed (fixed and
	// adaptive; cache hits excluded); StrataDirBuilds counts partition
	// builds the partition cache did not absorb, one per table version
	// (see MetricStrataDirBuilds for which draw a storage pilot). (The
	// name predates routing, which replaced the strata directory; the
	// /stats field keeps it.)
	StratifiedEstimates, StrataDirBuilds uint64
	// CoalescedWaits counts results served by waiting on a concurrent
	// identical request's in-flight computation (flight.go) instead of
	// computing — the cross-request sharing the per-batch groups cannot see.
	CoalescedWaits uint64
	// PanicsRecovered counts panics converted to per-item or per-shard
	// errors by the engine's isolation traps; ShardRetries counts failed
	// shard work units re-run with backoff; DegradedResults counts
	// partial scatter-gathers served under Request.AllowPartial;
	// StaleServed counts results served from the last-good-estimate cache
	// while a breaker was open; BreakerOpens counts closed→open breaker
	// transitions.
	PanicsRecovered, ShardRetries, DegradedResults uint64
	StaleServed, BreakerOpens                      uint64
	// CacheEntries is the current LRU size; PrecisionEntries the current
	// precision-cache size.
	CacheEntries     int
	PrecisionEntries int
}

// Engine owns the worker pool and result cache. Create with New, release
// with Close. All methods are safe for concurrent use.
type Engine struct {
	cfg        Config
	cache      *lru[cacheKey, core.Estimate]
	precision  *lru[precisionKey, precisionEntry]
	cuts       *lru[cutKey, *built[*core.Cuts]]
	partitions *lru[partKey, *built[*core.Partition]]
	stale      *lru[any, Result]
	flights    flightGroup
	registry   *obs.Registry

	brMu     sync.Mutex
	breakers map[breakerKey]*breaker

	jobs chan func()
	quit chan struct{}
	wg   sync.WaitGroup
	// bg tracks background revalidation goroutines (spawnRefresh); Close
	// waits for them after the pool drains.
	bg sync.WaitGroup

	closeOnce sync.Once

	// arenas recycles sample arenas across batches (drawSample, WhatIf).
	arenas sync.Pool

	// metrics is embedded so counter sites read as e.hits.Add(1): every
	// ledger the engine keeps lives on the obs registry, and Stats() is a
	// read-back view of the same instruments.
	metrics
}

// New starts an engine with cfg's worker pool.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:        cfg,
		cache:      newLRU[cacheKey](cfg.CacheEntries, cloneEstimate),
		precision:  newLRU[precisionKey](cfg.CacheEntries, clonePrecision),
		cuts:       newLRU[cutKey, *built[*core.Cuts]](cfg.CacheEntries, nil),
		partitions: newLRU[partKey, *built[*core.Partition]](cfg.CacheEntries, nil),
		stale:      newLRU[any](cfg.CacheEntries, cloneResult),
		breakers:   make(map[breakerKey]*breaker),
		registry:   reg,
		jobs:       make(chan func()),
		quit:       make(chan struct{}),
		metrics:    newMetrics(reg),
	}
	reg.GaugeFunc(MetricCacheEntries, "Entries resident in the LRU result cache.",
		func() int64 { return int64(e.cache.Len()) })
	reg.GaugeFunc(MetricPrecisionEntries, "Entries resident in the precision dominance cache.",
		func() int64 { return int64(e.precision.Len()) })
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer e.wg.Done()
			// jobs is unbuffered, so a send only completes when paired with
			// a receive here — an accepted job always runs, and the channel
			// is never closed (senders select on quit instead).
			for {
				select {
				case job := <-e.jobs:
					job()
				case <-e.quit:
					return
				}
			}
		}()
	}
	return e
}

// Close stops the worker pool after in-flight work drains, then waits
// for any background revalidations. Batches submitted after Close fail
// with an error result per item.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
	e.wg.Wait()
	e.bg.Wait()
}

// Stats snapshots the counters — a read-back view of the same obs
// instruments GET /metrics exposes, kept for the /stats JSON contract and
// in-process callers.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:                e.hits.Value(),
		Misses:              e.misses.Value(),
		Evictions:           e.evictions.Value(),
		SamplesDrawn:        e.samplesDrawn.Value(),
		SamplesShared:       e.samplesShared.Value(),
		MaintainedHits:      e.maintainedHits.Value(),
		MaintainedStale:     e.maintainedStale.Value(),
		IndexesPrepared:     e.prepared.Value(),
		Evaluated:           e.evaluated.Value(),
		PrecisionHits:       e.precisionHits.Value(),
		AdaptiveRounds:      e.adaptiveRounds.Value(),
		AdaptiveRows:        e.adaptiveRows.Value(),
		PrepareNanos:        e.prepareNanos.Value(),
		SortRows:            e.sortRows.Value(),
		ShardScatters:       e.shardScatters.Value(),
		ShardCacheHits:      e.shardHits.Value(),
		ShardCacheMisses:    e.shardMisses.Value(),
		StratifiedEstimates: e.stratified.Value(),
		StrataDirBuilds:     e.strataDirBuilds.Value(),
		CoalescedWaits:      e.coalescedWaits.Value(),
		PanicsRecovered:     e.panicsRecovered.Value(),
		ShardRetries:        e.shardRetries.Value(),
		DegradedResults:     e.degradedResults.Value(),
		StaleServed:         e.staleServed.Value(),
		BreakerOpens:        e.breakerOpens.Value(),
		CacheEntries:        e.cache.Len(),
		PrecisionEntries:    e.precision.Len(),
	}
}

// Registry returns the obs registry the engine's instruments live on (the
// one passed via Config.Metrics, or the engine's private registry).
func (e *Engine) Registry() *obs.Registry { return e.registry }

// Estimate answers a single what-if question through the engine (cache,
// pool, and all); it is WhatIf with a one-element batch.
func (e *Engine) Estimate(ctx context.Context, req Request) Result {
	return e.WhatIf(ctx, []Request{req})[0]
}

// sampleGroup shares one drawn sample among every batch item with the same
// (table instance, epoch, sample size, seed). The sample is arena-encoded
// at draw time (records + memcomparable keys in two contiguous buffers)
// into an arena from the engine's pool, returned when the batch does;
// prep groups sort windows of it in place (or project their key columns
// straight out of it), so no []value.Row intermediate exists on either the
// fresh or the maintained route.
type sampleGroup struct {
	once    sync.Once
	table   Table
	r       int64
	seed    uint64
	epoch   uint64
	fresh   bool // at least one member demanded a fresh draw
	members int

	ar  *value.RecordArena
	err error
}

// prepGroup shares one encoded, key-sorted index among every batch item
// with the same sample group and key column set. root, when set, is the
// group's key chain root (linkChains): its sort serves this group too.
type prepGroup struct {
	once    sync.Once
	sg      *sampleGroup
	keyCols []string
	members int
	root    *prepGroup

	prep *core.PreparedIndex
	err  error
}

// adaptiveGroupKey identifies adaptive batch items that may share one
// loop: the precision key plus every knob that changes the loop itself.
// (Two asks at different targets must not share — the looser one would be
// fine with the tighter result, but not vice versa, and the scheduling
// scan cannot know which finishes first.)
type adaptiveGroupKey struct {
	pkey       precisionKey
	target     float64
	confidence float64
	maxRows    int64
	fraction   float64
	rows       int64
	seed       uint64
	// partial separates AllowPartial loops from strict ones: a degraded
	// partial result must never fan out to a waiter that did not opt in.
	partial bool
}

// adaptiveGroup runs one precision-targeted loop for every batch item with
// the same adaptive key: identical adaptive asks share everything (their
// rounds, their rows, their result), so a batch listing the same
// (columns, codec, target) twice costs one loop, not two.
type adaptiveGroup struct {
	once sync.Once
	res  core.AdaptiveResult
	// failed lists the shard indices a degraded sharded loop dropped
	// (AllowPartial only; empty for full results).
	failed []int
	err    error
}

// round0Key identifies adaptive batch items that can share their initial
// draw even though their loops diverge afterwards: same table version,
// seed, starting size, and freshness demand. The round-0 sample is drawn
// under the full table schema, so items over different key columns — the
// advisor's per-codec and per-column-set screen — all project out of one
// shared arena, mirroring the fixed path's sample groups.
type round0Key struct {
	inst  uint64
	epoch uint64
	seed  uint64
	r0    int64
	fresh bool
}

// round0Group is the shared initial draw: the full-schema arena, plus —
// on the maintained route — the snapshot it was gathered from and the
// reservoir slots round 0 consumed (each loop continues from a copy).
type round0Group struct {
	once       sync.Once
	full       *value.RecordArena
	maintained bool
	snap       catalog.Sample
	chosen     map[int64]struct{}
	err        error
}

// batchItem is one request resolved against the dedup structures. Adaptive
// items carry a precision key and group instead of sample/prep groups:
// sample sizes diverge across different adaptive keys as rounds progress,
// so only identical keys share. Scattered items over partitioned tables
// carry per-shard work units instead of a single sample/prep group.
type batchItem struct {
	idx  int
	req  Request
	key  cacheKey
	sg   *sampleGroup
	pg   *prepGroup
	pkey precisionKey
	ag   *adaptiveGroup
	r0g  *round0Group
	// shards, when non-nil, marks a scattered fixed-r request over a
	// partitioned table: one work unit per non-empty shard, some possibly
	// pre-answered from the per-shard cache.
	shards []*shardWork
	// stratified marks a fixed-r request run as round 0 of the arm loop
	// (runArms; Request.Strata > 1): per-arm streams, no group dedup.
	stratified bool
}

// WhatIf evaluates a batch of candidates, drawing each distinct
// (table, sample size, seed) sample once and each distinct
// (sample, key columns) index build once, fanning the per-codec
// compression work across the worker pool. The result slice is parallel to
// reqs. ctx bounds the batch: items not started before ctx expires carry
// ctx's error; items already running complete.
func (e *Engine) WhatIf(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}

	sampleGroups := make(map[sgKey]*sampleGroup)
	prepGroups := make(map[pgKey]*prepGroup)
	adaptiveGroups := make(map[adaptiveGroupKey]*adaptiveGroup)
	round0Groups := make(map[round0Key]*round0Group)
	var pending []*batchItem

	for i, req := range reqs {
		if err := validate(req); err != nil {
			results[i] = Result{Err: err}
			continue
		}
		if req.Strata == 1 {
			req.Strata = 0 // one stratum is no stratification
		}
		// The version epoch read here keys both the cache entry and the
		// sample group: a mutation committed after this point produces a
		// different epoch and therefore a different key — O(1)
		// invalidation, no row access.
		epoch := req.Table.Epoch()
		pageSize := req.PageSize
		if pageSize == 0 {
			pageSize = e.cfg.PageSize
		}
		if req.TargetError > 0 {
			// Adaptive request: consult the precision cache by dominance,
			// then schedule a private resumable loop on the pool.
			pk := precisionKey{
				inst:     req.Table.InstanceID(),
				epoch:    epoch,
				columns:  strings.Join(req.KeyColumns, "\x00"),
				codec:    req.Codec.Name(),
				pageSize: pageSize,
				fresh:    req.FreshSample,
				strata:   req.Strata,
			}
			if sh, ok := req.Table.(catalog.Sharded); ok {
				pk.epochs = packEpochs(sh.EpochVector())
			}
			if ent, ok := e.precisionHit(pk, zFor(req.Confidence), req.TargetError); ok {
				// A dominance answer counts in both ledgers: Hits keeps
				// hits/misses symmetric across fixed and adaptive traffic,
				// PrecisionHits attributes it to the dominance rule.
				e.hits.Add(1)
				e.precisionHits.Add(1)
				results[i] = Result{
					Estimate:      ent.est,
					CacheHit:      true,
					AchievedError: ent.sdScale * zFor(req.Confidence),
					Rounds:        ent.rounds,
					Converged:     true,
				}
				continue
			}
			e.misses.Add(1)
			ak := adaptiveGroupKey{
				pkey: pk, target: req.TargetError, confidence: req.Confidence,
				maxRows: req.MaxSampleRows, fraction: req.Fraction,
				rows: req.SampleRows, seed: req.Seed, partial: req.AllowPartial,
			}
			ag, ok := adaptiveGroups[ak]
			if !ok {
				ag = &adaptiveGroup{}
				adaptiveGroups[ak] = ag
			}
			var r0g *round0Group
			if _, sharded := req.Table.(catalog.Sharded); !sharded && req.Strata == 0 {
				// Sharded and stratified adaptive loops draw per-arm round-0
				// samples inside the loop itself; only plain unsharded loops
				// share the whole-table round-0 arena.
				rk := round0Key{
					inst: pk.inst, epoch: epoch, seed: req.Seed,
					r0: initialAdaptiveRows(req), fresh: req.FreshSample,
				}
				var ok bool
				r0g, ok = round0Groups[rk]
				if !ok {
					r0g = &round0Group{}
					round0Groups[rk] = r0g
				}
			}
			pending = append(pending, &batchItem{idx: i, req: req, pkey: pk, ag: ag, r0g: r0g})
			continue
		}
		n := req.Table.NumRows()
		r := req.SampleRows
		if r <= 0 {
			r = sampling.SampleSize(n, req.Fraction)
		}
		if r <= 0 {
			results[i] = Result{Err: invalidf("engine: request %d: sample size is zero (fraction %v)", i, req.Fraction)}
			continue
		}
		if req.Strata > 0 {
			// Stratified fixed-r request: no sample/prep dedup (draws are
			// per-stratum streams) and no per-shard scatter cache — the
			// merged estimate caches under the request-level key, and the
			// shared artifact (the partition: boundaries and weights) has
			// its own per-table-version cache.
			key := cacheKey{
				inst:     req.Table.InstanceID(),
				epoch:    epoch,
				columns:  strings.Join(req.KeyColumns, "\x00"),
				codec:    req.Codec.Name(),
				fraction: req.Fraction,
				rows:     req.SampleRows,
				seed:     req.Seed,
				pageSize: pageSize,
				fresh:    req.FreshSample,
				shard:    wholeTable,
				strata:   req.Strata,
			}
			if est, ok := e.cache.Get(key, nil); ok {
				e.hits.Add(1)
				results[i] = Result{Estimate: est, CacheHit: true}
				continue
			}
			e.misses.Add(1)
			pending = append(pending, &batchItem{idx: i, req: req, key: key, stratified: true})
			continue
		}
		if sh, ok := req.Table.(catalog.Sharded); ok {
			// Partitioned table: scatter the request across shards, checking
			// the per-shard cache first. A fully-cached scatter gathers
			// immediately; otherwise only the missed shards evaluate.
			it, res, done := e.planScatter(i, req, pageSize, r, sh, sampleGroups, prepGroups)
			if done {
				results[i] = res
				continue
			}
			pending = append(pending, it)
			continue
		}
		key := cacheKey{
			inst:     req.Table.InstanceID(),
			epoch:    epoch,
			columns:  strings.Join(req.KeyColumns, "\x00"),
			codec:    req.Codec.Name(),
			fraction: req.Fraction,
			rows:     req.SampleRows,
			seed:     req.Seed,
			pageSize: pageSize,
			fresh:    req.FreshSample,
			shard:    wholeTable,
		}
		if est, ok := e.cache.Get(key, nil); ok {
			e.hits.Add(1)
			results[i] = Result{Estimate: est, CacheHit: true}
			continue
		}
		e.misses.Add(1)

		sk := sgKey{inst: key.inst, epoch: epoch, r: r, seed: req.Seed}
		sg, ok := sampleGroups[sk]
		if !ok {
			sg = &sampleGroup{table: req.Table, r: r, seed: req.Seed, epoch: epoch}
			sampleGroups[sk] = sg
		}
		if req.FreshSample {
			sg.fresh = true
		}
		sg.members++
		pk := pgKey{sg: sk, cols: key.columns}
		pg, ok := prepGroups[pk]
		if !ok {
			pg = &prepGroup{sg: sg, keyCols: req.KeyColumns}
			prepGroups[pk] = pg
		}
		pg.members++
		pending = append(pending, &batchItem{idx: i, req: req, key: key, sg: sg, pg: pg})
	}

	linkChains(prepGroups)

	var wg sync.WaitGroup
	for _, it := range pending {
		it := it
		job := func() {
			defer wg.Done()
			e.queueDepth.Dec()
			e.inFlight.Inc()
			defer e.inFlight.Dec()
			// Last-resort trap: a panic escaping the per-stage recovers
			// below must fail this item, never kill the pool worker (a
			// dead worker would shrink the pool for the process lifetime).
			defer func() {
				if r := recover(); r != nil {
					e.panicsRecovered.Add(1)
					results[it.idx] = Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, faults.AsError(r))}
				}
			}()
			results[it.idx] = e.evaluate(ctx, it)
		}
		wg.Add(1)
		e.queueDepth.Inc()
		select {
		case e.jobs <- job:
		case <-e.quit:
			wg.Done()
			e.queueDepth.Dec()
			results[it.idx] = Result{Err: fmt.Errorf("engine: closed")}
		case <-ctx.Done():
			wg.Done()
			e.queueDepth.Dec()
			results[it.idx] = Result{Err: fmt.Errorf("engine: request %d not started: %w", it.idx, ctx.Err())}
		}
	}
	wg.Wait()
	// Every job of the batch has returned, and nothing it leaves behind
	// (results, cache entries, coalesced copies) references a sample.
	for _, sg := range sampleGroups {
		if sg.ar != nil {
			e.arenas.Put(sg.ar)
		}
	}
	return results
}

// linkChains points every prep group at the root of its key chain: the
// widest group on the same sample whose key window starts at the same
// byte (core.KeyRun). Each group's key is then a byte prefix of its
// root's, so the root's one sort serves the whole chain (prepare). Groups
// whose key columns are not a run of the table's columns are projected
// and sort alone.
func linkChains(groups map[pgKey]*prepGroup) {
	if len(groups) < 2 {
		return // a chain needs two members; cache-hit batches have none
	}
	type chain struct {
		sg  *sampleGroup
		off int
	}
	type member struct {
		pg    *prepGroup
		c     chain
		width int
	}
	members := make([]member, 0, len(groups))
	roots := make(map[chain]member, len(groups))
	for _, pg := range groups {
		off, w, ok := core.KeyRun(pg.sg.table.Schema(), pg.keyCols)
		if !ok {
			continue
		}
		m := member{pg: pg, c: chain{pg.sg, off}, width: w}
		members = append(members, m)
		if r, ok := roots[m.c]; !ok || w > r.width {
			roots[m.c] = m
		}
	}
	for _, m := range members {
		if r := roots[m.c].pg; r != m.pg {
			m.pg.root = r
		}
	}
}

// evaluate runs one batch item on a pool worker, coalescing identical
// concurrent misses across batches: items with a coalescing key run
// through the flight group (flight.go), which either leads the computation
// or waits on another request's in-flight one. Scattered items (nil key)
// evaluate directly — their per-shard cache handles cross-request reuse.
func (e *Engine) evaluate(ctx context.Context, it *batchItem) Result {
	if err := ctx.Err(); err != nil {
		return Result{Err: fmt.Errorf("engine: request %d not started: %w", it.idx, err)}
	}
	// A breaker refresh never joins a flight: the one it would find is
	// usually its own probe's, which answers stale, and a refresh handed
	// that answer computes nothing and leaves the breaker probing forever.
	if key := flightKey(it); key != nil && !it.req.bypassBreaker {
		return e.coalesce(ctx, key, it)
	}
	return e.evaluateMiss(ctx, it)
}

// evaluateMiss computes one batch item behind its circuit breaker: the
// gate may answer with a stale estimate (or ErrBreakerOpen) while the
// breaker is open; otherwise the computation runs with panic isolation
// and its outcome feeds the breaker and stale ledgers.
func (e *Engine) evaluateMiss(ctx context.Context, it *batchItem) Result {
	if res, ok := e.breakerGate(it); ok {
		return res
	}
	res := e.computeItem(ctx, it)
	e.noteOutcome(it, res)
	return res
}

// computeItem runs one batch item's computation under the item-level
// panic trap: a panic anywhere below — injected or organic — becomes this
// item's error, carrying the injection point and stack.
func (e *Engine) computeItem(ctx context.Context, it *batchItem) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			e.panicsRecovered.Add(1)
			res = Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, faults.AsError(r))}
		}
	}()
	return e.evaluateItem(ctx, it)
}

// evaluateItem computes one batch item: draw (or reuse) the group's
// sample, build (or reuse) the sorted index, compress with the item's
// codec, and cache the result.
func (e *Engine) evaluateItem(ctx context.Context, it *batchItem) Result {
	if err := ctx.Err(); err != nil {
		return Result{Err: fmt.Errorf("engine: request %d not started: %w", it.idx, err)}
	}
	if it.req.TargetError > 0 {
		return e.evaluateAdaptive(ctx, it)
	}
	if it.stratified {
		r := it.req.SampleRows
		if r <= 0 {
			r = sampling.SampleSize(it.req.Table.NumRows(), it.req.Fraction)
		}
		res, failed, half, err := e.runArms(ctx, it.req, it.key.epoch, it.key.pageSize, core.Precision{}, r)
		if err != nil {
			return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, err)}
		}
		if failed != nil {
			return Result{Estimate: res.Estimate, Degraded: true, ShardsFailed: failed, AchievedError: half}
		}
		if ev := e.cache.Put(it.key, res.Estimate, nil); ev > 0 {
			e.evictions.Add(uint64(ev))
		}
		return Result{Estimate: res.Estimate}
	}
	if it.shards != nil {
		return e.evaluateScatter(ctx, it)
	}
	sg := it.sg
	e.draw(ctx, sg)
	if sg.err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: sampling: %w", it.idx, sg.err)}
	}
	pg := it.pg
	e.prepare(ctx, pg)
	if pg.err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: prepare index: %w", it.idx, pg.err)}
	}
	pageSize := it.req.PageSize
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	_, endCompress := obs.StartSpan(ctx, stageCompress)
	t0 := time.Now()
	est, err := pg.prep.Estimate(core.Options{Codec: it.req.Codec, PageSize: pageSize})
	e.stageCompressHist.Observe(time.Since(t0))
	endCompress.End()
	if err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, err)}
	}
	e.evaluated.Add(1)
	shared := sg.members > 1
	if shared {
		e.samplesShared.Add(1)
	}
	_, endCache := obs.StartSpan(ctx, "cache")
	if ev := e.cache.Put(it.key, est, nil); ev > 0 {
		e.evictions.Add(uint64(ev))
	}
	endCache.End()
	return Result{Estimate: est, SharedSample: shared}
}

// draw fills a sample group's arena once per batch (drawSample).
func (e *Engine) draw(ctx context.Context, sg *sampleGroup) {
	sg.once.Do(func() {
		_, end := obs.StartSpan(ctx, stageDraw)
		t0 := time.Now()
		e.drawSample(sg)
		e.stageDrawHist.Observe(time.Since(t0))
		end.End()
	})
}

// prepare builds a prep group's index once per batch, from its sample
// group's drawn arena. A key chain's root sorts its window of the sample
// (core.PrepareFromArena); any other member waits for its root and takes a
// narrower view of the root's sort (core.PreparedIndex.Prefix), which
// profiles but does not sort, and so is no build in IndexesPrepared.
func (e *Engine) prepare(ctx context.Context, pg *prepGroup) {
	pg.once.Do(func() {
		// The trap must live INSIDE the once closure: sync.Once marks the
		// closure done even when it panics, so without it a panicking
		// build would leave batch-mates a "done" group with nil prep and
		// nil err.
		defer e.trapShardPanic(&pg.err)
		if pg.root != nil {
			if e.prepare(ctx, pg.root); pg.root.err != nil {
				pg.err = pg.root.err
				return
			}
		}
		_, end := obs.StartSpan(ctx, stageSort)
		defer end.End()
		if pg.root != nil {
			pg.prep, pg.err = pg.root.prep.Prefix(pg.keyCols)
		} else {
			e.prepared.Add(1)
			pg.prep, pg.err = core.PrepareFromArena(pg.sg.ar, pg.sg.table.NumRows(), pg.keyCols)
			if pg.err == nil {
				e.sortRows.Add(uint64(pg.prep.SampleRows()))
			}
		}
		if pg.err == nil {
			d := pg.prep.PrepDuration()
			e.prepareNanos.Add(uint64(d.Nanoseconds()))
			e.stageSortHist.Observe(d)
		}
	})
}

// drawSample fills a sample group's arena, preferring the table's
// maintained sample when one is offered at the group's epoch: subsampling
// the in-memory backing sample (without replacement — a uniform subsample
// of a uniform sample) skips the O(r) storage draw and, for heap-backed
// tables, the row-directory rebuild behind it, and because the maintained
// snapshot is already arena-encoded the subsample is a pure byte-range
// gather. Any mismatch — no provider support, fewer than r maintained
// rows, or a snapshot at a different epoch than the request was keyed at —
// falls back to a fresh uniform-WR draw encoded straight into the arena,
// pinned to the table's copy-on-write snapshot when one is published at
// the group's epoch (lock-free, and every Row call sees the same rows).
func (e *Engine) drawSample(sg *sampleGroup) {
	// sampleGroups are once-shared: a panic escaping here would leave the
	// group "done" with no arena and no error for every batch-mate, so
	// the draw traps its own panics into sg.err.
	defer e.trapShardPanic(&sg.err)
	ar, _ := e.arenas.Get().(*value.RecordArena)
	if ar == nil {
		ar = value.NewRecordArena(sg.table.Schema(), int(sg.r))
	} else {
		ar.ResetTo(sg.table.Schema(), int(sg.r))
	}
	if sp, ok := sg.table.(catalog.SampleProvider); ok && !sg.fresh {
		if s, ok := sp.MaintainedSample(sg.r); ok && s.Epoch == sg.epoch {
			e.maintainedHits.Add(1)
			order, err := sampling.WORIndices(int64(s.Arena.Len()), sg.r, rng.New(sg.seed))
			if err == nil {
				err = ar.AppendFrom(s.Arena, order)
			}
			sg.ar, sg.err = ar, err
			return
		}
		e.maintainedStale.Add(1)
	}
	e.samplesDrawn.Add(1)
	sg.ar, sg.err = ar, sampling.UniformWRInto(pinnedSourceAt(sg.table, sg.epoch), sg.r, rng.New(sg.seed), ar)
}

// pinnedSourceAt returns the table's published copy-on-write snapshot when
// one exists at exactly epoch — the epoch the request was keyed at — so a
// multi-call draw reads one consistent row set without the table's lock
// and stays byte-identical to the Row path it replaces. Any mismatch
// (no snapshot support, rebuild error, or a snapshot published at another
// epoch) returns the table itself: the draw then goes through Table.Row,
// exactly the pre-snapshot behavior.
func pinnedSourceAt(t Table, epoch uint64) sampling.RowSource {
	if sp, ok := t.(catalog.SnapshotProvider); ok {
		if view, ve, err := sp.SnapshotRows(); err == nil && ve == epoch {
			return view
		}
	}
	return t
}

// pinnedSource is pinnedSourceAt without the epoch gate: adaptive
// extension rounds sample the table's current state (the pre-snapshot
// behavior already allowed rows to change between rounds), so any
// published snapshot qualifies — the win is that the whole round reads
// one consistent row set, lock-free.
func pinnedSource(t Table) sampling.RowSource {
	if sp, ok := t.(catalog.SnapshotProvider); ok {
		if view, _, err := sp.SnapshotRows(); err == nil {
			return view
		}
	}
	return t
}

// zFor converts a confidence level into the normal z multiplier, applying
// the 0.95 default.
func zFor(confidence float64) float64 {
	if confidence == 0 {
		confidence = 0.95
	}
	return stats.NormalQuantile(1 - (1-confidence)/2)
}

// evaluateAdaptive runs one precision-targeted request on a pool worker:
// grow the sample in resumable rounds (estimate → CI-check → extend) until
// the target half-width is met or the row budget runs out, then publish the
// achieved precision to the dominance cache. Sharded and stratified asks
// run the multi-arm loop (runArms); a plain table's rounds
// come from the maintained sample when its reservoir can cover the entire
// row budget at the request's epoch, otherwise from fresh resumable
// uniform-WR draws (runAdaptive). Batch items with identical adaptive keys
// share one loop (it.ag); ctx is re-checked before every extension round,
// so an expired deadline stops the loop at the next round boundary
// instead of running the budget out.
func (e *Engine) evaluateAdaptive(ctx context.Context, it *batchItem) Result {
	ag := it.ag
	ag.once.Do(func() {
		// Trap inside the once closure: a panicking loop must latch an
		// error for the whole group, not a "done" group with neither
		// result nor error.
		defer e.trapShardPanic(&ag.err)
		if _, sharded := it.req.Table.(catalog.Sharded); sharded || it.req.Strata > 0 {
			// Shards, strata, and shard×stratum cells are all arms of
			// the one multi-arm loop.
			ag.res, ag.failed, _, ag.err = e.runArms(ctx, it.req, it.pkey.epoch, it.pkey.pageSize,
				adaptiveTarget(it.req), initialAdaptiveRows(it.req))
			if ag.err == nil {
				e.adaptiveRounds.Add(uint64(ag.res.Rounds))
				e.adaptiveRows.Add(uint64(ag.res.Estimate.SampleRows))
				if ag.failed == nil {
					e.publishPrecision(it.pkey, ag.res, it.req.Confidence)
				}
			}
			return
		}
		ag.res, ag.err = e.runAdaptive(ctx, it.req, it.pkey, it.r0g)
	})
	if ag.err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, ag.err)}
	}
	res := ag.res
	out := Result{
		Estimate:      res.Estimate,
		AchievedError: res.AchievedError,
		Rounds:        res.Rounds,
		Converged:     res.Converged,
	}
	if len(ag.failed) > 0 {
		out.Degraded = true
		out.ShardsFailed = append([]int(nil), ag.failed...)
	}
	return out
}

// adaptiveTarget is an adaptive request's precision target, its row
// budget defaulting to the whole table.
func adaptiveTarget(req Request) core.Precision {
	target := core.Precision{
		TargetError:   req.TargetError,
		Confidence:    req.Confidence,
		MaxSampleRows: req.MaxSampleRows,
	}
	if target.MaxSampleRows == 0 {
		target.MaxSampleRows = req.Table.NumRows()
	}
	return target
}

// initialAdaptiveRows resolves an adaptive request's round-0 size:
// SampleRows/Fraction seed it when set, the adaptive minimum otherwise,
// clamped to the row budget.
func initialAdaptiveRows(req Request) int64 {
	n := req.Table.NumRows()
	r0 := req.SampleRows
	if r0 <= 0 && req.Fraction > 0 {
		r0 = sampling.SampleSize(n, req.Fraction)
	}
	if r0 <= 0 {
		r0 = core.DefaultMinSampleRows
	}
	max := req.MaxSampleRows
	if max == 0 {
		max = n
	}
	if r0 > max {
		r0 = max
	}
	return r0
}

// runAdaptive executes the precision-targeted loop for one adaptive key.
// The round-0 draw is shared through r0g with every adaptive batch-mate at
// the same (table version, seed, r0, freshness) — the loops diverge per
// codec from round 1 on. The maintained route is tried first when the
// reservoir offers at least r0 rows at the request's epoch: its loop runs
// with the budget capped at the reservoir size, and only if that capped
// budget runs out unconverged does the request rerun fresh against storage
// with the full budget — the common converging case never touches storage.
func (e *Engine) runAdaptive(ctx context.Context, req Request, pkey precisionKey, r0g *round0Group) (core.AdaptiveResult, error) {
	pageSize := req.PageSize
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	target := adaptiveTarget(req)
	opts := core.Options{
		Codec:      req.Codec,
		KeyColumns: req.KeyColumns,
		PageSize:   pageSize,
		Seed:       req.Seed,
	}
	r0 := initialAdaptiveRows(req)
	r0g.once.Do(func() {
		_, end := obs.StartSpan(ctx, stageDraw)
		t0 := time.Now()
		e.drawAdaptiveRound0(req, pkey.epoch, r0, r0g)
		e.stageDrawHist.Observe(time.Since(t0))
		end.End()
	})
	if r0g.err != nil {
		return core.AdaptiveResult{}, r0g.err
	}

	var res core.AdaptiveResult
	var err error
	if r0g.maintained {
		// Cap the budget at what the reservoir can serve without
		// replacement; rounds gather snapshot slots by byte range.
		capped := target
		if snapLen := int64(r0g.snap.Arena.Len()); snapLen < capped.MaxSampleRows {
			capped.MaxSampleRows = snapLen
		}
		chosen := make(map[int64]struct{}, len(r0g.chosen))
		for idx := range r0g.chosen {
			chosen[idx] = struct{}{}
		}
		extend := func(round int, rows int64) (*value.RecordArena, error) {
			idx, err := sampling.WORExtendIndices(int64(r0g.snap.Arena.Len()), rows, req.Seed, round, chosen)
			if err != nil {
				return nil, err
			}
			full := value.NewRecordArena(req.Table.Schema(), int(rows))
			if err := full.AppendFrom(r0g.snap.Arena, idx); err != nil {
				return nil, err
			}
			return core.ProjectSample(full, req.KeyColumns)
		}
		res, err = e.adaptiveLoop(ctx, req, opts, capped, r0g.full, extend)
		if err != nil {
			return core.AdaptiveResult{}, err
		}
		if !res.Converged && capped.MaxSampleRows < target.MaxSampleRows {
			// The reservoir ran out below the requested budget: rerun
			// fresh from storage with the full budget rather than
			// reporting a weaker budget than the caller asked for.
			e.samplesDrawn.Add(1)
			res, err = e.freshAdaptive(ctx, req, opts, target, r0)
		}
	} else {
		res, err = e.adaptiveLoop(ctx, req, opts, target, r0g.full, e.freshExtend(req))
	}
	if err != nil {
		return core.AdaptiveResult{}, err
	}
	e.evaluated.Add(1)
	e.publishPrecision(pkey, res, req.Confidence)
	return res, nil
}

// drawAdaptiveRound0 fills a shared round-0 group: a maintained-snapshot
// WOR gather when the table offers at least r0 reservoir rows at the
// request's epoch, a fresh resumable WR draw otherwise.
func (e *Engine) drawAdaptiveRound0(req Request, epoch uint64, r0 int64, g *round0Group) {
	// Once-shared like drawSample: trap panics into the group's error.
	defer e.trapShardPanic(&g.err)
	if sp, ok := req.Table.(catalog.SampleProvider); ok && !req.FreshSample {
		if s, ok := sp.MaintainedSample(r0); ok && s.Epoch == epoch {
			e.maintainedHits.Add(1)
			chosen := make(map[int64]struct{}, r0)
			idx, err := sampling.WORExtendIndices(int64(s.Arena.Len()), r0, req.Seed, 0, chosen)
			if err != nil {
				g.err = err
				return
			}
			full := value.NewRecordArena(req.Table.Schema(), int(r0))
			if err := full.AppendFrom(s.Arena, idx); err != nil {
				g.err = err
				return
			}
			g.full, g.maintained, g.snap, g.chosen = full, true, s, chosen
			return
		}
		e.maintainedStale.Add(1)
	}
	e.samplesDrawn.Add(1)
	full := value.NewRecordArena(req.Table.Schema(), int(r0))
	if err := sampling.ExtendWRInto(pinnedSourceAt(req.Table, epoch), full, r0, req.Seed, 0); err != nil {
		g.err = err
		return
	}
	g.full = full
}

// freshExtend returns the resumable fresh-draw extension for a request;
// each round draws against the table's pinned snapshot when one is
// published.
func (e *Engine) freshExtend(req Request) core.ExtendFunc {
	return func(round int, rows int64) (*value.RecordArena, error) {
		full := value.NewRecordArena(req.Table.Schema(), int(rows))
		if err := sampling.ExtendWRInto(pinnedSource(req.Table), full, rows, req.Seed, round); err != nil {
			return nil, err
		}
		return core.ProjectSample(full, req.KeyColumns)
	}
}

// freshAdaptive runs a complete adaptive loop against storage, including
// its own round-0 draw (the maintained-route fallback path; not shared).
func (e *Engine) freshAdaptive(ctx context.Context, req Request, opts core.Options, target core.Precision, r0 int64) (core.AdaptiveResult, error) {
	if err := ctx.Err(); err != nil {
		return core.AdaptiveResult{}, err
	}
	full := value.NewRecordArena(req.Table.Schema(), int(r0))
	if err := sampling.ExtendWRInto(pinnedSource(req.Table), full, r0, req.Seed, 0); err != nil {
		return core.AdaptiveResult{}, err
	}
	return e.adaptiveLoop(ctx, req, opts, target, full, e.freshExtend(req))
}

// adaptiveLoop prepares the (possibly shared) round-0 arena for this
// request's key columns and drives AdaptiveEstimate with ctx re-checked
// before every extension. When the projection is the identity the prepared
// index aliases the shared arena; the first extension copies it
// (core.ExtendFromArena's copy-on-extend), which is exactly what keeps the
// shared round-0 bytes safe for the other loops in the group.
func (e *Engine) adaptiveLoop(ctx context.Context, req Request, opts core.Options, target core.Precision,
	round0 *value.RecordArena, extend core.ExtendFunc) (core.AdaptiveResult, error) {
	if err := ctx.Err(); err != nil {
		return core.AdaptiveResult{}, err
	}
	guarded := func(round int, rows int64) (*value.RecordArena, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return extend(round, rows)
	}
	_, endSort := obs.StartSpan(ctx, stageSort)
	initial, err := core.ProjectSample(round0, req.KeyColumns)
	if err != nil {
		endSort.End()
		return core.AdaptiveResult{}, err
	}
	prep, err := core.PrepareFromArena(initial, req.Table.NumRows(), nil)
	if err != nil {
		endSort.End()
		return core.AdaptiveResult{}, err
	}
	e.stageSortHist.Observe(prep.PrepDuration())
	endSort.End()
	e.prepared.Add(1)
	_, endRounds := obs.StartSpan(ctx, stageRounds)
	t0 := time.Now()
	res, err := prep.AdaptiveEstimate(target, opts, guarded)
	e.stageRoundsHist.Observe(time.Since(t0))
	endRounds.End()
	if err != nil {
		return core.AdaptiveResult{}, err
	}
	e.adaptiveRounds.Add(uint64(res.Rounds))
	e.adaptiveRows.Add(uint64(res.Estimate.SampleRows))
	// PrepDuration and SampleRows here include every extension round's
	// incremental sort+merge, so the prepare ledger covers adaptive growth.
	e.prepareNanos.Add(uint64(prep.PrepDuration().Nanoseconds()))
	e.sortRows.Add(uint64(prep.SampleRows()))
	return res, nil
}

// validate rejects malformed requests before they reach the pool. Every
// rejection satisfies errors.Is(err, ErrInvalidRequest), which cfserve
// maps to 400.
func validate(req Request) error {
	switch {
	case req.Table == nil:
		return invalidf("engine: Request.Table is required")
	case req.Codec == nil:
		return invalidf("engine: Request.Codec is required")
	case req.Table.NumRows() == 0:
		return invalidf("engine: table %q is empty", req.Table.Name())
	case req.SampleRows < 0:
		return invalidf("engine: negative sample size %d", req.SampleRows)
	case req.TargetError < 0 || req.TargetError >= 1:
		return invalidf("engine: target error %v outside (0,1)", req.TargetError)
	case req.Confidence != 0 && (req.Confidence <= 0 || req.Confidence >= 1):
		return invalidf("engine: confidence %v outside (0,1)", req.Confidence)
	case req.TargetError == 0 && req.Confidence != 0:
		return invalidf("engine: Confidence requires TargetError")
	case req.TargetError == 0 && req.MaxSampleRows != 0:
		return invalidf("engine: MaxSampleRows requires TargetError")
	case req.MaxSampleRows < 0:
		return invalidf("engine: negative row budget %d", req.MaxSampleRows)
	case req.Strata < 0:
		return invalidf("engine: negative strata count %d", req.Strata)
	case req.TargetError > 0 && req.Fraction < 0:
		return invalidf("engine: negative fraction %v", req.Fraction)
	case req.TargetError == 0 && req.SampleRows == 0 && (req.Fraction <= 0 || req.Fraction > 1):
		return invalidf("engine: fraction %v outside (0,1]", req.Fraction)
	}
	return nil
}
