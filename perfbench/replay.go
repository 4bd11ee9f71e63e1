package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/engine"
	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// Bench-owned span names around the calls into each layer. The engine's
// own spans (draw, sort, compress, cache, rounds) nest under "engine".
const (
	spanEngine   = "engine"
	spanInsert   = "db.insert"
	spanSnapshot = "db.snapshot"
)

// layerOf maps a span name onto the layer its self time is charged to.
var layerOf = map[string]string{
	spanEngine:   "engine",
	"cache":      "engine",
	"draw":       "sampling",
	"sort":       "sortkeys",
	"compress":   "compress",
	"rounds":     "core",
	spanInsert:   "db",
	spanSnapshot: "db",
}

// replica is the in-process copy of the server's state the replay runs
// against: the same tables, and an engine configured like cfserve's
// except for one worker. The replay sends one op at a time, so stage spans
// never overlap and no op waits behind another: each op's per-layer self
// times add up to its wall time.
type replica struct {
	orders *workload.Table
	live   *db.ShardedTable
	eng    *engine.Engine
}

func newReplica(orders *workload.Table) (*replica, error) {
	live, err := buildLive()
	if err != nil {
		return nil, err
	}
	return &replica{orders: orders, live: live, eng: engine.New(engine.Config{Workers: 1})}, nil
}

func (rp *replica) table(name string) engine.Table {
	if name == liveSpec.Name {
		return rp.live
	}
	return rp.orders
}

// exec runs one op through the layers cfserve's handler would call.
func (rp *replica) exec(ctx context.Context, o *op) ([]engine.Result, error) {
	if o.kind == opInsert {
		_, end := obs.StartSpan(ctx, spanInsert)
		for _, row := range o.rows {
			if _, err := rp.live.Insert(row); err != nil {
				end.End()
				return nil, err
			}
		}
		end.End()
		shard, err := rp.live.ShardFor(o.rows[0])
		if err != nil {
			return nil, err
		}
		_, end = obs.StartSpan(ctx, spanSnapshot)
		_, _, err = rp.live.ShardTable(shard).SnapshotRows()
		end.End()
		return nil, err
	}
	reqs := make([]engine.Request, len(o.asks))
	for i, a := range o.asks {
		codec, err := compress.Lookup(a.Codec)
		if err != nil {
			return nil, err
		}
		reqs[i] = engine.Request{
			Table: rp.table(o.table), KeyColumns: a.Cols, Codec: codec,
			Seed: o.seed, Strata: a.Strata,
		}
		if a.Target > 0 {
			reqs[i].TargetError, reqs[i].Confidence, reqs[i].MaxSampleRows = a.Target, confidence, adaptiveMaxRows
		} else {
			reqs[i].Fraction = fixedFraction
		}
	}
	sctx, end := obs.StartSpan(ctx, spanEngine)
	results := rp.eng.WhatIf(sctx, reqs)
	end.End()
	for i, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("ask %d: %w", i, r.Err)
		}
	}
	return results, nil
}

// replayed is one op of a replay.
type replayed struct {
	op      *op
	wall    time.Duration
	tr      *obs.Trace
	results []engine.Result
	err     error
}

// replay runs ops one after another, tracing each op when traced is set,
// and returns the records and the wall time. A positive limit stops the
// replay after the first op that ends past it.
func (rp *replica) replay(ops []*op, traced bool, limit time.Duration) ([]replayed, time.Duration) {
	out := make([]replayed, 0, len(ops))
	start := time.Now()
	for _, o := range ops {
		if limit > 0 && time.Since(start) >= limit {
			break
		}
		out = append(out, replayed{})
		rec := &out[len(out)-1]
		rec.op = o
		ctx := context.Background()
		if traced {
			rec.tr = obs.NewTrace(o.path)
			ctx = obs.WithTrace(ctx, rec.tr)
		}
		t0 := time.Now()
		rec.results, rec.err = rp.exec(ctx, o)
		rec.wall = time.Since(t0)
		rec.tr.Finish()
	}
	return out, time.Since(start)
}

// selfTimes charges each span's self time — its duration minus the part
// of its interval its children cover — to the span's layer.
func selfTimes(spans []obs.SpanInfo) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		cur := lo
		for _, c := range ivs {
			a, b := max(c.lo, cur), min(c.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		layer, ok := layerOf[s.Name]
		if !ok {
			layer = "other:" + s.Name
		}
		out[layer] += s.Dur - covered
	}
	return out
}

// traceShare is the share of the measured seconds the traced run spends
// on its HTTP phase; the replays take about the rest.
const traceShare = 0.5

// runTraced is the per-layer run: an HTTP phase for the metrics only the
// wire shows (Server-Timing, transport, response size, /metrics deltas),
// then an untraced and a traced in-process replay of the same seeded op
// sequence, then direct timed calls into sampling, core and compress.
func runTraced(cfg *config) (*result, error) {
	res := &result{correct: true}
	ctx := context.Background()
	srv, _, err := startServer(cfg.cfserve, fmt.Sprintf("%s/cfserve.log", cfg.buildDir), cfg.conns)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	if err := checkCodecs(srv, cfg.codecs); err != nil {
		return nil, err
	}
	warm := ptrs(newStream(cfg.def, cfg.seed, sidWarmup, cfg.codecs).warmup())
	warmSamples, _ := closedLoop(ctx, srv, listed(warm), cfg.conns, len(warm))
	res.tally(warmSamples)
	timed := newStream(cfg.def, cfg.seed, sidTimed, cfg.codecs)
	ops := make([]*op, int(cfg.def.rate*cfg.seconds*traceShare))
	for i := range ops {
		o := timed.next()
		ops[i] = &o
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	open, lag := openLoop(ctx, srv, ops, cfg.def.rate, cfg.conns)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	res.tally(open)
	srv.stop()
	stopped = true

	var serverMs, transportMs, respBytes []float64
	var httpAnswers float64
	for i := range open {
		s := &open[i]
		if !s.ok() || !s.op.kind.isRead() {
			continue
		}
		httpAnswers += float64(len(s.op.asks))
		st, err := parseServerTiming(s.timing)
		if err != nil {
			return nil, err
		}
		total, ok := st["total"]
		if !ok {
			res.fail(fmt.Sprintf("%s: no Server-Timing total", s.op.path))
			continue
		}
		serverMs = append(serverMs, total)
		transportMs = append(transportMs, ms(s.done.Sub(s.sent))-total)
		respBytes = append(respBytes, float64(len(s.body)))
	}

	debug.FreeOSMemory()
	orders, err := buildOrders()
	if err != nil {
		return nil, err
	}
	// Untraced replay first: its wall time is the baseline of the tracing
	// overhead, and its time budget fixes how many of the HTTP phase's ops
	// both replays run. Each replay gets a fresh replica, so both do the
	// same work.
	plain, plainWall, err := replayOnce(orders, warm, ops, false, replayLimit(cfg), nil)
	if err != nil {
		return nil, err
	}
	ops = ops[:plain]
	var lr layerRun
	_, tracedWall, err := replayOnce(orders, warm, ops, true, 0, &lr)
	if err != nil {
		return nil, err
	}
	pr, err := probe(cfg, orders, lr.live)
	if err != nil {
		return nil, err
	}

	m := &res.metrics
	nReads := float64(lr.reads)
	errs := []error{
		m.add("cfserve.server_ms_mean", mean(serverMs), "ms", fmt.Sprintf("mean Server-Timing total of %d reads", len(serverMs))),
		m.addQuantile("cfserve.transport_ms_p50", quantileOf(transportMs, 50), "ms"),
		m.add("cfserve.resp_bytes_mean", mean(respBytes), "bytes", fmt.Sprintf("mean of %d read responses", len(respBytes))),
		m.add("cfserve.rejected_total", counterDelta(before, after, "samplecf_http_rejected_total"), "count", "/metrics delta over the HTTP phase"),
		m.addQuantile("engine.call_ms_p50", quantileOf(lr.callMs, 50), "ms"),
		m.addQuantile("engine.call_ms_p99", quantileOf(lr.callMs, 99), "ms"),
		m.add("engine.self_ms_total", ms(lr.self["engine"]), "ms", "engine span minus stage children, incl. cache spans"),
		m.add("engine.cache_hit_ratio", ratio(lr.cacheHits, lr.results), "ratio", fmt.Sprintf("of %.0f answers", lr.results)),
		m.add("engine.coalesced_ratio", ratio(counterDelta(before, after, "samplecf_engine_coalesced_waits_total"), httpAnswers), "ratio",
			fmt.Sprintf("(http) coalesced-waits delta of %.0f answers", httpAnswers)),
		m.add("engine.shared_sample_ratio", ratio(lr.shared, lr.results), "ratio", fmt.Sprintf("of %.0f answers", lr.results)),
		m.add("engine.rounds_per_adaptive_miss", ratio(lr.rounds, lr.adaptiveMisses), "rounds", fmt.Sprintf("over %.0f computed adaptive answers", lr.adaptiveMisses)),
		m.add("engine.shard_cache_hit_ratio", ratio(lr.stats.ShardCacheHits, lr.stats.ShardCacheHits+lr.stats.ShardCacheMisses), "ratio",
			fmt.Sprintf("of %.0f shard lookups", lr.stats.ShardCacheHits+lr.stats.ShardCacheMisses)),
		m.add("engine.maintained_hit_ratio", ratio(lr.stats.MaintainedHits, lr.stats.MaintainedHits+lr.stats.MaintainedStale), "ratio",
			fmt.Sprintf("of %.0f maintained-sample attempts", lr.stats.MaintainedHits+lr.stats.MaintainedStale)),
		m.add("core.rounds_ms_total", ms(lr.self["core"]), "ms", "adaptive refinement rounds (draw+sort+compress of rounds ≥1)"),
		m.add("core.rounds_share", lr.share("core"), "ratio", "of replayed request time"),
		m.add("core.prepares_per_request", ratio(lr.stats.IndexesPrepared, nReads), "count", fmt.Sprintf("over %d read requests", lr.reads)),
		m.add("sampling.draw_ms_total", ms(lr.self["sampling"]), "ms", "draw spans"),
		m.add("sampling.draw_share", lr.share("sampling"), "ratio", "of replayed request time"),
		m.add("sampling.ns_per_row", pr.drawNsPerRow, "ns", fmt.Sprintf("UniformWRInto at r=%d", cfg.def.probeRows)),
		m.add("sampling.rows_drawn", lr.rowsDrawn, "count", "samplecf_sampling_rows_drawn_total delta"),
		m.add("sortkeys.sort_ms_total", ms(lr.self["sortkeys"]), "ms", "sort spans"),
		m.add("sortkeys.sort_share", lr.share("sortkeys"), "ratio", "of replayed request time"),
		m.add("sortkeys.ns_per_row", pr.sortNsPerRow, "ns", fmt.Sprintf("PrepareFromArena at r=%d", cfg.def.probeRows)),
		m.add("compress.ms_total", ms(lr.self["compress"]), "ms", "compress spans"),
		m.add("compress.share", lr.share("compress"), "ratio", "of replayed request time"),
	}
	for _, c := range cfg.codecs {
		errs = append(errs, m.add("compress."+codecMetricName(c)+".mb_per_s", pr.codecMBps[c], "MB/s",
			fmt.Sprintf("(*PreparedIndex).Estimate at r=%d over %d column sets", cfg.def.probeRows, len(columnSets))))
	}
	errs = append(errs,
		m.addQuantile("db.insert_ms_p50", quantileOf(lr.insertMs, 50), "ms"),
		m.addQuantile("db.insert_ms_p99", quantileOf(lr.insertMs, 99), "ms"),
		m.addQuantile("db.snapshot_ms_p50", quantileOf(lr.snapshotMs, 50), "ms"),
		m.add("db.snapshot_rebuilds", lr.snapshotRebuilds, "count", "samplecf_db_snapshot_rebuilds_total delta"),
		m.add("runtime.alloc_bytes_per_request", ratio(lr.allocBytes, float64(len(ops))), "bytes", fmt.Sprintf("over %d replayed requests", len(ops))),
		m.add("runtime.gc_cycles", lr.gcCycles, "count", "during the traced replay"),
		m.add("unattributed_ms_total", ms(lr.wallSum-lr.attributed), "ms",
			fmt.Sprintf("%.1f ms of replayed requests minus %.1f ms of layer self times", ms(lr.wallSum), ms(lr.attributed))),
		m.add("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), "%",
			fmt.Sprintf("traced %.3fs vs untraced %.3fs replay", tracedWall.Seconds(), plainWall.Seconds())),
		m.addQuantile("loadgen.lag_ms_p99", quantileOf(lag, 99), "ms"),
	)
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	// A stage a workload never enters (no draw spans on adaptive-hot, no
	// rounds on whatif-cold) totals exactly 0 ms on every run; the JSON
	// carries its share of the replayed time instead, and the report both.
	m.info("core.rounds_ms_total", "sampling.draw_ms_total", "sortkeys.sort_ms_total", "compress.ms_total")
	res.note("env %s replay_engine_workers=1", environment(cfg))
	res.note("http phase %d requests at %g/s over %d connections; replays of the same %d requests (+%d warm-up), one at a time",
		len(open), cfg.def.rate, cfg.conns, len(ops), len(warm))
	res.note("layer self times (ms): %s", lr.layerLine())
	return res, nil
}

// layerRun aggregates a traced replay.
type layerRun struct {
	live *db.ShardedTable

	self                map[string]time.Duration
	wallSum, attributed time.Duration

	callMs, insertMs, snapshotMs []float64

	reads                       int
	results, cacheHits, shared  float64
	rounds, adaptiveMisses      float64
	stats                       statsDelta
	rowsDrawn, snapshotRebuilds float64
	allocBytes, gcCycles        float64
}

// statsDelta holds the engine counters the per-layer metrics read.
type statsDelta struct {
	ShardCacheHits, ShardCacheMisses float64
	MaintainedHits, MaintainedStale  float64
	IndexesPrepared                  float64
}

func engineStats(e *engine.Engine) statsDelta {
	s := e.Stats()
	return statsDelta{
		float64(s.ShardCacheHits), float64(s.ShardCacheMisses),
		float64(s.MaintainedHits), float64(s.MaintainedStale),
		float64(s.IndexesPrepared),
	}
}

func (d statsDelta) minus(o statsDelta) statsDelta {
	return statsDelta{
		d.ShardCacheHits - o.ShardCacheHits, d.ShardCacheMisses - o.ShardCacheMisses,
		d.MaintainedHits - o.MaintainedHits, d.MaintainedStale - o.MaintainedStale,
		d.IndexesPrepared - o.IndexesPrepared,
	}
}

func defaultCounter(name string) float64 {
	v, _ := obs.Default().Value(name)
	return v
}

// share is a layer's self time over the replayed request time.
func (lr *layerRun) share(layer string) float64 {
	return ratio(float64(lr.self[layer]), float64(lr.wallSum))
}

func (lr *layerRun) layerLine() string {
	names := make([]string, 0, len(lr.self))
	for n := range lr.self {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s=%.1f ", n, ms(lr.self[n]))
	}
	return s + fmt.Sprintf("unattributed=%.1f", ms(lr.wallSum-lr.attributed))
}

// replayLimit is the untraced replay's time budget: a quarter of the
// measured seconds.
func replayLimit(cfg *config) time.Duration {
	return time.Duration(cfg.seconds * (1 - traceShare) / 2 * float64(time.Second))
}

// replayOnce builds a fresh replica, replays the warm-up untraced and
// then ops (traced when traced is set, within limit when positive), and
// aggregates the traced replay into lr. It returns how many ops it
// replayed and their wall time.
func replayOnce(orders *workload.Table, warm, ops []*op, traced bool, limit time.Duration, lr *layerRun) (int, time.Duration, error) {
	rp, err := newReplica(orders)
	if err != nil {
		return 0, 0, err
	}
	defer rp.eng.Close()
	warmRecs, _ := rp.replay(warm, false, 0)
	for _, r := range warmRecs {
		if r.err != nil {
			return 0, 0, fmt.Errorf("replay warm-up %s: %w", r.op.path, r.err)
		}
	}
	runtime.GC()
	statsBefore := engineStats(rp.eng)
	rowsBefore := defaultCounter("samplecf_sampling_rows_drawn_total")
	rebuildsBefore := defaultCounter("samplecf_db_snapshot_rebuilds_total")
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	recs, wall := rp.replay(ops, traced, limit)

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	for _, r := range recs {
		if r.err != nil {
			return 0, 0, fmt.Errorf("replay %s: %w", r.op.path, r.err)
		}
	}
	if lr == nil {
		return len(recs), wall, nil
	}
	*lr = layerRun{
		live:             rp.live,
		self:             map[string]time.Duration{},
		stats:            engineStats(rp.eng).minus(statsBefore),
		rowsDrawn:        defaultCounter("samplecf_sampling_rows_drawn_total") - rowsBefore,
		snapshotRebuilds: defaultCounter("samplecf_db_snapshot_rebuilds_total") - rebuildsBefore,
		allocBytes:       float64(msAfter.TotalAlloc - msBefore.TotalAlloc),
		gcCycles:         float64(msAfter.NumGC - msBefore.NumGC),
	}
	for _, r := range recs {
		lr.wallSum += r.wall
		spans := r.tr.Spans()
		for layer, d := range selfTimes(spans) {
			lr.self[layer] += d
			lr.attributed += d
		}
		for _, s := range spans {
			switch s.Name {
			case spanEngine:
				lr.callMs = append(lr.callMs, ms(s.Dur))
			case spanInsert:
				lr.insertMs = append(lr.insertMs, ms(s.Dur))
			case spanSnapshot:
				lr.snapshotMs = append(lr.snapshotMs, ms(s.Dur))
			}
		}
		if !r.op.kind.isRead() {
			continue
		}
		lr.reads++
		for i, res := range r.results {
			lr.results++
			switch {
			case res.CacheHit:
				lr.cacheHits++
			case r.op.asks[i].Target > 0:
				lr.rounds += float64(res.Rounds)
				lr.adaptiveMisses++
			}
			if res.SharedSample {
				lr.shared++
			}
		}
	}
	return len(recs), wall, nil
}

// probeResult holds the direct layer probes.
type probeResult struct {
	drawNsPerRow, sortNsPerRow float64
	codecMBps                  map[string]float64
}

// probe times direct calls into sampling, core and compress at the
// workload's sample size: draws from the workload's table (orders, or
// orders_live shard 0's snapshot), one prepared index per column set, and
// every codec over those indexes. Each figure is the median of probeReps
// passes.
func probe(cfg *config, orders *workload.Table, live *db.ShardedTable) (*probeResult, error) {
	const probeReps = 5
	var src sampling.RowSource = orders
	if cfg.def.live {
		snap, _, err := live.ShardTable(0).SnapshotRows()
		if err != nil {
			return nil, err
		}
		src = snap
	}
	r := cfg.def.probeRows
	schema := orders.Schema()
	var draws, sorts []float64
	var preps []*core.PreparedIndex
	for k := 0; k < probeReps; k++ {
		ar := value.NewRecordArena(schema, int(r))
		t0 := time.Now()
		if err := sampling.UniformWRInto(src, r, rng.New(cfg.seed+uint64(k)), ar); err != nil {
			return nil, err
		}
		draws = append(draws, float64(time.Since(t0).Nanoseconds())/float64(r))
		preps = preps[:0]
		var sortNs float64
		for _, cols := range columnSets {
			t0 := time.Now()
			p, err := core.PrepareFromArena(ar, src.NumRows(), cols)
			if err != nil {
				return nil, err
			}
			sortNs += float64(time.Since(t0).Nanoseconds())
			preps = append(preps, p)
		}
		sorts = append(sorts, sortNs/float64(r)/float64(len(columnSets)))
	}
	out := &probeResult{drawNsPerRow: median(draws), sortNsPerRow: median(sorts), codecMBps: map[string]float64{}}
	for _, name := range cfg.codecs {
		codec, err := compress.Lookup(name)
		if err != nil {
			return nil, err
		}
		var rates []float64
		for k := 0; k < probeReps; k++ {
			var bytes float64
			t0 := time.Now()
			for _, p := range preps {
				est, err := p.Estimate(core.Options{Codec: codec})
				if err != nil {
					return nil, err
				}
				bytes += float64(est.Result.UncompressedBytes)
			}
			rates = append(rates, bytes/time.Since(t0).Seconds()/1e6)
		}
		out.codecMBps[name] = median(rates)
	}
	return out, nil
}
