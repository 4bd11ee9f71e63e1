// Sharded scatter-gather estimation: what-if requests against a
// partitioned table (catalog.Sharded) are split into one sub-request per
// shard, evaluated shard-parallel, and recombined by stratified
// composition (internal/stats). Each shard is a full catalog table with
// its own epoch, so the per-shard result cache keeps serving untouched
// shards' entries while a hot shard's churn invalidates only its own —
// the whole point of partitioning the cache key space.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// sgKey identifies a shared sample draw within one batch: one draw per
// (table instance, epoch, size, seed), whether the table is a whole table
// or one shard of a partitioned one.
type sgKey struct {
	inst  uint64
	epoch uint64
	r     int64
	seed  uint64
}

// pgKey identifies a shared prepared index within one batch.
type pgKey struct {
	sg   sgKey
	cols string
}

// shardWork is one shard's slice of a scattered fixed-r request.
type shardWork struct {
	shard  int
	table  Table
	epoch  uint64
	weight float64 // N_h/N at plan time
	rows   int64   // allocated sub-sample size r_h
	seed   uint64
	key    cacheKey
	sg     *sampleGroup
	pg     *prepGroup
	hit    bool
	est    core.Estimate
	err    error
}

// shardSeed derives shard h's sample-stream seed. Shard 0 keeps the base
// seed, so a 1-shard table draws the byte-identical sample an unsharded
// table would (the golden-equivalence contract); higher shards decorrelate
// by a Weyl step.
func shardSeed(seed uint64, shard int) uint64 {
	return seed ^ (uint64(shard) * 0x9e3779b97f4a7c15)
}

// packEpochs renders an epoch vector for the precision cache key. The
// summed epoch alone could alias two distinct vectors; the packed vector
// cannot.
func packEpochs(epochs []uint64) string {
	b := make([]byte, 0, 8*len(epochs))
	for _, e := range epochs {
		b = strconv.AppendUint(b, e, 16)
		b = append(b, ',')
	}
	return string(b)
}

// allocateRows splits a whole-table sample size r across shards
// proportionally to their row counts, rounding by largest remainder
// (shard index breaks ties, so the split is deterministic) and giving
// every non-empty shard at least one row. When r is below the number of
// non-empty shards the total allocation overshoots r: the stratified
// estimate must cover every stratum to stay unbiased, and a one-row floor
// is the cheapest cover.
func allocateRows(r int64, counts []int64) []int64 {
	out := make([]int64, len(counts))
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	type rem struct {
		frac  float64
		shard int
	}
	rems := make([]rem, 0, len(counts))
	var used int64
	for h, c := range counts {
		if c == 0 {
			continue
		}
		exact := float64(r) * float64(c) / float64(total)
		base := int64(exact)
		out[h] = base
		used += base
		rems = append(rems, rem{frac: exact - float64(base), shard: h})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].shard < rems[j].shard
	})
	for left := r - used; left > 0 && len(rems) > 0; left-- {
		out[rems[0].shard]++
		rems = rems[1:]
	}
	for h, c := range counts {
		if c > 0 && out[h] == 0 {
			out[h] = 1
		}
	}
	return out
}

// planScatter resolves one fixed-r request against a partitioned table:
// snapshot the shard counts and epochs, allocate the sample across shards,
// and consult the per-shard cache. A fully-cached request gathers
// immediately (done=true); otherwise the returned batch item carries one
// work unit per non-empty shard, with missed shards wired into the batch's
// sample/prep dedup groups.
func (e *Engine) planScatter(idx int, req Request, pageSize int, r int64, sh catalog.Sharded,
	sampleGroups map[sgKey]*sampleGroup, prepGroups map[pgKey]*prepGroup) (*batchItem, Result, bool) {
	ns := sh.NumShards()
	counts := make([]int64, ns)
	var total int64
	for h := range counts {
		counts[h] = sh.Shard(h).NumRows()
		total += counts[h]
	}
	if total == 0 {
		return nil, Result{Err: fmt.Errorf("engine: request %d: table %q is empty", idx, req.Table.Name())}, true
	}
	alloc := allocateRows(r, counts)
	epochs := sh.EpochVector()
	inst := req.Table.InstanceID()
	cols := strings.Join(req.KeyColumns, "\x00")
	works := make([]*shardWork, 0, ns)
	allHit := true
	for h := 0; h < ns; h++ {
		if counts[h] == 0 {
			continue
		}
		w := &shardWork{
			shard:  h,
			table:  sh.Shard(h),
			epoch:  epochs[h],
			weight: float64(counts[h]) / float64(total),
			rows:   alloc[h],
			seed:   shardSeed(req.Seed, h),
			key: cacheKey{
				inst:    inst,
				epoch:   epochs[h],
				columns: cols,
				codec:   req.Codec.Name(),
				// fraction/rows/seed stay request-level (not the allocated
				// r_h): the allocation drifts as OTHER shards' counts move,
				// and a cached shard estimate at a stale r_h is still a
				// valid unbiased CF_h estimate — re-keying on r_h would let
				// one hot shard's churn miss every shard's entry.
				fraction: req.Fraction,
				rows:     req.SampleRows,
				seed:     req.Seed,
				pageSize: pageSize,
				fresh:    req.FreshSample,
				shard:    h,
			},
		}
		if est, ok := e.cache.Get(w.key); ok {
			e.shardHits.Add(1)
			w.hit, w.est = true, est
		} else {
			e.shardMisses.Add(1)
			allHit = false
		}
		works = append(works, w)
	}
	if allHit {
		e.hits.Add(1)
		return nil, Result{Estimate: mergeShardEstimates(works), CacheHit: true}, true
	}
	e.misses.Add(1)
	for _, w := range works {
		if w.hit {
			continue
		}
		sk := sgKey{inst: w.table.InstanceID(), epoch: w.epoch, r: w.rows, seed: w.seed}
		sg, ok := sampleGroups[sk]
		if !ok {
			sg = &sampleGroup{table: w.table, r: w.rows, seed: w.seed, epoch: w.epoch}
			sampleGroups[sk] = sg
		}
		if req.FreshSample {
			sg.fresh = true
		}
		sg.members++
		pk := pgKey{sg: sk, cols: cols}
		pg, ok := prepGroups[pk]
		if !ok {
			pg = &prepGroup{sg: sg, keyCols: req.KeyColumns}
			prepGroups[pk] = pg
		}
		pg.members++
		w.sg, w.pg = sg, pg
	}
	return &batchItem{idx: idx, req: req, shards: works}, Result{}, false
}

// evaluateScatter runs one scattered request on a pool worker: the missed
// shards fan out over the bounded workgroup semaphore — never the engine's
// own pool, where a worker waiting on sub-jobs submitted behind it would
// deadlock under saturation — and the per-shard estimates (cached and
// computed alike) gather into one stratified whole-table estimate.
//
// Failed shards retry with capped jittered backoff; shards still failed
// after the retries either fail the whole request with every shard's
// error joined, or — under Request.AllowPartial — drop out of the gather,
// which then merges the survivors under renormalized stratified weights
// (stats.StratifiedMean divides by Σw, so passing the survivors with
// their plan-time weights IS the renormalization) and reports Degraded
// with a widened interval.
func (e *Engine) evaluateScatter(ctx context.Context, it *batchItem) Result {
	e.shardScatters.Add(1)
	t0 := time.Now()
	var missed []*shardWork
	for _, w := range it.shards {
		if !w.hit {
			missed = append(missed, w)
		}
	}
	e.scatterShardWork(ctx, it, missed)
	e.retryFailedShards(ctx, it, missed)

	var failed, survivors []*shardWork
	for _, w := range it.shards {
		if w.err != nil {
			failed = append(failed, w)
		} else {
			survivors = append(survivors, w)
		}
	}
	if len(failed) > 0 && (!it.req.AllowPartial || len(survivors) == 0) {
		errs := make([]error, 0, len(failed))
		for _, w := range failed {
			errs = append(errs, fmt.Errorf("shard %d: %w", w.shard, w.err))
		}
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, errors.Join(errs...))}
	}
	e.evaluated.Add(1)
	shared := false
	for _, w := range missed {
		if w.err == nil && w.sg.members > 1 {
			shared = true
		}
	}
	if shared {
		e.samplesShared.Add(1)
	}
	est := mergeShardEstimates(survivors)
	e.scatterHist.Observe(time.Since(t0))
	if len(failed) > 0 {
		e.degradedResults.Add(1)
		ids := make([]int, len(failed))
		for i, w := range failed {
			ids[i] = w.shard
		}
		sort.Ints(ids)
		// The degraded merge is never cached under the whole-table
		// identity (the scatter path has no request-level cache entry to
		// begin with), and the failed shards stayed out of the per-shard
		// cache, so the next request retries them.
		return Result{
			Estimate:      est,
			SharedSample:  shared,
			Degraded:      true,
			ShardsFailed:  ids,
			AchievedError: degradedHalfWidth(survivors),
		}
	}
	return Result{Estimate: est, SharedSample: shared}
}

// scatterShardWork fans a set of shard work units across the bounded
// workgroup semaphore, each under the shard panic trap (goroutine and
// inline fallback alike).
func (e *Engine) scatterShardWork(ctx context.Context, it *batchItem, works []*shardWork) {
	sem := workgroup.NewSem(workgroup.Limit(len(works)) - 1)
	var wg sync.WaitGroup
	for _, w := range works {
		if sem.TryAcquire() {
			wg.Add(1)
			go func(w *shardWork) {
				defer wg.Done()
				defer sem.Release()
				defer e.trapShardPanic(&w.err)
				e.evaluateShardWork(ctx, it, w)
			}(w)
		} else {
			func() {
				defer e.trapShardPanic(&w.err)
				e.evaluateShardWork(ctx, it, w)
			}()
		}
	}
	wg.Wait()
}

// retryFailedShards re-runs failed shard work units up to RetryMax times
// with capped, jittered, ctx-aware backoff. Each retried unit gets fresh
// private sample/prep groups: the shared once-groups latched the failure
// for the whole batch, and only a new group can re-draw.
func (e *Engine) retryFailedShards(ctx context.Context, it *batchItem, works []*shardWork) {
	if e.cfg.RetryMax <= 0 {
		return
	}
	backoff := e.cfg.RetryBackoff
	jit := rng.New(it.req.Seed ^ retryJitterSalt)
	for attempt := 0; attempt < e.cfg.RetryMax; attempt++ {
		var failed []*shardWork
		for _, w := range works {
			if retryable(w.err) {
				failed = append(failed, w)
			}
		}
		if len(failed) == 0 {
			return
		}
		if !backoffSleep(ctx, jit, backoff) {
			return
		}
		e.shardRetries.Add(uint64(len(failed)))
		for _, w := range failed {
			w.err = nil
			sg := &sampleGroup{table: w.table, r: w.rows, seed: w.seed, epoch: w.epoch,
				fresh: it.req.FreshSample, members: 1}
			w.sg = sg
			w.pg = &prepGroup{sg: sg, keyCols: it.req.KeyColumns, members: 1}
		}
		e.scatterShardWork(ctx, it, failed)
		if backoff *= 2; backoff > e.cfg.RetryBackoffCap {
			backoff = e.cfg.RetryBackoffCap
		}
	}
}

// retryJitterSalt decorrelates the retry backoff stream from the sample
// streams derived from the same request seed.
const retryJitterSalt = 0x5ca77e27e7121e55

// evaluateShardWork is the per-shard slice of evaluate: draw (or reuse)
// the shard's sample group, build (or reuse) its sorted index, compress,
// and cache under the per-shard key.
func (e *Engine) evaluateShardWork(ctx context.Context, it *batchItem, w *shardWork) {
	if err := scatterPoint.Check1(uint64(w.shard)); err != nil {
		w.err = err
		return
	}
	sg := w.sg
	e.draw(ctx, sg)
	if sg.err != nil {
		w.err = fmt.Errorf("sampling: %w", sg.err)
		return
	}
	pg := w.pg
	e.prepare(ctx, pg)
	if pg.err != nil {
		w.err = fmt.Errorf("prepare index: %w", pg.err)
		return
	}
	_, endCompress := obs.StartSpan(ctx, stageCompress)
	t0 := time.Now()
	est, err := pg.prep.Estimate(core.Options{Codec: it.req.Codec, PageSize: w.key.pageSize})
	e.stageCompressHist.Observe(time.Since(t0))
	endCompress.End()
	if err != nil {
		w.err = err
		return
	}
	if ev := e.cache.Put(w.key, est); ev > 0 {
		e.evictions.Add(uint64(ev))
	}
	w.est = est
}

// mergeShardEstimates composes per-shard estimates into one whole-table
// estimate by stratified composition (core.MergeStratified): CF is the
// size-weighted stratified mean, counts and byte totals sum, frequency
// profiles merge, and stage durations take the max (the shards ran in
// parallel). A single stratum passes through verbatim — a 1-shard table's
// estimate is byte-identical to the unsharded path's, compressed pages
// (Result.Encoded) included.
func mergeShardEstimates(works []*shardWork) core.Estimate {
	weights := make([]float64, len(works))
	ests := make([]core.Estimate, len(works))
	for i, w := range works {
		weights[i] = w.weight
		ests[i] = w.est
	}
	return core.MergeStratified(weights, ests)
}

// shardLoop is one shard's arm of a sharded adaptive estimation: its own
// resumable draw stream, prepared index, and current (estimate, SD) pair.
type shardLoop struct {
	shard  int
	table  Table
	weight float64
	seed   uint64
	opts   core.Options
	prep   *core.PreparedIndex
	round  int // next draw round in this shard's stream
	est    core.Estimate
	sd     float64
	method string
	dirty  bool // est/sd stale after an extension
	err    error
}

// runShardedAdaptive is the precision-targeted loop over a partitioned
// table: per-shard resumable sample streams, per-shard CI scales composed
// by stratified variance (half-width z·StratifiedSD), and — the part that
// makes partitioning pay — extensions routed only to the shards whose
// contribution (w_h·σ_h)² dominates the composed variance, so rows are
// spent where they tighten the interval most. Draws are always fresh
// (per-shard maintained-sample routes would need per-shard budget-capping
// and fallback plumbing for marginal gain — the whole-table maintained
// route already covers unsharded tables).
//
// Shard arms that fail persistently (after the retry policy) either fail
// the loop with every arm's error joined, or — under AllowPartial — drop
// out: the remaining arms' weights renormalize through the stratified
// algebra and the failed shard indices return for the Degraded result.
// A degraded outcome never publishes to the precision cache.
func (e *Engine) runShardedAdaptive(ctx context.Context, req Request, pkey precisionKey, sh catalog.Sharded) (core.AdaptiveResult, []int, error) {
	pageSize := req.PageSize
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	ns := sh.NumShards()
	counts := make([]int64, ns)
	var total int64
	for h := range counts {
		counts[h] = sh.Shard(h).NumRows()
		total += counts[h]
	}
	if total == 0 {
		return core.AdaptiveResult{}, nil, fmt.Errorf("table %q is empty", req.Table.Name())
	}
	target := core.Precision{
		TargetError:   req.TargetError,
		Confidence:    req.Confidence,
		MaxSampleRows: req.MaxSampleRows,
	}
	if target.MaxSampleRows == 0 {
		target.MaxSampleRows = total
	}
	z := zFor(req.Confidence)
	alloc := allocateRows(initialAdaptiveRows(req), counts)

	loops := make([]*shardLoop, 0, ns)
	for h := 0; h < ns; h++ {
		if counts[h] == 0 {
			continue
		}
		seed := shardSeed(req.Seed, h)
		loops = append(loops, &shardLoop{
			shard:  h,
			table:  sh.Shard(h),
			weight: float64(counts[h]) / float64(total),
			seed:   seed,
			opts:   core.Options{Codec: req.Codec, PageSize: pageSize, Seed: seed},
			dirty:  true,
		})
	}

	// grow draws extra fresh rows from one shard's resumable stream and
	// folds them into its prepared index (the first call prepares).
	grow := func(l *shardLoop, extra int64) error {
		if err := scatterPoint.Check1(uint64(l.shard)); err != nil {
			return err
		}
		full := value.NewRecordArena(req.Table.Schema(), int(extra))
		if err := sampling.ExtendWRInto(pinnedSource(l.table), full, extra, l.seed, l.round); err != nil {
			return err
		}
		proj, err := core.ProjectSample(full, req.KeyColumns)
		if err != nil {
			return err
		}
		l.round++
		l.dirty = true
		if l.prep == nil {
			e.samplesDrawn.Add(1)
			prep, err := core.PrepareFromArena(proj, l.table.NumRows(), nil)
			if err != nil {
				return err
			}
			e.prepared.Add(1)
			l.prep = prep
			return nil
		}
		return l.prep.ExtendFromArena(proj)
	}

	// runGrow is one arm's growth under the shard panic trap: a panicking
	// arm records its error instead of killing the loop.
	runGrow := func(l *shardLoop, extra int64) {
		defer e.trapShardPanic(&l.err)
		l.err = grow(l, extra)
	}

	// fan spreads grow calls across the bounded workgroup semaphore (never
	// the engine pool — this already runs on a pool worker).
	fan := func(targets []*shardLoop, extras []int64) {
		sem := workgroup.NewSem(workgroup.Limit(len(targets)) - 1)
		var wg sync.WaitGroup
		for i, l := range targets {
			extra := extras[i]
			if sem.TryAcquire() {
				wg.Add(1)
				go func(l *shardLoop, extra int64) {
					defer wg.Done()
					defer sem.Release()
					runGrow(l, extra)
				}(l, extra)
			} else {
				runGrow(l, extra)
			}
		}
		wg.Wait()
	}

	// scatter fans one growth round, retries failed arms with the same
	// backoff policy as the fixed path, and returns the arms still failed.
	scatter := func(targets []*shardLoop, extras []int64) []*shardLoop {
		fan(targets, extras)
		backoff := e.cfg.RetryBackoff
		jit := rng.New(req.Seed ^ retryJitterSalt)
		retryT, retryX := targets, extras
		for attempt := 0; attempt < e.cfg.RetryMax; attempt++ {
			var fl []*shardLoop
			var fx []int64
			for i, l := range retryT {
				if retryable(l.err) {
					fl = append(fl, l)
					fx = append(fx, retryX[i])
				}
			}
			if len(fl) == 0 {
				break
			}
			if !backoffSleep(ctx, jit, backoff) {
				break
			}
			e.shardRetries.Add(uint64(len(fl)))
			for _, l := range fl {
				l.err = nil
			}
			fan(fl, fx)
			retryT, retryX = fl, fx
			if backoff *= 2; backoff > e.cfg.RetryBackoffCap {
				backoff = e.cfg.RetryBackoffCap
			}
		}
		var failed []*shardLoop
		for _, l := range targets {
			if l.err != nil {
				failed = append(failed, l)
			}
		}
		return failed
	}

	// dropFailed removes persistently-failed arms from the live set under
	// AllowPartial, recording their shard indices; without AllowPartial —
	// or when nothing survives — it fails the loop with every failed
	// arm's error joined.
	var failedShards []int
	dropFailed := func(failed []*shardLoop) error {
		if len(failed) == 0 {
			return nil
		}
		if !req.AllowPartial || len(failed) == len(loops) {
			errs := make([]error, 0, len(failed))
			for _, l := range failed {
				errs = append(errs, fmt.Errorf("shard %d: %w", l.shard, l.err))
			}
			return errors.Join(errs...)
		}
		dead := make(map[*shardLoop]bool, len(failed))
		for _, l := range failed {
			dead[l] = true
			failedShards = append(failedShards, l.shard)
		}
		live := loops[:0]
		for _, l := range loops {
			if !dead[l] {
				live = append(live, l)
			}
		}
		loops = live
		return nil
	}

	_, endDraw := obs.StartSpan(ctx, stageDraw)
	tDraw := time.Now()
	round0 := make([]int64, len(loops))
	for i, l := range loops {
		round0[i] = alloc[l.shard]
	}
	err := dropFailed(scatter(loops, round0))
	e.stageDrawHist.Observe(time.Since(tDraw))
	endDraw.End()
	if err != nil {
		return core.AdaptiveResult{}, nil, err
	}

	_, endRounds := obs.StartSpan(ctx, stageRounds)
	defer endRounds.End()
	tRounds := time.Now()
	res := core.AdaptiveResult{}
	var cf, half float64
	for {
		if err := ctx.Err(); err != nil {
			return core.AdaptiveResult{}, nil, err
		}
		strata := make([]stats.Stratum, len(loops))
		for i, l := range loops {
			if l.dirty {
				est, err := l.prep.Estimate(l.opts)
				if err != nil {
					return core.AdaptiveResult{}, nil, fmt.Errorf("shard %d: %w", l.shard, err)
				}
				method, sd, err := l.prep.SDScale(l.opts, target, l.round)
				if err != nil {
					return core.AdaptiveResult{}, nil, fmt.Errorf("shard %d: %w", l.shard, err)
				}
				l.est, l.method, l.sd, l.dirty = est, method, sd, false
			}
			strata[i] = stats.Stratum{Weight: l.weight, Mean: l.est.CF, SD: l.sd}
		}
		res.Rounds++
		res.Method = loops[0].method
		cf = stats.StratifiedMean(strata)
		half = z * stats.StratifiedSD(strata)
		if half <= req.TargetError {
			res.Converged = true
			break
		}
		var rows int64
		for _, l := range loops {
			rows += l.prep.SampleRows()
		}
		if rows >= target.MaxSampleRows {
			break // budget exhausted: honest non-convergence
		}
		// Extend the shards whose variance contribution c_h = (w_h·σ_h)²
		// dominates — within 2× of the largest, and always the argmax — at
		// least doubling each chosen shard's sample, clamped to the budget.
		var maxC float64
		for _, l := range loops {
			if c := l.weight * l.sd * l.weight * l.sd; c > maxC {
				maxC = c
			}
		}
		var chosen []*shardLoop
		var extras []int64
		var want int64
		for _, l := range loops {
			if c := l.weight * l.sd * l.weight * l.sd; c >= maxC/2 {
				chosen = append(chosen, l)
				extras = append(extras, l.prep.SampleRows())
				want += l.prep.SampleRows()
			}
		}
		if remaining := target.MaxSampleRows - rows; want > remaining {
			// Scale the extras to the remaining budget, at least one row
			// each; a slight overshoot just ends the loop next round.
			var scaled int64
			for i := range extras {
				extras[i] = extras[i] * remaining / want
				if extras[i] < 1 {
					extras[i] = 1
				}
				scaled += extras[i]
			}
			for i := len(extras) - 1; i >= 0 && scaled > remaining; i-- {
				cut := extras[i] - 1
				if over := scaled - remaining; cut > over {
					cut = over
				}
				extras[i] -= cut
				scaled -= cut
			}
		}
		if err := dropFailed(scatter(chosen, extras)); err != nil {
			return core.AdaptiveResult{}, nil, err
		}
	}
	e.stageRoundsHist.Observe(time.Since(tRounds))

	works := make([]*shardWork, len(loops))
	for i, l := range loops {
		works[i] = &shardWork{shard: l.shard, weight: l.weight, est: l.est}
		e.prepareNanos.Add(uint64(l.prep.PrepDuration().Nanoseconds()))
		e.sortRows.Add(uint64(l.prep.SampleRows()))
	}
	res.Estimate = mergeShardEstimates(works)
	res.AchievedError = half
	res.CILo, res.CIHi = clampUnit(cf-half), clampUnit(cf+half)
	e.adaptiveRounds.Add(uint64(res.Rounds))
	e.adaptiveRows.Add(uint64(res.Estimate.SampleRows))
	e.evaluated.Add(1)
	if len(failedShards) > 0 {
		// A degraded outcome answers only this request: the precision
		// cache must never serve a survivors-only interval as a
		// whole-table result.
		e.degradedResults.Add(1)
		sort.Ints(failedShards)
		return res, failedShards, nil
	}
	e.precision.Put(pkey, res.Estimate, res.AchievedError/z, res.Rounds, res.Estimate.SampleRows)
	return res, nil, nil
}

// clampUnit clamps a CI endpoint to the CF domain [0,1].
func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
