// Fault tolerance for the serving path: panic isolation, per-shard
// retries, degraded scatter-gather, and a per-(table, codec) circuit
// breaker with stale-while-revalidate.
//
// The failure model (docs/robustness.md) is that any storage or codec
// call can fail or panic — the deterministic injection points in
// internal/faults stand in for flaky disks and poisoned pages — and that
// one poisoned shard, page, or candidate must never take down the
// process, the batch, or the other shards of the same request. Four
// mechanisms deliver that:
//
//   - panic traps at every goroutine boundary the engine owns (pool
//     workers, shard fan-outs, once-group closures) convert panics into
//     per-item errors carrying the injection point and stack;
//   - failed shards retry with capped jittered backoff before the
//     request gives up on them (transient faults heal invisibly);
//   - Request.AllowPartial lets a scattered request survive persistently
//     failed shards: the survivors merge under renormalized stratified
//     weights and the result reports Degraded with a widened interval;
//   - a per-(table instance, codec) circuit breaker trips after
//     consecutive full failures and serves the last good estimate stale
//     (Result.Stale) while one probe per cooldown revalidates in the
//     background.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"samplecf/internal/faults"
	"samplecf/internal/rng"
	"samplecf/internal/stats"
)

// scatterPoint fires at the top of every per-shard work unit (fixed
// scatter and adaptive arm growth alike); its argument is the shard
// index, so a schedule like "engine.scatter[1]:err@1+" poisons exactly
// one shard persistently.
var scatterPoint = faults.Register("engine.scatter")

// ErrInvalidRequest marks a request rejected by validation before it
// reached the pool. cfserve maps it to 400; everything else computational
// is 500 territory.
var ErrInvalidRequest = errors.New("engine: invalid request")

// ErrBreakerOpen reports that the (table, codec) circuit breaker is open
// and no stale estimate was available to serve. cfserve maps it to 503.
var ErrBreakerOpen = errors.New("engine: circuit breaker open")

// invalidRequestError wraps a validation failure so its message stays
// exactly as before while errors.Is(err, ErrInvalidRequest) holds.
type invalidRequestError struct{ msg string }

func (e *invalidRequestError) Error() string        { return e.msg }
func (e *invalidRequestError) Is(target error) bool { return target == ErrInvalidRequest }

func invalidf(format string, args ...any) error {
	return &invalidRequestError{msg: fmt.Sprintf(format, args...)}
}

// trapShardPanic is the engine's fan-out panic trap: deferred at the top
// of every per-shard goroutine (and its inline fallback), it converts a
// panic into that shard's error — carrying the injection point and the
// panicking goroutine's stack — and counts it, so one poisoned shard
// degrades its request instead of crashing the process.
func (e *Engine) trapShardPanic(errp *error) {
	if r := recover(); r != nil {
		e.panicsRecovered.Add(1)
		*errp = faults.AsError(r)
	}
}

// retryable reports whether a shard failure is worth retrying: anything
// except the caller's own cancellation (retrying a dead deadline only
// burns the backoff).
func retryable(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// backoffSleep waits out one retry backoff — uniformly jittered over
// [d/2, d] so simultaneous retries against a recovering shard spread out —
// and reports false when ctx expired first.
func backoffSleep(ctx context.Context, jit *rng.RNG, d time.Duration) bool {
	d = d/2 + time.Duration(jit.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// degradedHalfWidth is the widened 95% interval of a degraded fixed-r
// answer, scatter and arm loop alike: survivors only, their plan-time
// weights renormalized by the stratified algebra itself (StratifiedSD
// divides by Σw), each survivor's SD bounded by Theorem 1's
// distribution-free scale 1/(2√r_h) over the rows it sampled — a cached
// shard's or a short arm's count, not its plan (planned[h] stands in only
// for an unknown, zero, sampled[h]). A fixed-r request normally reports no
// interval; a degraded one must, so the caller sees what the loss cost.
func degradedHalfWidth(weights []float64, planned, sampled []int64) float64 {
	strata := make([]stats.Stratum, len(weights))
	for i, w := range weights {
		rows := planned[i]
		if sampled[i] > 0 {
			rows = sampled[i]
		}
		strata[i] = stats.Stratum{Weight: w, SD: 1 / (2 * math.Sqrt(float64(rows)))}
	}
	return zFor(0) * stats.StratifiedSD(strata)
}

// breakerKey scopes one circuit breaker: failures are a property of the
// (table, codec) pair — a poisoned codec must not trip other codecs on
// the same table, nor the same codec on healthy tables.
type breakerKey struct {
	inst  uint64
	codec string
}

// breaker is one key's consecutive-failure ledger. openUntil is zero
// while closed; probing marks that one post-cooldown probe is in flight.
type breaker struct {
	failures  int
	openUntil time.Time
	probing   bool
}

type breakerVerdict uint8

const (
	breakerClosed breakerVerdict = iota // compute normally
	breakerDeny                         // serve stale or ErrBreakerOpen
	breakerProbe                        // this caller revalidates
)

// breakerAllow classifies one computation attempt against the key's
// breaker. The first caller after the cooldown becomes the probe; others
// stay denied until the probe resolves.
func (e *Engine) breakerAllow(k breakerKey) breakerVerdict {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	b := e.breakers[k]
	if b == nil || b.openUntil.IsZero() {
		return breakerClosed
	}
	if time.Now().Before(b.openUntil) || b.probing {
		return breakerDeny
	}
	b.probing = true
	return breakerProbe
}

// breakerRecordFailure counts one full computation failure, tripping the
// breaker at the configured threshold (and re-arming the cooldown on
// every failure while open).
func (e *Engine) breakerRecordFailure(k breakerKey) {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	b := e.breakers[k]
	if b == nil {
		b = &breaker{}
		e.breakers[k] = b
	}
	b.probing = false
	b.failures++
	if b.failures >= e.cfg.BreakerThreshold {
		if b.openUntil.IsZero() {
			e.breakerOpens.Add(1)
		}
		b.openUntil = time.Now().Add(e.cfg.BreakerCooldown)
	}
}

// breakerRecordSuccess closes the key's breaker entirely: the
// consecutive-failure count restarts from zero.
func (e *Engine) breakerRecordSuccess(k breakerKey) {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	delete(e.breakers, k)
}

// breakerClearProbe releases a probe without moving the ledger either
// way — the probe's outcome was inconclusive (degraded partial service,
// or the probing caller's own cancellation), so the breaker stays open
// until its cooldown admits the next probe.
func (e *Engine) breakerClearProbe(k breakerKey) {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	if b := e.breakers[k]; b != nil {
		b.probing = false
	}
}

// cloneResult copies a stale-cache result's one mutable field. The stale
// cache holds the last fully-successful outcome per epoch-free request
// identity — cacheKey for fixed/stratified requests, precisionKey for
// adaptive ones, distinct types, so the key spaces cannot collide in its
// any-keyed map — and the breaker serves it while open.
func cloneResult(res Result) Result {
	res.Estimate = cloneEstimate(res.Estimate)
	return res
}

// staleKeyFor derives the epoch-free identity of a request: the exact
// cache key with every version component zeroed, so the last good
// estimate keeps matching after the mutations (or failures) that tripped
// the breaker moved the epoch on.
func (e *Engine) staleKeyFor(it *batchItem) any {
	if it.req.TargetError > 0 {
		pk := it.pkey
		pk.epoch, pk.epochs = 0, ""
		return pk
	}
	pageSize := it.req.PageSize
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	return cacheKey{
		inst:     it.req.Table.InstanceID(),
		columns:  strings.Join(it.req.KeyColumns, "\x00"),
		codec:    it.req.Codec.Name(),
		fraction: it.req.Fraction,
		rows:     it.req.SampleRows,
		seed:     it.req.Seed,
		pageSize: pageSize,
		fresh:    it.req.FreshSample,
		shard:    wholeTable,
		strata:   it.req.Strata,
	}
}

// staleResult serves the last good estimate for the item's epoch-free
// identity, marked Stale, or reports none exists.
func (e *Engine) staleResult(it *batchItem) (Result, bool) {
	res, ok := e.stale.Get(e.staleKeyFor(it), nil)
	if !ok {
		return Result{}, false
	}
	res.Stale = true
	e.staleServed.Add(1)
	return res, true
}

// breakerGate runs one miss through the item's circuit breaker. ok=true
// means the gate answered (stale or ErrBreakerOpen) and the computation
// must not run; ok=false means compute — either the breaker is closed or
// this caller is the probe.
func (e *Engine) breakerGate(it *batchItem) (Result, bool) {
	if e.cfg.BreakerThreshold <= 0 || it.req.bypassBreaker {
		return Result{}, false
	}
	bk := breakerKey{inst: it.req.Table.InstanceID(), codec: it.req.Codec.Name()}
	switch e.breakerAllow(bk) {
	case breakerProbe:
		if res, ok := e.staleResult(it); ok {
			// Serve stale now, revalidate in the background: the probe
			// must not pay the (possibly still failing) computation on a
			// caller's latency budget when an answer exists.
			e.spawnRefresh(it.req)
			return res, true
		}
		return Result{}, false // no stale answer: probe inline
	case breakerDeny:
		if res, ok := e.staleResult(it); ok {
			return res, true
		}
		return Result{Err: fmt.Errorf("engine: request %d: table %q codec %q: %w",
			it.idx, it.req.Table.Name(), it.req.Codec.Name(), ErrBreakerOpen)}, true
	}
	return Result{}, false
}

// noteOutcome feeds one computed result back into the breaker and stale
// ledgers. Cache hits, coalesced fan-outs, and stale serves are not
// computations and never reach here.
func (e *Engine) noteOutcome(it *batchItem, res Result) {
	if e.cfg.BreakerThreshold <= 0 {
		return
	}
	bk := breakerKey{inst: it.req.Table.InstanceID(), codec: it.req.Codec.Name()}
	switch {
	case res.Err != nil:
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			// The caller gave up; the table proved nothing either way.
			e.breakerClearProbe(bk)
			return
		}
		e.breakerRecordFailure(bk)
	case res.Degraded:
		e.breakerClearProbe(bk)
	default:
		e.breakerRecordSuccess(bk)
		e.stale.Put(e.staleKeyFor(it), Result{
			Estimate:      res.Estimate,
			AchievedError: res.AchievedError,
			Rounds:        res.Rounds,
			Converged:     res.Converged,
		}, nil)
	}
}

// spawnRefresh revalidates a breaker-opened identity in the background:
// the same request, breaker bypassed, on a fresh context. Its outcome
// flows through noteOutcome like any computation — success closes the
// breaker and refreshes the stale entry; failure re-arms the cooldown.
// The refresh bypasses the flight group (evaluate): the probe that spawned
// it may still lead a flight for the same key, with a stale answer.
func (e *Engine) spawnRefresh(req Request) {
	req.bypassBreaker = true
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		e.Estimate(context.Background(), req)
	}()
}
