package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/faults"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// The chaos suite (run by CI's chaos job via -run Chaos under -race)
// proves the fault-tolerance contract of docs/robustness.md: every
// registered injection point has error AND panic coverage, one poisoned
// shard degrades its request instead of the batch or the process, faults
// replay byte-identically, and the circuit breaker serves stale while a
// table is down. Schedules are process-global, so none of these tests may
// call t.Parallel.

// armChaos arms a schedule for the duration of one test.
func armChaos(t *testing.T, schedule string, seed uint64) {
	t.Helper()
	if err := faults.Arm(schedule, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
}

// chaosEngine builds a small engine with fast retries so persistent-fault
// tests don't sit in backoff.
func chaosEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 100 * time.Microsecond
	}
	if cfg.RetryBackoffCap == 0 {
		cfg.RetryBackoffCap = time.Millisecond
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

// TestChaosEveryPointErrorAndPanic proves every registered injection
// point has both error and panic coverage on the serving path: a
// persistent fault at each point fails a scattered request with an error
// that identifies itself as injected — never a crashed process or a hung
// ask — and panics additionally land in the recovery ledger. Each point
// is driven three times: through a fixed-r scatter, (".../strata=4")
// through an adaptive ask whose shard×stratum arms share one router per
// shard, and (".../strata=4/fixed") through a fixed-r ask over the same
// arms. The stratified asks build their partitions before the fault is
// armed, so that it lands on the routed stream; a panic there must
// release the router, so the retry and the next ask proceed. A fixed-r
// stratified ask runs round 0 of the arm loop under the same grow hook,
// so a fault in an arm's draw is retried before it fails the ask.
func TestChaosEveryPointErrorAndPanic(t *testing.T) {
	wantPoints := []string{"compress.encode", "engine.scatter", "heap.scan", "sampling.draw"}
	got := faults.Points()
	for _, p := range wantPoints {
		found := false
		for _, g := range got {
			if g == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("injection point %q not registered (have %v)", p, got)
		}
	}
	for _, point := range wantPoints {
		for _, kind := range []string{"err", "panic"} {
			for _, c := range []struct {
				strata int
				fixed  bool
			}{{0, false}, {4, false}, {4, true}} {
				strata := c.strata
				name := point + "/" + kind
				if strata > 0 {
					name += fmt.Sprintf("/strata=%d", strata)
				}
				if c.fixed {
					name += "/fixed"
				}
				t.Run(name, func(t *testing.T) {
					// Snapshots off so row reads go through the heap
					// scan path where heap.scan is consulted.
					d := db.New(0, db.WithSnapshots(false))
					st := liveShardedTable(t, d, "t", 2, 500)
					e := chaosEngine(t, Config{Workers: 2})
					req := Request{
						Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
						SampleRows: 100, Seed: 7, FreshSample: true,
					}
					if strata > 0 {
						warm := req
						warm.Strata = strata
						if res := e.Estimate(context.Background(), warm); res.Err != nil {
							t.Fatal(res.Err)
						}
						req.Strata, req.Seed = strata, 8
						if !c.fixed {
							req.SampleRows, req.TargetError = 0, 0.05
						}
					}
					armChaos(t, point+":"+kind+"@1+", 1)
					res := estimateWithin(t, e, req, 10*time.Second)
					checkInjected(t, point, kind, res)
					if c.fixed && point != "compress.encode" && e.Stats().ShardRetries == 0 {
						// The codec's fault fires in the arm's Estimate,
						// after its draws: there is no draw to retry.
						t.Error("fixed-r stratified ask failed without a retry")
					}
					if strata > 0 {
						faults.Disarm()
						req.Seed = 9
						if res := estimateWithin(t, e, req, 10*time.Second); res.Err != nil {
							t.Errorf("ask after the fault cleared failed: %v", res.Err)
						}
					}
				})
			}
		}
	}
}

// estimateWithin runs one ask and fails the test if it has not returned
// within limit: a fault that leaves a lock held shows up as a hang.
func estimateWithin(t *testing.T, e *Engine, req Request, limit time.Duration) Result {
	t.Helper()
	done := make(chan Result, 1)
	go func() { done <- e.Estimate(context.Background(), req) }()
	select {
	case res := <-done:
		return res
	case <-time.After(limit):
		t.Fatalf("ask did not return within %v", limit)
		return Result{}
	}
}

// checkInjected requires res to have failed with the injected fault at
// point — as a *faults.PanicError carrying its stack when kind is panic.
func checkInjected(t *testing.T, point, kind string, res Result) {
	t.Helper()
	if res.Err == nil {
		t.Fatalf("persistent %s fault at %s produced no error", kind, point)
	}
	if !errors.Is(res.Err, faults.ErrInjected) {
		t.Errorf("error does not match faults.ErrInjected: %v", res.Err)
	}
	if kind == "panic" {
		// The panic is converted at whichever recovery trap
		// is closest (engine fan-outs count PanicsRecovered;
		// the page-encode workgroup recovers in place) — what
		// matters is that it surfaced as a typed error, not a
		// crashed process.
		var pe *faults.PanicError
		if !errors.As(res.Err, &pe) {
			t.Errorf("panic not surfaced as *faults.PanicError: %v", res.Err)
		} else if pe.Point != point || len(pe.Stack) == 0 {
			t.Errorf("PanicError point %q stack %d bytes, want %q with stack", pe.Point, len(pe.Stack), point)
		}
	}
}

// TestChaosBatchIsolation proves a poisoned candidate fails alone: in one
// WhatIf batch, the candidate over the faulted sharded table errors while
// its batch-mate over a healthy plain table answers normally, and the
// panic is recovered rather than killing the pool worker.
func TestChaosBatchIsolation(t *testing.T) {
	armChaos(t, "engine.scatter:panic@1+", 1)
	d := db.New(0)
	st := liveShardedTable(t, d, "sharded", 2, 500)
	plain := liveTable(t, d, "plain", 1000)
	e := chaosEngine(t, Config{Workers: 2})
	codec := mustCodec(t)
	results := e.WhatIf(context.Background(), []Request{
		{Table: st, Codec: codec, KeyColumns: []string{"city"}, SampleRows: 100, Seed: 1, FreshSample: true},
		{Table: plain, Codec: codec, KeyColumns: []string{"city"}, SampleRows: 100, Seed: 2, FreshSample: true},
	})
	if results[0].Err == nil || !errors.Is(results[0].Err, faults.ErrInjected) {
		t.Errorf("poisoned candidate error = %v, want injected", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("healthy batch-mate failed: %v", results[1].Err)
	}
	if results[1].Estimate.CF <= 0 || results[1].Estimate.CF > 1 {
		t.Errorf("healthy batch-mate CF = %v", results[1].Estimate.CF)
	}
}

// TestChaosTransientFaultHealsByRetry proves the retry policy absorbs a
// transient shard failure invisibly: a fault firing only on the first hit
// is healed by the retry (a fresh private sample group on the scatter
// path at strata=0, the grow hook's retry of the arm's draw at strata=4),
// the request succeeds undegraded with the fault-free estimate, and the
// retry ledger shows the work.
func TestChaosTransientFaultHealsByRetry(t *testing.T) {
	for _, strata := range []int{0, 4} {
		t.Run(fmt.Sprintf("strata=%d", strata), func(t *testing.T) {
			d := db.New(0)
			st := liveShardedTable(t, d, "t", 4, 500)
			req := Request{
				Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
				SampleRows: 200, Seed: 3, FreshSample: true, Strata: strata,
			}
			want := chaosEngine(t, Config{Workers: 2}).Estimate(context.Background(), req)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			armChaos(t, "engine.scatter[1]:err@1", 1)
			e := chaosEngine(t, Config{Workers: 2})
			res := e.Estimate(context.Background(), req)
			if res.Err != nil {
				t.Fatalf("transient fault was not healed: %v", res.Err)
			}
			if res.Degraded {
				t.Error("healed request reported Degraded")
			}
			if got := e.Stats().ShardRetries; got == 0 {
				t.Error("retry ledger empty despite a healed transient fault")
			}
			if res.Estimate.CF != want.Estimate.CF || res.Estimate.SampleRows != want.Estimate.SampleRows {
				t.Errorf("healed CF %v (%d rows) != fault-free CF %v (%d rows)",
					res.Estimate.CF, res.Estimate.SampleRows, want.Estimate.CF, want.Estimate.SampleRows)
			}
		})
	}
}

// TestChaosDegradedScatter is the acceptance scenario: one of four shards
// fails persistently, on the fixed-r scatter (strata=0) and on a fixed-r
// stratified ask over shard×stratum arms (strata=4). Without AllowPartial
// the request fails with every shard's error joined, naming the shard.
// With AllowPartial the survivors merge into a Degraded result with a
// widened interval — pinned to the renormalized stratified formula on the
// scatter — and the degraded answer is never served from cache.
func TestChaosDegradedScatter(t *testing.T) {
	for _, strata := range []int{0, 4} {
		t.Run(fmt.Sprintf("strata=%d", strata), func(t *testing.T) {
			armChaos(t, "engine.scatter[1]:err@1+", 1)
			d := db.New(0)
			st := liveShardedTable(t, d, "t", 4, 1000)
			e := chaosEngine(t, Config{Workers: 2, CacheEntries: 64})
			codec := mustCodec(t)
			req := Request{Table: st, Codec: codec, KeyColumns: []string{"city"},
				SampleRows: 400, Seed: 9, FreshSample: true, Strata: strata}

			// Strict request: joined error naming the failed shard.
			strict := e.Estimate(context.Background(), req)
			if strict.Err == nil {
				t.Fatal("strict request over a failing shard succeeded")
			}
			if !strings.Contains(strict.Err.Error(), "shard 1") {
				t.Errorf("joined error does not name shard 1: %v", strict.Err)
			}
			if !errors.Is(strict.Err, faults.ErrInjected) {
				t.Errorf("joined error lost the injected sentinel: %v", strict.Err)
			}

			// Partial request: survivors merge, result degrades.
			req.AllowPartial = true
			res := e.Estimate(context.Background(), req)
			if res.Err != nil {
				t.Fatalf("AllowPartial request failed outright: %v", res.Err)
			}
			if !res.Degraded {
				t.Fatal("partial result not marked Degraded")
			}
			if len(res.ShardsFailed) != 1 || res.ShardsFailed[0] != 1 {
				t.Errorf("ShardsFailed = %v, want [1]", res.ShardsFailed)
			}
			if res.Estimate.CF <= 0 || res.Estimate.CF > 1 {
				t.Errorf("degraded CF %v outside (0,1]", res.Estimate.CF)
			}
			if res.AchievedError <= 0 {
				t.Errorf("degraded answer reports no interval: %v", res.AchievedError)
			}
			if strata == 0 {
				// The widened interval is z·StratifiedSD over the three
				// survivors: equal shards, so w_h = 1/4 each and r_h =
				// 100 rows each, SD_h bounded by Theorem 1's 1/(2√r_h).
				// StratifiedSD divides by Σw = 3/4 — the renormalization
				// — so the expectation is fully explicit.
				w, sd := 0.25, 1/(2*math.Sqrt(100))
				want := zFor(0) * math.Sqrt(3*w*w*sd*sd) / (3 * w)
				if math.Abs(res.AchievedError-want) > 1e-12 {
					t.Errorf("degraded half-width %v, want %v", res.AchievedError, want)
				}
			} else {
				// The same formula over the surviving shard×stratum
				// arms, each at the rows its stream returned: replay
				// the request's arms (the partitions are cached, the
				// streams seeded) and draw each survivor's round 0.
				want, rows := survivorHalfWidth(t, e, req, 1)
				if math.Abs(res.AchievedError-want) > 1e-12 {
					t.Errorf("degraded half-width %v, want %v", res.AchievedError, want)
				}
				if res.Estimate.SampleRows != rows {
					t.Errorf("degraded SampleRows %d, survivors drew %d", res.Estimate.SampleRows, rows)
				}
			}
			if e.Stats().DegradedResults != 1 {
				t.Errorf("DegradedResults = %d, want 1", e.Stats().DegradedResults)
			}

			// A degraded answer is never cached: the repeat recomputes (and
			// degrades again, since the fault persists) rather than hitting.
			res2 := e.Estimate(context.Background(), req)
			if res2.CacheHit {
				t.Error("degraded result was served from cache")
			}
			if !res2.Degraded {
				t.Error("repeat over the persistent fault not Degraded")
			}

			// Strict and partial asks in one batch never share an answer:
			// the strict one fails, the partial one degrades. (Two
			// batches: more strict failures would open the breaker.)
			strictReq := req
			strictReq.AllowPartial = false
			for rep := 0; rep < 2; rep++ {
				out := e.WhatIf(context.Background(), []Request{strictReq, req})
				if out[0].Err == nil || out[1].Err != nil || !out[1].Degraded {
					t.Fatalf("batch %d: strict err %v, partial err %v degraded %v; want an error and a degraded answer",
						rep, out[0].Err, out[1].Err, out[1].Degraded)
				}
			}
		})
	}
}

// survivorHalfWidth replays req's fixed-r arm set with shard failed left
// out: each surviving arm draws its proportional share of the request's
// rows from a fresh copy of its stream, and the result is the explicit
// renormalized form z·√(Σ w_h²/(4·r_h))/Σ w_h over the arms' weights and
// the rows they returned, with the total rows drawn.
func survivorHalfWidth(t *testing.T, e *Engine, req Request, failed int) (float64, int64) {
	t.Helper()
	arms, origins, err := e.requestArms(context.Background(), req, req.Table.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	alloc := sampling.Allocate(req.SampleRows, core.ArmRows(arms), nil)
	var v, wsum float64
	var total int64
	for i, arm := range arms {
		if origins[i].shard == failed {
			continue
		}
		ar, err := arm.Extend(0, alloc[i])
		if err != nil {
			t.Fatal(err)
		}
		r := float64(ar.Len())
		v += arm.Weight * arm.Weight / (4 * r)
		wsum += arm.Weight
		total += int64(ar.Len())
	}
	return zFor(0) * math.Sqrt(v) / wsum, total
}

// TestChaosDegradedHalfWidthFormula unit-pins degradedHalfWidth against
// the stratified algebra it claims to implement, including the
// renormalization under unequal surviving weights.
func TestChaosDegradedHalfWidthFormula(t *testing.T) {
	weights, planned, sampled := []float64{0.5, 0.2}, []int64{400, 100}, []int64{0, 0}
	got := degradedHalfWidth(weights, planned, sampled)
	want := zFor(0) * stats.StratifiedSD([]stats.Stratum{
		{Weight: 0.5, SD: 1 / (2 * math.Sqrt(400))},
		{Weight: 0.2, SD: 1 / (2 * math.Sqrt(100))},
	})
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("degradedHalfWidth = %v, want %v", got, want)
	}
	// The explicit renormalized form: √(Σ w²σ²)/Σw.
	explicit := zFor(0) * math.Sqrt(0.25*1.0/1600+0.04*1.0/400) / 0.7
	if math.Abs(got-explicit) > 1e-15 {
		t.Errorf("degradedHalfWidth = %v, explicit formula says %v", got, explicit)
	}
	// Drawn-rows override: when a survivor records how many rows it
	// actually sampled (a cached shard estimated at an earlier
	// allocation), that count bounds the SD, not the plan.
	sampled[1] = 2500
	boosted := degradedHalfWidth(weights, planned, sampled)
	explicit = zFor(0) * math.Sqrt(0.25*1.0/1600+0.04*1.0/10000) / 0.7
	if math.Abs(boosted-explicit) > 1e-15 {
		t.Errorf("degradedHalfWidth over 2500 sampled rows (plan 100) = %v, want %v", boosted, explicit)
	}
}

// TestChaosAdaptiveDegraded proves the multi-arm adaptive loop degrades
// like the fixed scatter, whether each shard is one arm (Strata 0) or a
// set of shard×stratum arms (Strata 4): a persistently failing shard
// fails the strict ask with an error naming it, and under AllowPartial
// its arms drop out, the surviving arms converge with renormalized
// weights, the failed shard is reported, and the degraded interval never
// enters the precision cache.
func TestChaosAdaptiveDegraded(t *testing.T) {
	for _, strata := range []int{0, 4} {
		t.Run(fmt.Sprintf("strata=%d", strata), func(t *testing.T) {
			armChaos(t, "engine.scatter[1]:err@1+", 1)
			d := db.New(0)
			st := liveShardedTable(t, d, "t", 3, 1000)
			e := chaosEngine(t, Config{Workers: 2})
			req := Request{Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
				Seed: 11, TargetError: 0.05, Strata: strata}

			strict := e.Estimate(context.Background(), req)
			if strict.Err == nil || !strings.Contains(strict.Err.Error(), "shard 1") {
				t.Fatalf("strict adaptive error = %v, want an error naming shard 1", strict.Err)
			}
			if !errors.Is(strict.Err, faults.ErrInjected) {
				t.Errorf("strict error lost the injected sentinel: %v", strict.Err)
			}

			req.AllowPartial = true
			res := e.Estimate(context.Background(), req)
			if res.Err != nil {
				t.Fatalf("partial adaptive failed: %v", res.Err)
			}
			if !res.Degraded || len(res.ShardsFailed) != 1 || res.ShardsFailed[0] != 1 {
				t.Fatalf("Degraded=%v ShardsFailed=%v, want degraded [1]", res.Degraded, res.ShardsFailed)
			}
			if res.AchievedError <= 0 {
				t.Errorf("degraded adaptive reports no interval: %v", res.AchievedError)
			}
			if res.Estimate.CF <= 0 || res.Estimate.CF > 1 {
				t.Errorf("degraded CF %v outside (0,1]", res.Estimate.CF)
			}

			// Never cached: the repeat recomputes instead of a precision hit.
			res2 := e.Estimate(context.Background(), req)
			if res2.CacheHit || !res2.Degraded {
				t.Errorf("repeat: CacheHit=%v Degraded=%v, want a recomputed degraded answer", res2.CacheHit, res2.Degraded)
			}
			if s := e.Stats(); s.PrecisionHits != 0 || s.PrecisionEntries != 0 {
				t.Errorf("precision hits %d, entries %d; want 0 and 0", s.PrecisionHits, s.PrecisionEntries)
			}
		})
	}
}

// TestChaosAdaptiveTransientHealsByRetry proves the grow hook's retry:
// a fault that fires only once during the ask is retried with backoff,
// and the adaptive sharded ask converges undegraded — to the fault-free
// answer, whether each shard is one arm (Strata 0) or routes its stream
// to shard×stratum arms (Strata 4). The fault is either shard 1's first
// extension failing before it routes, or a heap read failing part-way
// through routing or gathering a shard's stream (snapshots off, so rows
// are read through the heap scan): a failed attempt takes no routed rows
// and leaves the stream where it was, so the retry takes the rows the
// first attempt would have.
func TestChaosAdaptiveTransientHealsByRetry(t *testing.T) {
	cases := []struct {
		name     string
		strata   int
		schedule string
		key      string
		codec    string
	}{
		{"strata=0", 0, "engine.scatter[1]:err@1", "city", "nullsuppression"},
		{"strata=4", 4, "engine.scatter[1]:err@1", "city", "nullsuppression"},
		// Huffman over seq: a CF that moves with every row drawn.
		{"strata=4/heap.scan", 4, "heap.scan:err@40", "seq", "huffman"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var opts []db.Option
			if strings.HasPrefix(c.schedule, "heap.scan") {
				opts = append(opts, db.WithSnapshots(false))
			}
			d := db.New(0, opts...)
			st := liveShardedTable(t, d, "t", 3, 1000)
			codec, err := compress.Lookup(c.codec)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Table: st, Codec: codec, KeyColumns: []string{c.key},
				Seed: 11, TargetError: 0.05, Strata: c.strata}
			want := chaosEngine(t, Config{Workers: 2}).Estimate(context.Background(), req)
			if want.Err != nil {
				t.Fatal(want.Err)
			}

			e := chaosEngine(t, Config{Workers: 2})
			if c.strata > 0 {
				// Build the partitions first, so the fault lands on the
				// ask's routed streams rather than on a weight pilot.
				warm := req
				warm.TargetError, warm.SampleRows, warm.FreshSample = 0, 100, true
				if res := e.Estimate(context.Background(), warm); res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			armChaos(t, c.schedule, 1)
			res := e.Estimate(context.Background(), req)
			if res.Err != nil {
				t.Fatalf("transient fault was not healed: %v", res.Err)
			}
			if len(faults.Fired()) == 0 {
				t.Fatal("the fault never fired")
			}
			if res.Degraded || !res.Converged {
				t.Errorf("Degraded=%v Converged=%v, want a converged whole answer", res.Degraded, res.Converged)
			}
			if got := e.Stats().ShardRetries; got == 0 {
				t.Error("retry ledger empty despite a healed transient fault")
			}
			if res.Estimate.CF != want.Estimate.CF || res.Estimate.SampleRows != want.Estimate.SampleRows ||
				res.AchievedError != want.AchievedError || res.Rounds != want.Rounds {
				t.Errorf("healed answer CF %v ± %v (%d rows, %d rounds) != fault-free CF %v ± %v (%d rows, %d rounds)",
					res.Estimate.CF, res.AchievedError, res.Estimate.SampleRows, res.Rounds,
					want.Estimate.CF, want.AchievedError, want.Estimate.SampleRows, want.Rounds)
			}
		})
	}
}

// TestChaosPartitionBuildFailureNotCached proves a failed partition build
// (weight pilot or boundaries) is not served to later asks: a persistent
// heap-read fault, error or panic, fails a cold stratified ask while it
// lasts, and once it clears the next ask rebuilds the partition and
// answers.
func TestChaosPartitionBuildFailureNotCached(t *testing.T) {
	for _, kind := range []string{"err", "panic"} {
		t.Run(kind, func(t *testing.T) {
			d := db.New(0, db.WithSnapshots(false))
			st := liveShardedTable(t, d, "t", 2, 500)
			e := chaosEngine(t, Config{Workers: 2})
			req := Request{Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
				SampleRows: 100, Seed: 7, FreshSample: true, Strata: 4}
			armChaos(t, "heap.scan:"+kind+"@1+", 1)
			checkInjected(t, "heap.scan", kind, estimateWithin(t, e, req, 10*time.Second))
			faults.Disarm()
			if res := estimateWithin(t, e, req, 10*time.Second); res.Err != nil {
				t.Fatalf("ask after the fault cleared failed: %v", res.Err)
			}
		})
	}
}

// TestChaosReplayDeterminism proves the injection registry's replay
// contract: the same schedule, seed, and workload fire the same faults —
// point, argument, hit, and kind all byte-identical — across two
// independent runs, even with shard work racing on goroutines (arg
// filters keep per-shard hit counters private).
func TestChaosReplayDeterminism(t *testing.T) {
	const schedule = "engine.scatter[1]:err@2,4;engine.scatter[0]:panic@3;sampling.draw:err@5"
	run := func() []faults.Firing {
		if err := faults.Arm(schedule, 42); err != nil {
			t.Fatal(err)
		}
		defer faults.Disarm()
		d := db.New(0)
		st := liveShardedTable(t, d, "t", 2, 500)
		e := chaosEngine(t, Config{Workers: 2})
		for seed := uint64(1); seed <= 4; seed++ {
			e.Estimate(context.Background(), Request{
				Table: st, Codec: mustCodec(t), KeyColumns: []string{"city"},
				SampleRows: 100, Seed: seed, FreshSample: true, AllowPartial: true,
			})
		}
		fired := faults.Fired()
		sort.Slice(fired, func(i, j int) bool {
			a, b := fired[i], fired[j]
			if a.Point != b.Point {
				return a.Point < b.Point
			}
			if a.Arg != b.Arg {
				return a.Arg < b.Arg
			}
			if a.Hit != b.Hit {
				return a.Hit < b.Hit
			}
			return a.Kind < b.Kind
		})
		return fired
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("schedule fired nothing — workload no longer reaches the points")
	}
	if len(first) != len(second) {
		t.Fatalf("replay fired %d faults, first run fired %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("firing %d diverged: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestChaosBreakerLifecycle walks the circuit breaker through its whole
// arc: consecutive failures trip it open, an open breaker serves the last
// good estimate stale (or ErrBreakerOpen when none exists), and after the
// cooldown a probe revalidates and recovery resumes fresh computation.
func TestChaosBreakerLifecycle(t *testing.T) {
	d := db.New(0)
	tb := liveTable(t, d, "t", 2000)
	e := chaosEngine(t, Config{Workers: 2, CacheEntries: 64,
		BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond})
	codec := mustCodec(t)
	// FreshSample so every attempt draws through sampling.draw rather
	// than the maintained-sample route the fault cannot reach.
	req := Request{Table: tb, Codec: codec, KeyColumns: []string{"city"},
		SampleRows: 200, Seed: 5, FreshSample: true}
	ctx := context.Background()

	// Healthy first pass seeds the stale cache with a last good estimate.
	good := e.Estimate(ctx, req)
	if good.Err != nil {
		t.Fatal(good.Err)
	}

	armChaos(t, "sampling.draw:err@1+", 1)
	bump := func() { // epoch bump so each attempt misses the result cache
		if _, err := tb.Insert(value.Row{value.StringValue("x"), value.IntValue(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		bump()
		if r := e.Estimate(ctx, req); r.Err == nil {
			t.Fatalf("failure %d unexpectedly succeeded", i)
		}
	}
	if e.Stats().BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 after %d consecutive failures", e.Stats().BreakerOpens, 2)
	}

	// Open breaker, known identity: the last good estimate serves stale.
	bump()
	stale := e.Estimate(ctx, req)
	if stale.Err != nil {
		t.Fatalf("open breaker with a stale answer errored: %v", stale.Err)
	}
	if !stale.Stale {
		t.Fatal("result during open breaker not marked Stale")
	}
	if stale.Estimate.CF != good.Estimate.CF {
		t.Errorf("stale CF %v != last good CF %v", stale.Estimate.CF, good.Estimate.CF)
	}
	if e.Stats().StaleServed == 0 {
		t.Error("StaleServed ledger empty")
	}

	// Open breaker, unknown identity: fail fast with ErrBreakerOpen
	// (the breaker is per (table, codec), the stale cache per request).
	other := req
	other.Seed = 6
	if r := e.Estimate(ctx, other); !errors.Is(r.Err, ErrBreakerOpen) {
		t.Errorf("unknown identity during open breaker: %v, want ErrBreakerOpen", r.Err)
	}

	// Recovery: the fault clears, the cooldown lapses, a probe
	// revalidates in the background, and fresh results resume.
	faults.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := e.Estimate(ctx, req)
		if r.Err == nil && !r.Stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosInvalidRequestSentinel pins the validation sentinel: every
// rejection matches ErrInvalidRequest (cfserve's 400 mapping) while an
// injected computational failure does not.
func TestChaosInvalidRequestSentinel(t *testing.T) {
	d := db.New(0)
	tb := liveTable(t, d, "t", 100)
	e := chaosEngine(t, Config{Workers: 1})
	res := e.Estimate(context.Background(), Request{Table: tb, Codec: mustCodec(t),
		KeyColumns: []string{"city"}, Confidence: 0.95})
	if !errors.Is(res.Err, ErrInvalidRequest) {
		t.Errorf("validation failure %v does not match ErrInvalidRequest", res.Err)
	}

	armChaos(t, "sampling.draw:err@1+", 1)
	res = e.Estimate(context.Background(), Request{Table: tb, Codec: mustCodec(t),
		KeyColumns: []string{"city"}, SampleRows: 50, Seed: 1, FreshSample: true})
	if res.Err == nil || errors.Is(res.Err, ErrInvalidRequest) {
		t.Errorf("injected failure %v must not match ErrInvalidRequest", res.Err)
	}
}
