// Adaptive, sharded and stratified estimation through one arm model.
// Under the sampling algebra a shard is a stratum whose boundary is a
// partition rather than a key range: weights N_h/N compose the mean and
// √(Σ w_h²σ_h²) the interval whichever boundary cut the table, and an
// unsharded, unstratified table is the one-stratum case. So a request
// becomes one flat set of core.StratumArm — one arm for a plain table
// (plainArm), one per key-range stratum of a plain table (Request.Strata),
// one per shard of a partitioned table without strata, one per
// shard×stratum cell otherwise, with cell weights rescaled to whole-table
// shares. Every adaptive ask and every stratified one runs
// core.AdaptiveEstimateStratified over the arms (runArms), each arm's
// draws under the engine's grow hook (hookArm: deadline, shard fault
// point, panic trap, retries, and the AllowPartial drop); a fixed-r ask is
// the loop's round 0 with no target. (Fixed-r asks on a partitioned table
// without strata take the scatter path of shard.go, whose per-shard cache
// keeps serving untouched shards, and fixed-r asks on a plain table the
// shared-sample batch path of engine.go.) The engine rewrites Strata 1 to
// 0: one stratum is no stratification.
//
// A stratified table's arms route one uniform stream: core.RoutedArms
// draws rows of the whole table (or shard) at the request's seed and
// queues each under the stratum its key falls in, so no stratified ask
// scans the table. What they share across requests is the partition, in
// two caches. The cut points (core.Cuts, O(H) bytes) are cached per
// (instance, columns, strata) and survive writes: a table is cut again
// only when its row count leaves [½, 2]× the count it was cut at. They
// come from an existing index's separator keys, else from the fixed-seed
// 1,024-row boundary pilot. The weights ŵ_h = m_h/m are cached per
// (instance, epoch, columns, strata): counted from the maintained
// reservoir's records at that epoch (m key projections, no storage draw),
// or, for a table with no reservoir at the epoch (workload tables, a
// maintained-sample target of 0, a write racing the ask), from the
// fixed-seed 8,192-row weight pilot. A partition whose cuts give one
// stratum is a single whole-table stream (core.TableArm), and a partition
// build runs under a draw span.
//
// Stratified draws are always fresh: the routed stream reads the table
// itself — the maintained reservoir serves only the weights here.
package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/obs"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// cutKey identifies one key domain's cached cut points: the table (or
// shard) instance plus everything the cuts depend on. No epoch — cuts
// survive writes — and no seed: cut points derive from the index walk or
// the fixed boundary-pilot seed, never the request seed.
type cutKey struct {
	inst    uint64
	columns string // "\x00"-joined key column names
	strata  int
}

// partKey identifies one cached partition: the cuts' key plus the table
// version whose weights it counts. Weights come from that version's
// maintained reservoir or the fixed weight-pilot seed, so every request at
// one table version shares one partition.
type partKey struct {
	cutKey
	epoch uint64
}

// built is one cached build — a key domain's cuts or a table version's
// partition — shared once-style by every request that resolves its key
// while it is resident. For cuts, rows is the source's row count at the
// version they were cut at.
type built[T any] struct {
	rows   int64
	once   sync.Once
	val    T
	err    error
	failed atomic.Bool // set once err is
}

// shareBuild resolves key through cache: a resident entry is shared
// unless its build failed or keep (nil keeps every one) rejects it, in
// which case ent replaces it. The entry's build runs once, under the
// shard panic trap, so a panic becomes the entry's error; a failed build
// stays only until the next request resolves the key.
func shareBuild[K comparable, T any](e *Engine, cache *lru[K, *built[T]], key K, ent *built[T],
	keep func(*built[T]) bool, build func() (T, error)) (T, error) {
	cache.Put(key, ent, func(resident *built[T]) bool {
		if resident.failed.Load() || (keep != nil && !keep(resident)) {
			return false
		}
		ent = resident
		return true
	})
	ent.once.Do(func() {
		defer func() {
			if ent.err != nil {
				ent.failed.Store(true)
			}
		}()
		defer e.trapShardPanic(&ent.err)
		ent.val, ent.err = build()
	})
	return ent.val, ent.err
}

// tableCuts resolves the cut points of one table's (or shard's) key
// domain through the cuts cache. A resident cut is kept while the row
// count at the request's epoch stays within a factor of two of the count
// it was cut at; outside that it is cut again. core.StratumBoundaries
// picks the cheapest source: the table's ordered index's separator walk
// (no row access at all), else the fixed-seed boundary pilot over src.
// The maintained reservoir is never a cut source, so cuts and weights
// never come from the same rows.
func (e *Engine) tableCuts(tab Table, src sampling.RowSource, key cutKey, keyCols []string) (*core.Cuts, error) {
	n := src.NumRows()
	return shareBuild(e, e.cuts, key, &built[*core.Cuts]{rows: n},
		func(resident *built[*core.Cuts]) bool { return n <= 2*resident.rows && 2*n >= resident.rows },
		func() (*core.Cuts, error) {
			ib, _ := tab.(core.IndexBoundarySource)
			bounds, err := core.StratumBoundaries(ib, src, tab.Schema(), keyCols, key.strata)
			if err != nil {
				return nil, err
			}
			return core.NewCuts(tab.Schema(), keyCols, bounds)
		})
}

// tableArms builds the arms of one catalog table — the whole table, or one
// shard of a partitioned one. strata ≤ 1 is one whole-table stream
// (core.TableArm) and resolves no partition; otherwise the partition at
// epoch resolves through the partition cache, under a draw span when it
// is built, and the arms route one stream seeded by seed. A build takes
// the cuts from tableCuts and weighs them by the maintained reservoir at
// epoch (no storage draw), or by the 8,192-row weight pilot when the
// table keeps no reservoir at that epoch. The pilots and the arms' draws
// read the table's snapshot at epoch when one is published, so all of
// them see one row set and read it as records.
func (e *Engine) tableArms(ctx context.Context, tab Table, epoch uint64, keyCols []string, strata int, seed uint64) ([]core.StratumArm, error) {
	src := pinnedSourceAt(tab, epoch)
	if strata <= 1 {
		return []core.StratumArm{core.TableArm(src, tab.Schema(), keyCols, seed)}, nil
	}
	key := cutKey{inst: tab.InstanceID(), columns: strings.Join(keyCols, "\x00"), strata: strata}
	part, err := shareBuild(e, e.partitions, partKey{key, epoch}, &built[*core.Partition]{}, nil,
		func() (*core.Partition, error) {
			_, end := obs.StartSpan(ctx, stageDraw)
			defer end.End()
			e.strataDirBuilds.Add(1)
			cuts, err := e.tableCuts(tab, src, key, keyCols)
			if err != nil {
				return nil, err
			}
			if sp, ok := tab.(catalog.SampleProvider); ok {
				if s, ok := sp.MaintainedSample(1); ok && s.Epoch == epoch {
					return cuts.SampleWeights(s.Arena)
				}
			}
			return cuts.PilotWeights(src)
		})
	if err != nil {
		return nil, err
	}
	return core.RoutedArms(src, part, seed)
}

// armOrigin locates one arm of a request: its shard (-1 on an unsharded
// table) and its index among that table's non-empty strata, which labels
// the rows-per-stratum ledger.
type armOrigin struct {
	shard, stratum int
}

// requestArms resolves a request's full arm set: per stratum for a plain
// table, per shard×stratum cell for a partitioned one (per shard when
// Strata ≤ 1). Each shard stratifies independently (its own boundaries,
// weight pilot, and routed stream at StreamSeed of the request seed), and
// cell weights rescale from within-shard shares to whole-table shares —
// shard shares are exact, so each shard's pilot term scales by its
// squared share (one pilot Group per shard) — and the flat arm set
// composes by the same stratified algebra either way.
func (e *Engine) requestArms(ctx context.Context, req Request, epoch uint64) ([]core.StratumArm, []armOrigin, error) {
	sh, ok := req.Table.(catalog.Sharded)
	if !ok {
		arms, err := e.tableArms(ctx, req.Table, epoch, req.KeyColumns, req.Strata, req.Seed)
		origins := make([]armOrigin, len(arms))
		for i := range origins {
			origins[i] = armOrigin{shard: -1, stratum: i}
		}
		return arms, origins, err
	}
	ns := sh.NumShards()
	epochs := sh.EpochVector()
	counts := make([]int64, ns)
	var total int64
	for s := 0; s < ns; s++ {
		counts[s] = sh.Shard(s).NumRows()
		total += counts[s]
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("table %q is empty", req.Table.Name())
	}
	var arms []core.StratumArm
	var origins []armOrigin
	for s := 0; s < ns; s++ {
		if counts[s] == 0 {
			continue
		}
		sub, err := e.tableArms(ctx, sh.Shard(s), epochs[s], req.KeyColumns, req.Strata, sampling.StreamSeed(req.Seed, s))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		scale := float64(counts[s]) / float64(total)
		for i := range sub {
			sub[i].Weight *= scale
			sub[i].Group = s
			if req.Strata <= 1 {
				sub[i].Label = fmt.Sprintf("shard %d", s)
			} else {
				sub[i].Label = fmt.Sprintf("shard %d/%s", s, sub[i].Label)
			}
			origins = append(origins, armOrigin{shard: s, stratum: i})
		}
		arms = append(arms, sub...)
	}
	return arms, origins, nil
}

// hookArm is the engine's grow hook, the one wrapper around an arm's
// Extend, fixed-r and adaptive alike. Every extension re-checks ctx, so
// an expired deadline stops the loop at the next round boundary, and adds
// its rows to drawn (the arm's sampled rows) and to rows (the
// rows-per-stratum ledger; nil for unstratified asks). A shard arm
// (shard ≥ 0) also passes the engine.scatter[shard] fault point under the
// shard panic trap, retries retryable failures with the fixed scatter's
// capped, jittered backoff (retryBackoff), and under AllowPartial marks a
// persistent failure core.ErrArmDropped: the loop then drops the arm and
// composes the survivors.
func (e *Engine) hookArm(ctx context.Context, req Request, arm *core.StratumArm, shard int, rows *obs.Counter, drawn *int64) {
	extend, seed := arm.Extend, arm.Seed
	attempt := func(round int, extra int64) (ar *value.RecordArena, err error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if shard < 0 {
			return extend(round, extra)
		}
		defer e.trapShardPanic(&err)
		if err := scatterPoint.Check1(uint64(shard)); err != nil {
			return nil, err
		}
		return extend(round, extra)
	}
	arm.Extend = func(round int, extra int64) (*value.RecordArena, error) {
		ar, err := attempt(round, extra)
		if shard >= 0 && retryable(err) {
			e.retryBackoff(ctx, seed, func() int {
				if retryable(err) {
					return 1
				}
				return 0
			}, func() { ar, err = attempt(round, extra) })
			if req.AllowPartial && retryable(err) {
				err = fmt.Errorf("%w: %w", core.ErrArmDropped, err)
			}
		}
		if err != nil {
			return nil, err
		}
		if ar != nil {
			*drawn += int64(ar.Len())
			if rows != nil {
				rows.Add(uint64(ar.Len()))
			}
		}
		return ar, nil
	}
}

// runArms runs one ask through the arm loop: the arm set — a plain
// table's one arm (plainArm; r0g non-nil) or requestArms' shards, strata,
// or cells — each arm's Extend under the grow hook, a proportional
// allocation of r0 rows as round 0, and core.AdaptiveEstimateStratified —
// one round when target is zero (a fixed-r ask), refinement to the target
// otherwise (round 0 doubling as the Neyman pilot). A plain arm on the
// maintained route runs with its budget capped at the reservoir; if that
// loop ends unconverged below the requested budget, a fresh TableArm loop
// reruns with the full budget rather than report a weaker one. A degraded
// outcome — shard arms dropped under AllowPartial — also returns the
// failed shards, ascending, and degradedHalfWidth over the survivors'
// weights and sampled rows. The caller caches only a whole outcome: a
// survivors-only answer must never be served as a whole-table result.
func (e *Engine) runArms(ctx context.Context, req Request, epoch uint64, pageSize int,
	target core.Precision, r0 int64, r0g *round0Group) (res core.AdaptiveResult, failed []int, half float64, err error) {
	var arms []core.StratumArm
	var origins []armOrigin
	budget := target
	if r0g != nil {
		arm, err := e.plainArm(ctx, req, epoch, r0, r0g)
		if err != nil {
			return res, nil, 0, err
		}
		if r0g.maintained {
			budget.MaxSampleRows = min(budget.MaxSampleRows, int64(r0g.snap.Arena.Len()))
		}
		arms, origins = []core.StratumArm{arm}, []armOrigin{{shard: -1}}
	} else {
		if arms, origins, err = e.requestArms(ctx, req, epoch); err != nil {
			return res, nil, 0, fmt.Errorf("stratify: %w", err)
		}
		e.samplesDrawn.Add(1) // the arms' streams are this request's storage draw
	}
	if req.Strata > 0 {
		e.stratified.Add(1)
		e.strataCountHist.Observe(time.Duration(len(arms)))
	}
	var round0, drawn []int64
	run := func(target core.Precision) error {
		drawn = make([]int64, len(arms))
		for i := range arms {
			var rows *obs.Counter
			if req.Strata > 0 {
				rows = e.strataRows.With(strconv.Itoa(origins[i].stratum))
			}
			e.hookArm(ctx, req, &arms[i], origins[i].shard, rows, &drawn[i])
		}
		stage, hist := stageRounds, e.stageRoundsHist
		if target.TargetError == 0 {
			stage, hist = stageCompress, e.stageCompressHist
		}
		round0 = sampling.Allocate(r0, core.ArmRows(arms), nil)
		sctx, end := obs.StartSpan(ctx, stage)
		t0 := time.Now()
		res, err = core.AdaptiveEstimateStratified(arms, round0, target, core.Options{
			Codec: req.Codec, PageSize: pageSize, Seed: req.Seed, Strata: req.Strata,
		})
		wall := time.Since(t0)
		hist.Observe(wall)
		if err == nil {
			// The arms prepared their indexes inside the loop: record that
			// time as the loop's sort stage, capped at its wall time (the
			// sum over parallel arms may exceed it).
			obs.RecordSpan(sctx, stageSort, t0, min(res.PrepDuration, wall))
		}
		end.End()
		if err != nil {
			return err
		}
		e.prepared.Add(uint64(res.Prepared))
		e.prepareNanos.Add(uint64(res.PrepDuration.Nanoseconds()))
		e.sortRows.Add(uint64(res.SortedRows))
		e.stageSortHist.Observe(res.PrepDuration)
		if target.TargetError > 0 {
			e.adaptiveRounds.Add(uint64(res.Rounds))
			e.adaptiveRows.Add(uint64(res.Estimate.SampleRows))
		}
		return nil
	}
	err = run(budget)
	if err == nil && !res.Converged && budget.MaxSampleRows < target.MaxSampleRows {
		// The reservoir ran out below the requested budget: rerun fresh
		// from storage with the full budget.
		e.samplesDrawn.Add(1)
		arms = []core.StratumArm{core.TableArm(pinnedSourceAt(req.Table, epoch), req.Table.Schema(), req.KeyColumns, req.Seed)}
		err = run(target)
	}
	if err != nil {
		return core.AdaptiveResult{}, nil, 0, err
	}
	e.evaluated.Add(1)
	if len(res.Dropped) == 0 {
		return res, nil, 0, nil
	}
	e.degradedResults.Add(1)
	var weights []float64
	var planned, sampled []int64
	for i := range arms {
		if slices.Contains(res.Dropped, i) {
			failed = append(failed, origins[i].shard)
		} else {
			weights = append(weights, arms[i].Weight)
			planned, sampled = append(planned, round0[i]), append(sampled, drawn[i])
		}
	}
	return res, slices.Compact(failed), degradedHalfWidth(weights, planned, sampled), nil
}
