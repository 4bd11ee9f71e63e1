// Stratified estimation through the engine: Request.Strata cuts the key
// domain into contiguous memcomparable ranges and samples each by its own
// stream (internal/core's stratified estimators). The engine's contribution
// is plumbing, not statistics — a per-table-version directory cache (the
// O(n) stratify scan runs once per (instance, epoch, columns, strata), not
// per request), boundary resolution that prefers free sources (an existing
// index's separator keys, then a maintained reservoir's observed keys, then
// the fixed-seed pilot), and composition with shard scatter: a partitioned
// table stratifies within each shard, the shard×stratum cells becoming one
// flat arm set with weights rescaled to the whole table.
//
// Stratified draws are always fresh: the directory indexes physical row
// positions, so per-stratum streams must read the table itself — the
// maintained-sample fast path serves only boundary resolution here.
package engine

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/obs"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// dirKey identifies one cached strata directory: the table version plus
// everything the partition depends on. No seed — boundaries derive from the
// index walk, the reservoir snapshot, or the fixed pilot seed, never the
// request seed, so every request at one table version shares one partition.
type dirKey struct {
	inst    uint64
	epoch   uint64
	columns string // "\x00"-joined key column names
	strata  int
}

// dirEntry is one directory build, shared once-style by every request that
// resolves the same key while the entry is resident.
type dirEntry struct {
	once sync.Once
	dir  *sampling.StrataDirectory
	err  error
}

// strataCache is a fixed-capacity LRU over dirKey. Zero capacity disables
// residency: every call gets a fresh entry (and therefore a fresh build).
type strataCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *dirListEntry
	items    map[dirKey]*list.Element
}

type dirListEntry struct {
	key dirKey
	ent *dirEntry
}

func newStrataCache(capacity int) *strataCache {
	if capacity < 0 {
		capacity = 0
	}
	return &strataCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[dirKey]*list.Element, capacity),
	}
}

// entry returns the resident entry for key, creating (and possibly evicting
// the least-recently-used) one when absent. The caller runs the build under
// the entry's once.
func (c *strataCache) entry(key dirKey) *dirEntry {
	if c.capacity == 0 {
		return &dirEntry{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*dirListEntry).ent
	}
	ent := &dirEntry{}
	c.items[key] = c.order.PushFront(&dirListEntry{key: key, ent: ent})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*dirListEntry).key)
	}
	return ent
}

// resolveBounds picks the cheapest available boundary source for one table:
// an existing ordered index's separator walk (no row access at all), the
// maintained reservoir's observed keys at the matching epoch (no storage
// draw), and only then the fixed-seed pilot sample.
func (e *Engine) resolveBounds(tab Table, epoch uint64, keyCols []string, strata int) ([][]byte, error) {
	if strata <= 1 {
		return nil, nil
	}
	if ib, ok := tab.(catalog.IndexBoundaryProvider); ok {
		if bounds, ok := ib.IndexKeyBoundaries(keyCols, strata); ok {
			return bounds, nil
		}
	}
	if sp, ok := tab.(catalog.SampleProvider); ok {
		if s, ok := sp.MaintainedSample(1); ok && s.Epoch == epoch {
			proj, err := core.ProjectSample(s.Arena, keyCols)
			if err != nil {
				return nil, err
			}
			keys := make([][]byte, proj.Len())
			for i := range keys {
				keys[i] = proj.Key(i)
			}
			return core.EquiDepthFromKeys(keys, strata), nil
		}
	}
	return core.PilotBoundaries(pinnedSourceAt(tab, epoch), tab.Schema(), keyCols, strata)
}

// tableArms builds the per-stratum arms of one catalog table — the whole
// table, or one shard of a partitioned one — resolving the directory through
// the cache and wiring the rows-per-stratum ledger into each arm's draws.
// The directory scan and the arms' draws read the table's snapshot at
// epoch when one is published, so both see the row set the directory
// indexes and read it as records.
func (e *Engine) tableArms(tab Table, epoch uint64, keyCols []string, strata int, seed uint64) ([]core.StratumArm, error) {
	schema := tab.Schema()
	src := pinnedSourceAt(tab, epoch)
	ent := e.strataDirs.entry(dirKey{
		inst: tab.InstanceID(), epoch: epoch,
		columns: strings.Join(keyCols, "\x00"), strata: strata,
	})
	ent.once.Do(func() {
		e.strataDirBuilds.Add(1)
		bounds, err := e.resolveBounds(tab, epoch, keyCols, strata)
		if err != nil {
			ent.err = err
			return
		}
		ent.dir, ent.err = core.StratifyTable(src, schema, keyCols, bounds)
	})
	if ent.err != nil {
		return nil, ent.err
	}
	arms := core.DirectoryArms(src, schema, keyCols, ent.dir, seed)
	for i := range arms {
		e.instrumentArm(&arms[i], i)
	}
	return arms, nil
}

// instrumentArm threads the rows-per-stratum counter through an arm's draw
// closures; stratum is the arm's index among its table's non-empty strata.
func (e *Engine) instrumentArm(arm *core.StratumArm, stratum int) {
	c := e.strataRows.With(strconv.Itoa(stratum))
	draw, ext := arm.Draw, arm.Extend
	arm.Draw = func(r int64) (*value.RecordArena, error) {
		ar, err := draw(r)
		if err == nil && ar != nil {
			c.Add(uint64(ar.Len()))
		}
		return ar, err
	}
	arm.Extend = func(round int, extra int64) (*value.RecordArena, error) {
		ar, err := ext(round, extra)
		if err == nil && ar != nil {
			c.Add(uint64(ar.Len()))
		}
		return ar, err
	}
}

// requestArms resolves a stratified request's full arm set: per stratum for
// a plain table, per shard×stratum cell for a partitioned one. Each shard
// stratifies independently (its own boundaries, directory, and Weyl-derived
// seed lineage shardSeed→StreamSeed), and cell weights rescale from
// within-shard shares to whole-table shares, so the flat arm set composes by
// the same stratified algebra either way.
func (e *Engine) requestArms(req Request, epoch uint64) ([]core.StratumArm, error) {
	if sh, ok := req.Table.(catalog.Sharded); ok {
		ns := sh.NumShards()
		epochs := sh.EpochVector()
		counts := make([]int64, ns)
		var total int64
		for s := 0; s < ns; s++ {
			counts[s] = sh.Shard(s).NumRows()
			total += counts[s]
		}
		if total == 0 {
			return nil, fmt.Errorf("table %q is empty", req.Table.Name())
		}
		var arms []core.StratumArm
		for s := 0; s < ns; s++ {
			if counts[s] == 0 {
				continue
			}
			sub, err := e.tableArms(sh.Shard(s), epochs[s], req.KeyColumns, req.Strata, shardSeed(req.Seed, s))
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			scale := float64(counts[s]) / float64(total)
			for i := range sub {
				sub[i].Weight *= scale
				sub[i].Label = fmt.Sprintf("shard %d/%s", s, sub[i].Label)
			}
			arms = append(arms, sub...)
		}
		return arms, nil
	}
	return e.tableArms(req.Table, epoch, req.KeyColumns, req.Strata, req.Seed)
}

// evaluateStratified runs one fixed-r stratified request on a pool worker:
// resolve the arms, allocate r proportionally across them, run the
// per-stratum draws (core.EstimateStratified bounds its own fan-out), and
// cache the merged estimate under the request-level key.
func (e *Engine) evaluateStratified(ctx context.Context, it *batchItem) Result {
	req := it.req
	e.stratified.Add(1)
	arms, err := e.requestArms(req, it.key.epoch)
	if err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: stratify: %w", it.idx, err)}
	}
	e.strataCountHist.Observe(time.Duration(len(arms)))
	r := req.SampleRows
	if r <= 0 {
		r = sampling.SampleSize(req.Table.NumRows(), req.Fraction)
	}
	counts := make([]int64, len(arms))
	for i := range arms {
		counts[i] = arms[i].Rows
	}
	alloc := sampling.Allocate(r, counts, nil)
	e.samplesDrawn.Add(1)
	_, end := obs.StartSpan(ctx, stageCompress)
	t0 := time.Now()
	est, err := core.EstimateStratified(arms, alloc, core.Options{
		Codec: req.Codec, PageSize: it.key.pageSize, Seed: req.Seed, Strata: req.Strata,
	})
	e.stageCompressHist.Observe(time.Since(t0))
	end.End()
	if err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, err)}
	}
	e.evaluated.Add(1)
	if ev := e.cache.Put(it.key, est); ev > 0 {
		e.evictions.Add(uint64(ev))
	}
	return Result{Estimate: est}
}

// runStratifiedAdaptive is the precision-targeted stratified loop: arms from
// the directory cache, proportional round-0 allocation (doubling as the
// Neyman pilot), then core.AdaptiveEstimateStratified's dominance-routed
// refinement. The achieved precision publishes to the dominance cache under
// the strata-scoped precision key.
func (e *Engine) runStratifiedAdaptive(ctx context.Context, req Request, pkey precisionKey) (core.AdaptiveResult, error) {
	pageSize := req.PageSize
	if pageSize == 0 {
		pageSize = e.cfg.PageSize
	}
	e.stratified.Add(1)
	arms, err := e.requestArms(req, pkey.epoch)
	if err != nil {
		return core.AdaptiveResult{}, fmt.Errorf("stratify: %w", err)
	}
	e.strataCountHist.Observe(time.Duration(len(arms)))
	// Re-check ctx at every arm extension, so an expired deadline stops the
	// loop at the next round boundary instead of running the budget out.
	for i := range arms {
		ext := arms[i].Extend
		arms[i].Extend = func(round int, extra int64) (*value.RecordArena, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return ext(round, extra)
		}
	}
	target := core.Precision{
		TargetError:   req.TargetError,
		Confidence:    req.Confidence,
		MaxSampleRows: req.MaxSampleRows,
	}
	if target.MaxSampleRows == 0 {
		target.MaxSampleRows = req.Table.NumRows()
	}
	counts := make([]int64, len(arms))
	for i := range arms {
		counts[i] = arms[i].Rows
	}
	round0 := sampling.Allocate(initialAdaptiveRows(req), counts, nil)
	e.samplesDrawn.Add(1)
	_, endRounds := obs.StartSpan(ctx, stageRounds)
	t0 := time.Now()
	res, err := core.AdaptiveEstimateStratified(arms, round0, target, core.Options{
		Codec: req.Codec, PageSize: pageSize, Seed: req.Seed, Strata: req.Strata,
	})
	e.stageRoundsHist.Observe(time.Since(t0))
	endRounds.End()
	if err != nil {
		return core.AdaptiveResult{}, err
	}
	e.adaptiveRounds.Add(uint64(res.Rounds))
	e.adaptiveRows.Add(uint64(res.Estimate.SampleRows))
	e.evaluated.Add(1)
	e.precision.Put(pkey, res.Estimate, res.AchievedError/zFor(req.Confidence), res.Rounds, res.Estimate.SampleRows)
	return res, nil
}
