// Stratified estimation: SampleCF with the key domain cut into contiguous
// memcomparable-key ranges, each range sampled by its own stream. Uniform
// sampling of a skewed table spends most rows re-observing the hot part of
// the domain; stratifying removes the between-strata variance component,
// and Neyman allocation (n_h ∝ N_h·σ_h) spends the refinement rows where
// the residual within-stratum spread is. The mechanics live in
// internal/sampling (boundaries, directory, per-stratum resumable streams);
// this file owns composition — weights, merged estimates, the composed
// confidence interval z·√(Σ w_h²σ_h²) — and the precision-targeted loop
// that extends only the strata whose variance contribution dominates, the
// same refinement discipline the engine's shard scatter uses.
//
// A note on what stratification can and cannot buy: Theorem 1's bound is
// data-independent — composed across strata at proportional allocation it
// reproduces 1/(2√R) exactly — so null-suppression codecs see no CI
// improvement from strata. The win is for bootstrap-CI codecs on skewed
// data, where within-stratum samples are more homogeneous than the table.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// IndexBoundarySource is the index-assisted stratification capability,
// structural so core never imports the storage layer (catalog declares the
// canonical copy; db.Table implements it): an existing ordered index over
// the key columns yields equi-depth cut points from a walk of its separator
// keys, with no table scan.
type IndexBoundarySource interface {
	IndexKeyBoundaries(keyCols []string, strata int) (bounds [][]byte, ok bool)
}

// pilotSeed fixes the boundary pilot's draw stream. Boundaries must depend
// only on (table, key columns, strata count) — never the request seed — so
// repeated requests agree on one partition and directory caches need no
// seed in their key.
const pilotSeed uint64 = 0x70696c6f74 // "pilot"

// pilotRows is the boundary pilot's sample size: enough that the empirical
// key quantiles are stable at the handful-of-strata granularity requests
// use, small enough to be noise next to any real estimation sample.
const pilotRows int64 = 1024

// StratumBoundaries resolves up to strata-1 ascending boundary keys for the
// index on keyCols: from an existing index's separator walk when src offers
// one (IndexBoundarySource), from a fixed-seed pilot sample's empirical
// quantiles otherwise. strata ≤ 1 is the degenerate single stratum — nil
// boundaries, no pilot drawn.
func StratumBoundaries(src sampling.RowSource, schema *value.Schema, keyCols []string, strata int) ([][]byte, error) {
	if strata <= 1 {
		return nil, nil
	}
	if ib, ok := src.(IndexBoundarySource); ok {
		if bounds, ok := ib.IndexKeyBoundaries(keyCols, strata); ok {
			return bounds, nil
		}
	}
	return PilotBoundaries(src, schema, keyCols, strata)
}

// PilotBoundaries draws the fixed-seed pilot sample and cuts its sorted
// keys at equi-depth ranks.
func PilotBoundaries(src sampling.RowSource, schema *value.Schema, keyCols []string, strata int) ([][]byte, error) {
	if src.NumRows() == 0 {
		return nil, fmt.Errorf("core: source table is empty")
	}
	full := value.NewRecordArena(schema, int(pilotRows))
	if err := sampling.UniformWRInto(src, pilotRows, rng.New(pilotSeed), full); err != nil {
		return nil, fmt.Errorf("core: boundary pilot: %w", err)
	}
	proj, err := ProjectSample(full, keyCols)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, proj.Len())
	for i := range keys {
		keys[i] = proj.Key(i)
	}
	return EquiDepthFromKeys(keys, strata), nil
}

// EquiDepthFromKeys derives up to strata-1 boundaries from any observed key
// sample — a pilot draw or a maintained reservoir snapshot. The input is
// not mutated.
func EquiDepthFromKeys(keys [][]byte, strata int) [][]byte {
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	return sampling.EquiDepthBoundaries(len(sorted), strata, func(i int) []byte { return sorted[i] })
}

// StratifyTable buckets src's rows by key range under the index projection:
// the one O(n) scan a stratified estimation needs (the engine caches the
// result per table version). Keys are projected out of the source's
// records; no row is decoded when src has a record store.
func StratifyTable(src sampling.RowSource, schema *value.Schema, keyCols []string, bounds [][]byte) (*sampling.StrataDirectory, error) {
	_, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return nil, err
	}
	ks, err := sampling.NewKeyStrata(bounds)
	if err != nil {
		return nil, err
	}
	proj, err := value.NewProjection(schema, project)
	if err != nil {
		return nil, err
	}
	return sampling.BuildStrataDirectory(src, schema, ks, proj.AppendKey)
}

// StratumArm is one stratum's sampling stream in a stratified estimation —
// or one shard×stratum cell's, when stratification composes with a shard
// scatter. Draw serves the fixed-size path (one-shot, the arm's base
// stream); Extend serves the adaptive path (resumable rounds, round 0
// included). Both return rows already projected to the index key schema.
type StratumArm struct {
	// Label names the arm in errors ("stratum 3", "shard 1/stratum 2").
	Label string
	// Weight is the arm's population share N_h/N.
	Weight float64
	// Rows is the arm's population size N_h.
	Rows int64
	// Seed is the arm's stream seed (sampling.StreamSeed of the request
	// seed); it also decorrelates the arm's bootstrap resamples.
	Seed uint64
	// Draw returns a one-shot sample of r rows (fixed-size path).
	Draw func(r int64) (*value.RecordArena, error)
	// Extend returns round `round` of the arm's resumable stream
	// (adaptive path).
	Extend ExtendFunc
}

// MergeStratified composes per-stratum estimates into one whole-table
// estimate per the sampling algebra: CF is the weight-composed stratified
// mean, counts and byte totals sum, frequency profiles merge, and stage
// durations take the max (the arms ran in parallel). A single stratum
// passes through verbatim — the degenerate estimate is byte-identical to
// its one arm's, compressed pages (Result.Encoded) included.
func MergeStratified(weights []float64, ests []Estimate) Estimate {
	if len(ests) == 1 {
		return ests[0]
	}
	strata := make([]stats.Stratum, len(ests))
	var out Estimate
	f := make(map[int64]int64)
	for i, est := range ests {
		strata[i] = stats.Stratum{Weight: weights[i], Mean: est.CF}
		out.SampleRows += est.SampleRows
		// SampleDistinct and the merged profile sum per-stratum distincts:
		// exact for range strata on the key domain (a key belongs to one
		// stratum), an upper bound when arms overlap in key space.
		out.SampleDistinct += est.SampleDistinct
		out.Profile.N += est.Profile.N
		out.Profile.R += est.Profile.R
		out.Profile.D += est.Profile.D
		for k, v := range est.Profile.F {
			f[k] += v
		}
		out.Result.UncompressedBytes += est.Result.UncompressedBytes
		out.Result.CompressedBytes += est.Result.CompressedBytes
		out.Result.Rows += est.Result.Rows
		out.Result.Pages += est.Result.Pages
		out.Result.DictEntries += est.Result.DictEntries
		if est.SampleDuration > out.SampleDuration {
			out.SampleDuration = est.SampleDuration
		}
		if est.BuildDuration > out.BuildDuration {
			out.BuildDuration = est.BuildDuration
		}
		if est.CompressDuration > out.CompressDuration {
			out.CompressDuration = est.CompressDuration
		}
	}
	out.Profile.F = f
	out.CF = stats.StratifiedMean(strata)
	return out
}

// EstimateStratified runs the fixed-size stratified estimator: each arm
// draws its allocated rows, prepares and compresses independently (bounded
// fan-out over the workgroup semaphore), and the per-arm estimates merge by
// stratified composition.
func EstimateStratified(arms []StratumArm, alloc []int64, opts Options) (Estimate, error) {
	if err := opts.Validate(); err != nil {
		return Estimate{}, err
	}
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return Estimate{}, fmt.Errorf("core: Options.Codec is required")
	}
	if len(arms) == 0 {
		return Estimate{}, fmt.Errorf("core: stratified estimation needs at least one stratum")
	}
	if len(alloc) != len(arms) {
		return Estimate{}, fmt.Errorf("core: %d allocations for %d strata", len(alloc), len(arms))
	}
	ests := make([]Estimate, len(arms))
	errs := make([]error, len(arms))
	eval := func(i int) {
		t0 := time.Now()
		ar, err := arms[i].Draw(alloc[i])
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", arms[i].Label, err)
			return
		}
		sampleDur := time.Since(t0)
		prep, err := PrepareFromArena(ar, arms[i].Rows, nil)
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", arms[i].Label, err)
			return
		}
		armOpts := opts
		armOpts.Seed = arms[i].Seed
		est, err := prep.Estimate(armOpts)
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", arms[i].Label, err)
			return
		}
		est.SampleDuration = sampleDur
		ests[i] = est
	}
	sem := workgroup.NewSem(workgroup.Limit(len(arms)) - 1)
	var wg sync.WaitGroup
	for i := range arms {
		if sem.TryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer sem.Release()
				defer workgroup.Recover(&errs[i])
				eval(i)
			}(i)
		} else {
			eval(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Estimate{}, err
		}
	}
	weights := make([]float64, len(arms))
	for i := range arms {
		weights[i] = arms[i].Weight
	}
	return MergeStratified(weights, ests), nil
}

// armLoop is one arm's state in a stratified adaptive estimation: its own
// resumable stream, prepared index, and current (estimate, SD) pair.
type armLoop struct {
	arm    *StratumArm
	prep   *PreparedIndex
	round  int // next draw round in this arm's stream
	est    Estimate
	sd     float64
	method string
	dirty  bool // est/sd stale after an extension
	err    error
}

// AdaptiveEstimateStratified is the precision-targeted loop over stratified
// arms: per-arm resumable streams, per-arm CI scales composed by stratified
// variance (half-width z·√(Σ w_h²σ_h²)), and — the part that makes
// stratification pay — extensions routed only to the arms whose variance
// contribution (w_h·σ_h)² dominates the composed variance (within 2× of the
// largest, always including the argmax), the refinement discipline of the
// engine's sharded adaptive loop. Round 0 is allocated by the caller
// (proportional: it doubles as the pilot); later rounds double the chosen
// arms' total and split it by Neyman allocation over the pilot-observed
// σ_h, so rows land where population mass times spread is.
func AdaptiveEstimateStratified(arms []StratumArm, round0 []int64, target Precision, opts Options) (AdaptiveResult, error) {
	if err := target.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	target = target.withDefaults()
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return AdaptiveResult{}, fmt.Errorf("core: Options.Codec is required")
	}
	if len(arms) == 0 {
		return AdaptiveResult{}, fmt.Errorf("core: stratified estimation needs at least one stratum")
	}
	if len(round0) != len(arms) {
		return AdaptiveResult{}, fmt.Errorf("core: %d allocations for %d strata", len(round0), len(arms))
	}
	z := stats.NormalQuantile(1 - (1-target.Confidence)/2)

	loops := make([]*armLoop, len(arms))
	for i := range arms {
		loops[i] = &armLoop{arm: &arms[i], dirty: true}
	}

	// grow draws extra rows from one arm's resumable stream and folds them
	// into its prepared index (the first call prepares).
	grow := func(l *armLoop, extra int64) error {
		proj, err := l.arm.Extend(l.round, extra)
		if err != nil {
			return err
		}
		if proj == nil || proj.Len() == 0 {
			return fmt.Errorf("extension supplied no rows")
		}
		l.round++
		l.dirty = true
		if l.prep == nil {
			l.prep, err = PrepareFromArena(proj, l.arm.Rows, nil)
			return err
		}
		return l.prep.ExtendFromArena(proj)
	}

	// scatter fans grow calls across the bounded workgroup semaphore (never
	// an engine pool — callers may already run on a pool worker).
	scatter := func(targets []*armLoop, extras []int64) error {
		sem := workgroup.NewSem(workgroup.Limit(len(targets)) - 1)
		var wg sync.WaitGroup
		for i, l := range targets {
			extra := extras[i]
			if sem.TryAcquire() {
				wg.Add(1)
				go func(l *armLoop) {
					defer wg.Done()
					defer sem.Release()
					defer workgroup.Recover(&l.err)
					l.err = grow(l, extra)
				}(l)
			} else {
				l.err = grow(l, extra)
			}
		}
		wg.Wait()
		for _, l := range targets {
			if l.err != nil {
				return fmt.Errorf("core: %s: %w", l.arm.Label, l.err)
			}
		}
		return nil
	}

	if err := scatter(loops, round0); err != nil {
		return AdaptiveResult{}, err
	}

	res := AdaptiveResult{}
	var cf, half float64
	for {
		strata := make([]stats.Stratum, len(loops))
		for i, l := range loops {
			if l.dirty {
				armOpts := opts
				armOpts.Seed = l.arm.Seed
				est, err := l.prep.Estimate(armOpts)
				if err != nil {
					return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
				}
				method, sd, err := l.prep.SDScale(armOpts, target, l.round)
				if err != nil {
					return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
				}
				l.est, l.method, l.sd, l.dirty = est, method, sd, false
			}
			strata[i] = stats.Stratum{Weight: l.arm.Weight, Mean: l.est.CF, SD: l.sd}
		}
		res.Rounds++
		res.Method = loops[0].method
		cf = stats.StratifiedMean(strata)
		half = z * stats.StratifiedSD(strata)
		if half <= target.TargetError {
			res.Converged = true
			break
		}
		var rows int64
		for _, l := range loops {
			rows += l.prep.SampleRows()
		}
		if target.MaxSampleRows > 0 && rows >= target.MaxSampleRows {
			break // budget exhausted: honest non-convergence
		}
		// Choose the arms whose variance contribution dominates, double
		// their cumulative sample, and split the new rows by Neyman
		// allocation across the chosen arms.
		var maxC float64
		for _, l := range loops {
			if c := l.arm.Weight * l.sd * l.arm.Weight * l.sd; c > maxC {
				maxC = c
			}
		}
		var chosen []*armLoop
		var counts []int64
		var sigmas []float64
		var want int64
		for _, l := range loops {
			if c := l.arm.Weight * l.sd * l.arm.Weight * l.sd; c >= maxC/2 {
				chosen = append(chosen, l)
				counts = append(counts, l.arm.Rows)
				sigmas = append(sigmas, l.sd)
				want += l.prep.SampleRows()
			}
		}
		extras := sampling.NeymanAllocate(want, counts, sigmas)
		if remaining := target.MaxSampleRows - rows; target.MaxSampleRows > 0 && want > remaining {
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
		if err := scatter(chosen, extras); err != nil {
			return AdaptiveResult{}, err
		}
	}

	weights := make([]float64, len(loops))
	ests := make([]Estimate, len(loops))
	for i, l := range loops {
		weights[i] = l.arm.Weight
		ests[i] = l.est
	}
	res.Estimate = MergeStratified(weights, ests)
	res.AchievedError = half
	res.CILo, res.CIHi = clamp01(cf-half), clamp01(cf+half)
	return res, nil
}

// DirectoryArms builds one StratumArm per non-empty stratum of a directory
// with per-stratum Weyl-derived stream seeds — the engine's entry point to
// arm construction. Allocations are the caller's concern: align them with
// the returned arms' Rows (sampling.Allocate over that slice).
func DirectoryArms(src sampling.RowSource, schema *value.Schema, keyCols []string,
	dir *sampling.StrataDirectory, seed uint64) []StratumArm {
	arms, _ := directoryArms(src, schema, keyCols, dir, seed, make([]int64, len(dir.Counts())))
	return arms
}

// directoryArms builds one StratumArm per non-empty stratum of a directory,
// with per-stratum Weyl-derived stream seeds (stratum 0 keeps the base
// seed) and both draw shapes wired: the one-shot Draw uses the arm's base
// stream — so a single identity stratum replays UniformWRInto exactly —
// and Extend derives round streams like the package-level resumable draws.
// The returned allocation is aligned with the arms (empty strata dropped).
func directoryArms(src sampling.RowSource, schema *value.Schema, keyCols []string,
	dir *sampling.StrataDirectory, seed uint64, alloc []int64) ([]StratumArm, []int64) {
	counts := dir.Counts()
	n := dir.NumRows()
	arms := make([]StratumArm, 0, len(counts))
	armAlloc := make([]int64, 0, len(counts))
	for h := range counts {
		if counts[h] == 0 {
			continue
		}
		h := h
		armSeed := sampling.StreamSeed(seed, h)
		arms = append(arms, StratumArm{
			Label:  fmt.Sprintf("stratum %d", h),
			Weight: float64(counts[h]) / float64(n),
			Rows:   counts[h],
			Seed:   armSeed,
			Draw: func(r int64) (*value.RecordArena, error) {
				full := value.NewRecordArena(schema, int(r))
				if err := dir.WRInto(src, h, r, rng.New(armSeed), full); err != nil {
					return nil, err
				}
				return ProjectSample(full, keyCols)
			},
			Extend: func(round int, extra int64) (*value.RecordArena, error) {
				full := value.NewRecordArena(schema, int(extra))
				if err := dir.ExtendWRInto(src, h, full, extra, armSeed, round); err != nil {
					return nil, err
				}
				return ProjectSample(full, keyCols)
			},
		})
		armAlloc = append(armAlloc, alloc[h])
	}
	return arms, armAlloc
}

// sampleCFStratified is SampleCF's fixed-size stratified route: resolve
// boundaries (index-assisted or pilot), build the directory, allocate r
// proportionally, and run the per-stratum draws.
func sampleCFStratified(src sampling.RowSource, schema *value.Schema, opts Options, r int64) (Estimate, error) {
	t0 := time.Now()
	bounds, err := StratumBoundaries(src, schema, opts.KeyColumns, opts.Strata)
	if err != nil {
		return Estimate{}, err
	}
	dir, err := StratifyTable(src, schema, opts.KeyColumns, bounds)
	if err != nil {
		return Estimate{}, err
	}
	alloc := sampling.Allocate(r, dir.Counts(), nil)
	arms, armAlloc := directoryArms(src, schema, opts.KeyColumns, dir, opts.Seed, alloc)
	dirDur := time.Since(t0)
	est, err := EstimateStratified(arms, armAlloc, opts)
	if err != nil {
		return Estimate{}, err
	}
	est.SampleDuration += dirDur
	return est, nil
}

// sampleCFAdaptiveStratified is SampleCFAdaptive's stratified route: same
// boundary/directory resolution, proportional round-0 allocation (the
// pilot), then the Neyman-refined adaptive loop.
func sampleCFAdaptiveStratified(src sampling.RowSource, schema *value.Schema,
	opts Options, target Precision, r0 int64) (AdaptiveResult, error) {
	bounds, err := StratumBoundaries(src, schema, opts.KeyColumns, opts.Strata)
	if err != nil {
		return AdaptiveResult{}, err
	}
	dir, err := StratifyTable(src, schema, opts.KeyColumns, bounds)
	if err != nil {
		return AdaptiveResult{}, err
	}
	alloc := sampling.Allocate(r0, dir.Counts(), nil)
	arms, round0 := directoryArms(src, schema, opts.KeyColumns, dir, opts.Seed, alloc)
	return AdaptiveEstimateStratified(arms, round0, target, opts)
}
