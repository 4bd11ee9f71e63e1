// Stratified estimation: SampleCF with the key domain cut into contiguous
// memcomparable-key ranges, each range sampled by its own stream. Uniform
// sampling of a skewed table spends most rows re-observing the hot part of
// the domain; stratifying removes the between-strata variance component,
// and Neyman allocation (n_h ∝ N_h·σ_h) spends the refinement rows where
// the residual within-stratum spread is. The mechanics live in
// internal/sampling (boundaries, the Router that splits one uniform stream
// into per-stratum queues); this file owns the partition, composition —
// merged estimates, the composed confidence interval z·√(Σ w_h²σ_h² +
// pilot term) — and the arm loop, which extends only the strata whose
// variance contribution dominates. A partition has two parts that change
// at different rates: Cuts, a key domain's cut points (an index walk or a
// fixed-seed boundary pilot), which stay valid for every version of a
// table, and weights ŵ_h = m_h/m, counted per version from a uniform
// sample — a maintained reservoir's records (SampleWeights) or a
// fixed-seed weight pilot (PilotWeights) — never from the rows that cut.
// A fixed-size ask is the loop's round 0 with no target: one fan-out, no
// refinement, no CI. The loop is the only adaptive loop: an unstratified
// table is its one-stratum case, a single TableArm, and the engine runs a
// partitioned table's shards through it as arms. Strata ≤ 1 is no
// stratification: SampleCF takes its plain route, SampleCFAdaptive runs
// the loop over one TableArm.
//
// A note on what stratification can and cannot buy: Theorem 1's bound is
// data-independent — composed across strata at proportional allocation it
// reproduces 1/(2√R) exactly — so null-suppression codecs see no CI
// improvement from strata. The win is for bootstrap-CI codecs on skewed
// data, where within-stratum samples are more homogeneous than the table.
package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
// repeated requests agree on one partition and partition caches need no
// seed in their key.
const pilotSeed uint64 = 0x70696c6f74 // "pilot"

// pilotRows is the boundary pilot's sample size: enough that the empirical
// key quantiles are stable at the handful-of-strata granularity requests
// use, small enough to be noise next to any real estimation sample.
const pilotRows int64 = 1024

// StratumBoundaries resolves up to strata-1 ascending boundary keys for the
// index on keyCols: from ib's separator walk when ib is non-nil and has an
// index on keyCols, from a fixed-seed pilot sample of src's rows otherwise.
// The index and the pilot's rows come from separate arguments, so a caller
// can walk the table's index and pilot a pinned snapshot of it. strata ≤ 1
// is the degenerate single stratum — nil boundaries, no pilot drawn.
func StratumBoundaries(ib IndexBoundarySource, src sampling.RowSource, schema *value.Schema, keyCols []string, strata int) ([][]byte, error) {
	if strata <= 1 {
		return nil, nil
	}
	if ib != nil {
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
// sample, such as the boundary pilot's draw. The input is not mutated.
func EquiDepthFromKeys(keys [][]byte, strata int) [][]byte {
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	return sampling.EquiDepthBoundaries(len(sorted), strata, func(i int) []byte { return sorted[i] })
}

// weightPilotSeed fixes the weight pilot's stream. It differs from
// pilotSeed, so the rows that placed the cut points are not the rows that
// weigh the strata between them.
const weightPilotSeed uint64 = 0x776569676874 // "weight"

// weightPilotRows is the weight pilot's size m. Each ŵ_h = m_h/m has a
// standard error of at most 1/(2√m), about half a point, and the pilot
// routes 8192 rows — a few milliseconds, once per table version.
const weightPilotRows int64 = 8192

// Cuts is one key domain cut into strata: the key-range strata and the key
// projection that places a record among them. Cuts carry no weights, so
// one Cuts serves every version of a table: any fixed cut points give an
// unbiased stratified estimate once each version's weights are right.
type Cuts struct {
	strata  *sampling.KeyStrata
	keyOf   func(buf, rec []byte) []byte
	schema  *value.Schema
	keyCols []string
}

// NewCuts returns the strata that bounds cut keyCols' key domain into,
// for records under schema.
func NewCuts(schema *value.Schema, keyCols []string, bounds [][]byte) (*Cuts, error) {
	ks, err := sampling.NewKeyStrata(bounds)
	if err != nil {
		return nil, err
	}
	_, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return nil, err
	}
	proj, err := value.NewProjection(schema, project)
	if err != nil {
		return nil, err
	}
	return &Cuts{strata: ks, keyOf: proj.AppendKey, schema: schema, keyCols: keyCols}, nil
}

// Boundaries returns the cut points (aliased, not copied).
func (c *Cuts) Boundaries() [][]byte { return c.strata.Boundaries() }

// Partition is one table version's stratification: the Cuts, and each
// stratum's count m_h in a uniform sample of m rows of that version, so
// ŵ_h = m_h/m. It holds O(H) state and no row positions.
type Partition struct {
	cuts   *Cuts
	counts []int64
	m      int64
}

// PilotWeights weighs c's strata on src: it routes weightPilotRows rows of
// a fixed-seed uniform stream and counts them per stratum. A single
// stratum needs no pilot.
func (c *Cuts) PilotWeights(src sampling.RowSource) (*Partition, error) {
	p := &Partition{cuts: c, counts: []int64{weightPilotRows}, m: weightPilotRows}
	if c.strata.NumStrata() == 1 {
		return p, nil
	}
	r, err := sampling.NewRouter(src, c.schema, c.strata, c.keyOf, weightPilotSeed)
	if err != nil {
		return nil, err
	}
	if p.counts, err = r.Tally(weightPilotRows); err != nil {
		return nil, fmt.Errorf("core: weight pilot: %w", err)
	}
	return p, nil
}

// SampleWeights weighs c's strata by the records of sample, a uniform
// sample of the table version the weights are for (a maintained
// reservoir): m = sample.Len() key projections, no storage draw. sample is
// only read.
func (c *Cuts) SampleWeights(sample *value.RecordArena) (*Partition, error) {
	m := sample.Len()
	if m == 0 {
		return nil, fmt.Errorf("core: weight sample is empty")
	}
	counts := make([]int64, c.strata.NumStrata())
	var key []byte
	for i := 0; i < m; i++ {
		key = c.keyOf(key[:0], sample.Rec(i))
		counts[c.strata.StratumOf(key)]++
	}
	return &Partition{cuts: c, counts: counts, m: int64(m)}, nil
}

// Cuts returns the partition's cut points.
func (p *Partition) Cuts() *Cuts { return p.cuts }

// Counts returns each stratum's count m_h in the weight sample (aliased,
// not copied); they sum to the sample's size m.
func (p *Partition) Counts() []int64 { return p.counts }

// RoutedArms builds the arms of one partitioned table: one Router at seed
// feeds one StratumArm per stratum the weight sample saw. A stratum the
// sample never saw is dropped with weight 0. Arm h's seed is
// sampling.StreamSeed(seed, h); each Extend takes the next rows of its
// queue, and one call searches at most routeScan(extra, m_h, m) stream
// rows. A single-stratum partition is TableArm: no router, no pilot.
func RoutedArms(src sampling.RowSource, p *Partition, seed uint64) ([]StratumArm, error) {
	c := p.cuts
	if c.strata.NumStrata() == 1 {
		return []StratumArm{TableArm(src, c.schema, c.keyCols, seed)}, nil
	}
	r, err := sampling.NewRouter(src, c.schema, c.strata, c.keyOf, seed)
	if err != nil {
		return nil, err
	}
	n := src.NumRows()
	arms := make([]StratumArm, 0, len(p.counts))
	for h, mh := range p.counts {
		if mh == 0 {
			continue
		}
		arms = append(arms, StratumArm{
			Label:  fmt.Sprintf("stratum %d", h),
			Weight: float64(mh) / float64(p.m),
			Pilot:  p.m,
			Rows:   max(1, int64(math.Round(float64(n)*float64(mh)/float64(p.m)))),
			Seed:   sampling.StreamSeed(seed, h),
			Extend: func(_ int, extra int64) (*value.RecordArena, error) {
				full := value.NewRecordArena(c.schema, int(extra))
				if err := r.ExtendInto(h, full, extra, routeScan(extra, mh, p.m)); err != nil {
					return nil, err
				}
				return ProjectSample(full, c.keyCols)
			},
		})
	}
	return arms, nil
}

// routeScan caps the stream rows one take of extra rows may search:
// 16·⌈extra·m/m_h⌉, sixteen times the draws the stratum's estimated weight
// predicts. A stratum much rarer than its weight sample suggests then
// returns short instead of drawing without bound.
func routeScan(extra, mh, m int64) int64 {
	return 16 * ((extra*m + mh - 1) / mh)
}

// StratumArm is one stratum's sampling stream in a stratified estimation —
// or one shard×stratum cell's, when stratification composes with a shard
// scatter. Its Extend serves every round, round 0 included, fixed-size
// and adaptive asks alike, with rows already projected to the index key
// schema.
type StratumArm struct {
	// Label names the arm in errors ("stratum 3", "shard 1/stratum 2").
	Label string
	// Weight is the arm's population share N_h/N, or its estimate from a
	// pilot (Pilot > 0).
	Weight float64
	// Pilot is the size m of the uniform weight sample that estimated
	// Weight (ŵ_h = m_h/m, times the shard's exact share on a partitioned
	// table); 0 when Weight is exact. Arms whose weights one sample
	// estimated share a Group, and the composed variance gains that
	// sample's term (stats.PilotWeightVariance). A Group's arms are
	// consecutive in an arm set and share Pilot: each table or shard
	// appends its arms as one run, and dropping arms keeps the order.
	Pilot int64
	Group int
	// Rows is the arm's population size N_h (estimated as ŵ_h·N when
	// Pilot > 0).
	Rows int64
	// Seed is the arm's stream seed (sampling.StreamSeed of the request
	// seed); it also decorrelates the arm's bootstrap resamples.
	Seed uint64
	// Extend returns round `round` of the arm's resumable stream.
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

// ErrArmDropped marks an arm failure the arm's own Extend declares
// survivable: AdaptiveEstimateStratified drops that arm, composes the
// survivors (the stratified algebra renormalizes their weights through
// Σw), and reports the arm in AdaptiveResult.Dropped. Any other Extend
// error fails the loop.
var ErrArmDropped = errors.New("core: arm dropped")

// armLoop is one arm's state in a stratified adaptive estimation: its own
// resumable stream, prepared index, and current (estimate, SD) pair.
type armLoop struct {
	idx    int // position in the caller's arm slice
	arm    *StratumArm
	prep   *PreparedIndex
	round  int           // next draw round in this arm's stream
	drawn  time.Duration // time spent in Extend, reported as SampleDuration
	est    Estimate
	sd     float64
	method string
	dirty  bool // est/sd stale after an extension
	err    error
}

// contribution is the arm's share (w_h·σ_h)² of the composed variance.
func (l *armLoop) contribution() float64 {
	return l.arm.Weight * l.sd * l.arm.Weight * l.sd
}

// AdaptiveEstimateStratified is the precision-targeted loop over stratified
// arms — key-range strata, shards, or shard×stratum cells alike: per-arm
// resumable streams, per-arm CI scales composed by stratified variance
// (half-width z·√(Σ w_h²σ_h²)), and — the part that makes stratification
// pay — extensions routed only to the arms whose variance contribution
// (w_h·σ_h)² dominates the composed variance (within 2× of the largest,
// always including the argmax). Round 0 is allocated by the caller
// (proportional: it doubles as the pilot); later rounds double the chosen
// arms' total and split it by Neyman allocation over the pilot-observed
// σ_h, so rows land where population mass times spread is. Near the row
// budget the extension shrinks to what is left, and when fewer rows are
// left than arms were chosen, only the largest contributors draw one row
// each: no round takes the total past target.MaxSampleRows unless round 0
// already did.
//
// For Theorem-1 codecs a round also plans at least the bound-implied total
// ⌈(z/2ε)²⌉ rows: by Cauchy–Schwarz no allocation reaches the target with
// fewer, so the jump never overshoots, and on a single arm it is the
// unstratified loop's jump straight to the needed r.
//
// A zero target.TargetError is a fixed-size ask: the loop runs round 0
// alone and merges the arms' estimates, with no CI (no SDScale, so no
// bootstrap), no convergence and no refinement. The result carries
// Estimate, Rounds = 1 and Dropped.
//
// An arm whose Extend fails with ErrArmDropped leaves the loop; the
// result composes the survivors and lists the dropped arms. The loop fails
// when every arm is dropped.
func AdaptiveEstimateStratified(arms []StratumArm, round0 []int64, target Precision, opts Options) (AdaptiveResult, error) {
	fixed := target.TargetError == 0
	if !fixed {
		if err := target.Validate(); err != nil {
			return AdaptiveResult{}, err
		}
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
		loops[i] = &armLoop{idx: i, arm: &arms[i], dirty: true}
	}
	all := slices.Clone(loops) // loops loses the arms it drops
	res := AdaptiveResult{}

	// grow draws extra rows from one arm's resumable stream and folds them
	// into its prepared index (the first call prepares).
	grow := func(l *armLoop, extra int64) error {
		t0 := time.Now()
		proj, err := l.arm.Extend(l.round, extra)
		l.drawn += time.Since(t0)
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
	// an engine pool — callers may already run on a pool worker), then
	// drops the arms whose Extend gave them up.
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
		var dropped []error
		for _, l := range targets {
			if l.err == nil {
				continue
			}
			err := fmt.Errorf("core: %s: %w", l.arm.Label, l.err)
			if !errors.Is(l.err, ErrArmDropped) {
				return err
			}
			dropped = append(dropped, err)
		}
		if len(dropped) == 0 {
			return nil
		}
		live := loops[:0]
		for _, l := range loops {
			if l.err != nil {
				res.Dropped = append(res.Dropped, l.idx)
			} else {
				live = append(live, l)
			}
		}
		loops = live
		if len(loops) == 0 {
			return errors.Join(dropped...)
		}
		return nil
	}

	if err := scatter(loops, round0); err != nil {
		return AdaptiveResult{}, err
	}

	var cf, half float64
	var plan planner
	strata := make([]stats.Stratum, len(loops))
	for {
		strata = strata[:len(loops)]
		for i, l := range loops {
			if l.dirty {
				armOpts := opts
				armOpts.Seed = l.arm.Seed
				est, err := l.prep.Estimate(armOpts)
				if err != nil {
					return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
				}
				est.SampleDuration = l.drawn
				l.est, l.dirty = est, false
				if !fixed {
					if l.method, l.sd, err = l.prep.SDScale(armOpts, l.round); err != nil {
						return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
					}
				}
			}
			strata[i] = stats.Stratum{Weight: l.arm.Weight, Mean: l.est.CF, SD: l.sd}
		}
		res.Rounds++
		if fixed {
			break
		}
		res.Method = loops[0].method
		cf = stats.StratifiedMean(strata)
		half = z * composedSD(loops, strata)
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
		var floor int64
		if res.Method == CIMethodTheorem1 {
			floor = Theorem1RequiredRows(z, target.TargetError) - rows
		}
		chosen, extras := plan.extension(loops, floor, target.MaxSampleRows-rows, target.MaxSampleRows > 0)
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
	for _, l := range all {
		if l.prep != nil {
			res.Prepared++
			res.PrepDuration += l.prep.PrepDuration()
			res.SortedRows += l.prep.SampleRows()
		}
	}
	res.AchievedError = half
	res.CILo, res.CIHi = clamp01(cf-half), clamp01(cf+half)
	return res, nil
}

// composedSD is the stratified mean's SD over the live arms: the strata's
// independent sampling variance Σ w_h²σ_h², plus each weight sample's
// term for the run of arms whose weights it estimated (a Group's arms are
// consecutive), over (Σ w_h)². Without pilot arms it is
// stats.StratifiedSD exactly.
func composedSD(loops []*armLoop, strata []stats.Stratum) float64 {
	var wsum, v float64
	for i := 0; i < len(loops); {
		a := loops[i].arm
		j := i + 1
		for j < len(loops) && loops[j].arm.Group == a.Group {
			j++
		}
		if a.Pilot > 0 {
			v += stats.PilotWeightVariance(strata[i:j], a.Pilot)
		}
		for _, st := range strata[i:j] {
			wsum += st.Weight
		}
		i = j
	}
	sd := stats.StratifiedSD(strata)
	if v == 0 || wsum == 0 {
		return sd
	}
	return math.Sqrt(sd*sd + v/(wsum*wsum))
}

// planner keeps extension's buffers across the rounds of one loop: the
// slices a round's plan returns are overwritten by the next plan.
type planner struct {
	chosen []*armLoop
	counts []int64
	sigmas []float64
	alloc  sampling.Allocator
}

// extension plans one refinement round: choose the arms whose variance
// contribution dominates, double their cumulative sample — or plan floor
// rows when that is more — and split the new rows by Neyman allocation
// across them. Under a budget (capped) the extras scale to the remaining
// rows, at least one each; when fewer rows remain than arms were chosen,
// only the largest contributors (earlier arm first on ties) draw, one row
// each. Every returned extra is ≥ 1.
func (pl *planner) extension(loops []*armLoop, floor, remaining int64, capped bool) ([]*armLoop, []int64) {
	var maxC float64
	for _, l := range loops {
		if c := l.contribution(); c > maxC {
			maxC = c
		}
	}
	chosen, counts, sigmas := pl.chosen[:0], pl.counts[:0], pl.sigmas[:0]
	var want int64
	for _, l := range loops {
		if l.contribution() >= maxC/2 {
			chosen = append(chosen, l)
			counts = append(counts, l.arm.Rows)
			sigmas = append(sigmas, l.sd)
			want += l.prep.SampleRows()
		}
	}
	pl.chosen, pl.counts, pl.sigmas = chosen, counts, sigmas
	want = max(want, floor)
	if !capped || want <= remaining {
		return chosen, pl.alloc.Neyman(want, counts, sigmas)
	}
	if remaining < int64(len(chosen)) {
		slices.SortStableFunc(chosen, func(a, b *armLoop) int {
			return cmp.Compare(b.contribution(), a.contribution())
		})
		chosen = chosen[:remaining]
		extras := make([]int64, len(chosen))
		for i := range extras {
			extras[i] = 1
		}
		return chosen, extras
	}
	// Scale the extras to the remaining budget, at least one row each,
	// then trim the overshoot from the last arms.
	extras := pl.alloc.Neyman(want, counts, sigmas)
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
	return chosen, extras
}

// TableArm is the single arm of an unstratified source: the whole table as
// one resumable uniform-WR stream at seed (sampling.ExtendWRInto), with no
// router and no pilot. It serves a plain table's adaptive ask, each shard
// of a partitioned table without strata, and a partition whose cuts give
// one stratum.
func TableArm(src sampling.RowSource, schema *value.Schema, keyCols []string, seed uint64) StratumArm {
	return StratumArm{
		Label:  "table",
		Weight: 1,
		Rows:   src.NumRows(),
		Seed:   seed,
		Extend: func(round int, extra int64) (*value.RecordArena, error) {
			full := value.NewRecordArena(schema, int(extra))
			if err := sampling.ExtendWRInto(src, full, extra, seed, round); err != nil {
				return nil, err
			}
			return ProjectSample(full, keyCols)
		},
	}
}

// tableArms resolves SampleCF's arms over src: one TableArm when
// opts.Strata ≤ 1, else the stratification — cut points (index-assisted
// or pilot), the weight pilot, and the routed arms.
func tableArms(src sampling.RowSource, schema *value.Schema, opts Options) ([]StratumArm, error) {
	if opts.Strata <= 1 {
		return []StratumArm{TableArm(src, schema, opts.KeyColumns, opts.Seed)}, nil
	}
	ib, _ := src.(IndexBoundarySource)
	bounds, err := StratumBoundaries(ib, src, schema, opts.KeyColumns, opts.Strata)
	if err != nil {
		return nil, err
	}
	cuts, err := NewCuts(schema, opts.KeyColumns, bounds)
	if err != nil {
		return nil, err
	}
	p, err := cuts.PilotWeights(src)
	if err != nil {
		return nil, err
	}
	return RoutedArms(src, p, opts.Seed)
}

// ArmRows lists the arms' population sizes, the counts a proportional
// allocation splits rows by.
func ArmRows(arms []StratumArm) []int64 {
	out := make([]int64, len(arms))
	for i := range arms {
		out[i] = arms[i].Rows
	}
	return out
}

// sampleCFArms runs SampleCF's stratified route (a zero target: one
// round) and every SampleCFAdaptive ask: resolve the arms, allocate the r0
// round-0 rows proportionally (the Neyman pilot of an adaptive ask), and
// run the arm loop. The partition's build time counts as sampling.
func sampleCFArms(src sampling.RowSource, schema *value.Schema,
	opts Options, target Precision, r0 int64) (AdaptiveResult, error) {
	t0 := time.Now()
	arms, err := tableArms(src, schema, opts)
	if err != nil {
		return AdaptiveResult{}, err
	}
	partDur := time.Since(t0)
	res, err := AdaptiveEstimateStratified(arms, sampling.Allocate(r0, ArmRows(arms), nil), target, opts)
	res.Estimate.SampleDuration += partDur
	return res, err
}
