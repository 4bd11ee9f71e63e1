// Precision-targeted adaptive estimation: the sequential-refinement loop
// that turns the paper's "pick f and hope" interface inside out. The paper's
// central trade-off is sample size vs. estimator error (Theorem 1: σ ≤
// 1/(2√r)); everything needed to *drive* sampling with it already exists —
// the theorem bounds, the bootstrap, resumable draws — and AdaptiveEstimate
// is the driver: callers state the accuracy they need ("CF within ±2% at
// 95%") and the loop spends the minimum rows to get there, estimate →
// CI-check → extend, reusing every row already drawn.
package core

import (
	"fmt"
	"math"
	"strings"

	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// Precision is an accuracy target for adaptive estimation.
type Precision struct {
	// TargetError is the requested confidence-interval half-width on CF
	// (absolute: 0.02 asks for CF ± 2 points). Must be in (0, 1).
	TargetError float64
	// Confidence is the two-sided confidence level (default 0.95).
	Confidence float64
	// MaxSampleRows caps the cumulative sample size; the loop stops there
	// and reports honestly when the target was not reached (0 = no cap —
	// callers that sample a finite table should cap at n).
	MaxSampleRows int64
	// MinSampleRows is the first round's sample size (default 256).
	MinSampleRows int64
	// BootstrapResamples is B for codecs without an analytic bound
	// (default 48 — an SD estimate, not a percentile interval, so modest
	// B suffices).
	BootstrapResamples int
}

// DefaultMinSampleRows is the first adaptive round's size when the caller
// does not choose one: large enough for a stable bootstrap SD, small
// enough that an easy target stops almost immediately.
const DefaultMinSampleRows = 256

// withDefaults normalizes zero-valued fields.
func (t Precision) withDefaults() Precision {
	if t.Confidence == 0 {
		t.Confidence = 0.95
	}
	if t.MinSampleRows <= 0 {
		t.MinSampleRows = DefaultMinSampleRows
	}
	if t.BootstrapResamples <= 0 {
		t.BootstrapResamples = 48
	}
	return t
}

// Validate rejects malformed targets.
func (t Precision) Validate() error {
	switch {
	case !(t.TargetError > 0) || t.TargetError >= 1:
		return fmt.Errorf("core: Precision.TargetError %v outside (0,1)", t.TargetError)
	case t.Confidence != 0 && (t.Confidence <= 0 || t.Confidence >= 1):
		return fmt.Errorf("core: Precision.Confidence %v outside (0,1)", t.Confidence)
	case t.MaxSampleRows < 0:
		return fmt.Errorf("core: Precision.MaxSampleRows %d is negative", t.MaxSampleRows)
	case t.MinSampleRows < 0:
		return fmt.Errorf("core: Precision.MinSampleRows %d is negative", t.MinSampleRows)
	case t.MaxSampleRows > 0 && t.MinSampleRows > t.MaxSampleRows:
		return fmt.Errorf("core: Precision.MinSampleRows %d exceeds MaxSampleRows %d",
			t.MinSampleRows, t.MaxSampleRows)
	}
	return nil
}

// CI methods reported by AdaptiveResult.Method.
const (
	// CIMethodTheorem1 is the paper's distribution-free bound z/(2√r),
	// valid for null-suppression-family codecs.
	CIMethodTheorem1 = "theorem1"
	// CIMethodBootstrap is the resampled-SD interval z·SD_boot, the
	// codec-agnostic fallback (see the Bootstrap validity caveat: biased
	// low for cardinality-sensitive codecs).
	CIMethodBootstrap = "bootstrap"
)

// AdaptiveResult is the outcome of a precision-targeted estimation.
type AdaptiveResult struct {
	// Estimate is the final round's estimate, over every row drawn.
	Estimate Estimate
	// AchievedError is the final CI half-width; CILo/CIHi the interval
	// clamped to [0,1].
	AchievedError float64
	CILo, CIHi    float64
	// Rounds counts estimation rounds run (≥ 1).
	Rounds int
	// Converged reports the target was met; false means the row budget
	// was exhausted first and AchievedError is the honest residual.
	Converged bool
	// Method names how the CI was computed (CIMethodTheorem1 or
	// CIMethodBootstrap).
	Method string
}

// ExtendFunc supplies one more round of sampled rows, projected to the
// prepared index's key schema. round is ≥ 1 (round 0 drew the initial
// sample) and extra is the number of rows requested; implementations
// derive round streams so earlier rounds are never redrawn.
type ExtendFunc func(round int, extra int64) (*value.RecordArena, error)

// AdaptiveEstimate runs estimate → CI-check → extend rounds until the
// estimate's confidence interval is within target.TargetError or the row
// budget is exhausted, growing the sample geometrically (at least doubling
// each round; for Theorem-1 codecs it jumps straight to the bound-implied
// r). The achieved interval is returned alongside the estimate either way.
//
// AdaptiveEstimate mutates the PreparedIndex (ExtendFromArena) and must
// not run concurrently with other uses of it.
func (p *PreparedIndex) AdaptiveEstimate(target Precision, opts Options, extend ExtendFunc) (AdaptiveResult, error) {
	if err := target.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	target = target.withDefaults()
	if p.SampleRows() == 0 {
		return AdaptiveResult{}, fmt.Errorf("core: adaptive estimation needs a non-empty initial sample")
	}
	z := stats.NormalQuantile(1 - (1-target.Confidence)/2)
	res := AdaptiveResult{}
	for {
		est, err := p.Estimate(opts)
		if err != nil {
			return AdaptiveResult{}, err
		}
		res.Rounds++
		res.Estimate = est
		res.Method = ciMethodFor(opts)
		half, err := p.ciHalfWidth(res.Method, opts, z, target, res.Rounds)
		if err != nil {
			return AdaptiveResult{}, err
		}
		res.AchievedError = half
		res.CILo, res.CIHi = clamp01(est.CF-half), clamp01(est.CF+half)
		if half <= target.TargetError {
			res.Converged = true
			return res, nil
		}
		r := p.SampleRows()
		if target.MaxSampleRows > 0 && r >= target.MaxSampleRows {
			return res, nil // budget exhausted: honest non-convergence
		}
		next := nextSampleSize(r, res.Method, z, target)
		extra := next - r
		ext, err := extend(res.Rounds, extra)
		if err != nil {
			return AdaptiveResult{}, fmt.Errorf("core: adaptive round %d: %w", res.Rounds, err)
		}
		if ext == nil || ext.Len() == 0 {
			return AdaptiveResult{}, fmt.Errorf("core: adaptive round %d: extension supplied no rows", res.Rounds)
		}
		if err := p.ExtendFromArena(ext); err != nil {
			return AdaptiveResult{}, err
		}
	}
}

// ciMethodFor picks the CI machinery for a codec: Theorem 1's
// distribution-free bound where it applies (the null-suppression family),
// bootstrap variance everywhere else.
func ciMethodFor(opts Options) string {
	if strings.HasPrefix(opts.Codec.Name(), "nullsuppression") {
		return CIMethodTheorem1
	}
	return CIMethodBootstrap
}

// ciHalfWidth computes the current CI half-width under the given method.
func (p *PreparedIndex) ciHalfWidth(method string, opts Options, z float64, target Precision, round int) (float64, error) {
	if method == CIMethodTheorem1 {
		return z * Theorem1StdDevBound(p.SampleRows()), nil
	}
	// Bootstrap SD over the current sample arena; the resample seed
	// derives from (Seed, round) so rounds are decorrelated but replays
	// are deterministic.
	ci, err := bootstrapWindow(p.keySchema, p.win, opts.Codec, opts.PageSize, target.BootstrapResamples,
		0.05, opts.Seed^0xb007^uint64(round)<<32)
	if err != nil {
		return 0, fmt.Errorf("core: bootstrap CI: %w", err)
	}
	return z * ci.SD, nil
}

// SDScale returns the confidence-free standard-deviation scale of the
// prepared sample's CF estimate under the codec's CI method (the CI
// half-width at confidence z is z·scale): Theorem 1's 1/(2√r) for the
// null-suppression family, the bootstrap SD otherwise. It is the
// per-stratum σ_h a sharded estimation composes by stratified variance
// (stats.StratifiedSD); round decorrelates the bootstrap's resample
// stream between refinement rounds, exactly as in AdaptiveEstimate.
func (p *PreparedIndex) SDScale(opts Options, target Precision, round int) (method string, scale float64, err error) {
	target = target.withDefaults()
	method = ciMethodFor(opts)
	scale, err = p.ciHalfWidth(method, opts, 1, target, round)
	return method, scale, err
}

// nextSampleSize grows the sample: at least double (sequential-refinement
// economics: total work ≤ 2× the final round), and for Theorem-1 codecs at
// least the bound-implied r = ⌈(z/2ε)²⌉ — the bound is data-independent,
// so overshooting in rounds would only waste draws.
func nextSampleSize(r int64, method string, z float64, target Precision) int64 {
	next := 2 * r
	if method == CIMethodTheorem1 {
		if need := Theorem1RequiredRows(z, target.TargetError); need > next {
			next = need
		}
	}
	if target.MaxSampleRows > 0 && next > target.MaxSampleRows {
		next = target.MaxSampleRows
	}
	return next
}

// Theorem1RequiredRows inverts Theorem 1's bound: the smallest r with
// z/(2√r) ≤ targetError.
func Theorem1RequiredRows(z, targetError float64) int64 {
	if targetError <= 0 {
		return math.MaxInt64
	}
	return int64(math.Ceil(z * z / (4 * targetError * targetError)))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SampleCFAdaptive is the one-shot adaptive entry point: SampleCF driven to
// a precision target instead of a fixed r. It draws the initial sample,
// prepares the index once, and runs AdaptiveEstimate with fresh resumable
// uniform-WR rounds (sampling.ExtendWRInto), so no row is ever drawn twice.
// Options.SampleRows (or Fraction) seeds the first round's size when set;
// target.MaxSampleRows defaults to the table size n.
func SampleCFAdaptive(src sampling.RowSource, schema *value.Schema, opts Options, target Precision) (AdaptiveResult, error) {
	if err := opts.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	if err := target.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	opts = opts.withDefaults()
	target = target.withDefaults()
	if opts.Codec == nil {
		return AdaptiveResult{}, fmt.Errorf("core: Options.Codec is required")
	}
	if opts.Method != MethodUniformWR {
		return AdaptiveResult{}, fmt.Errorf("core: adaptive estimation supports only uniform WR sampling")
	}
	if _, _, err := keyProjection(schema, opts.KeyColumns); err != nil {
		return AdaptiveResult{}, err
	}
	n := src.NumRows()
	if n == 0 {
		return AdaptiveResult{}, fmt.Errorf("core: source table is empty")
	}
	if target.MaxSampleRows == 0 {
		target.MaxSampleRows = n
	}
	r0 := opts.SampleRows
	if r0 <= 0 && opts.Fraction > 0 {
		r0 = sampling.SampleSize(n, opts.Fraction)
	}
	if r0 <= 0 {
		r0 = target.MinSampleRows
	}
	if r0 > target.MaxSampleRows {
		r0 = target.MaxSampleRows
	}
	if opts.Strata > 0 {
		return sampleCFAdaptiveStratified(src, schema, opts, target, r0)
	}

	drawRound := func(round int, rows int64) (*value.RecordArena, error) {
		full := value.NewRecordArena(schema, int(rows))
		if err := sampling.ExtendWRInto(src, full, rows, opts.Seed, round); err != nil {
			return nil, err
		}
		return ProjectSample(full, opts.KeyColumns)
	}

	initial, err := drawRound(0, r0)
	if err != nil {
		return AdaptiveResult{}, err
	}
	p := prepareWindow(initial.Full(), n, initial.Schema())
	p.owned = true
	return p.AdaptiveEstimate(target, opts, drawRound)
}
