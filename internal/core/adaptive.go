// Precision-targeted adaptive estimation: the sequential-refinement loop
// that turns the paper's "pick f and hope" interface inside out. The paper's
// central trade-off is sample size vs. estimator error (Theorem 1: σ ≤
// 1/(2√r)); everything needed to *drive* sampling with it already exists —
// the theorem bounds, the bootstrap, resumable draws — so callers state the
// accuracy they need ("CF within ±2% at 95%") and the loop spends the
// minimum rows to get there, estimate → CI-check → extend, reusing every
// row already drawn. This file holds the target, the result, and the CI
// machinery; the one loop is AdaptiveEstimateStratified (stratified.go),
// and an unsharded, unstratified table runs it as a single arm (TableArm).
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"samplecf/internal/sampling"
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
}

// DefaultMinSampleRows is the first adaptive round's size when the caller
// does not choose one: large enough for a stable bootstrap SD, small
// enough that an easy target stops almost immediately.
const DefaultMinSampleRows = 256

// bootstrapResamples is B for codecs without an analytic bound: an SD
// estimate, not a percentile interval, so modest B suffices.
const bootstrapResamples = 48

// withDefaults normalizes zero-valued fields.
func (t Precision) withDefaults() Precision {
	if t.Confidence == 0 {
		t.Confidence = 0.95
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
	// Dropped lists the indices of the arms a stratified loop gave up on
	// (ErrArmDropped), in the order it dropped them; Estimate composes the
	// others.
	Dropped []int
	// Prepared, PrepDuration and SortedRows are the loop's prepare
	// ledger: the indexes its arms prepared, their summed encode, sort
	// and merge time across every round, and the rows they hold, dropped
	// arms included.
	Prepared     int
	PrepDuration time.Duration
	SortedRows   int64
}

// ExtendFunc supplies round `round` of an arm's resumable stream: extra
// more sampled rows, projected to the prepared index's key schema. Round 0
// is the initial sample; implementations derive round streams so earlier
// rounds are never redrawn.
type ExtendFunc func(round int, extra int64) (*value.RecordArena, error)

// ciMethodFor picks the CI machinery for a codec: Theorem 1's
// distribution-free bound where it applies (the null-suppression family),
// bootstrap variance everywhere else.
func ciMethodFor(opts Options) string {
	if strings.HasPrefix(opts.Codec.Name(), "nullsuppression") {
		return CIMethodTheorem1
	}
	return CIMethodBootstrap
}

// SDScale returns the confidence-free standard-deviation scale of the
// prepared sample's CF estimate under the codec's CI method (the CI
// half-width at confidence z is z·scale): Theorem 1's 1/(2√r) for the
// null-suppression family, the bootstrap SD otherwise. It is the
// per-arm σ_h the adaptive loop composes by stratified variance
// (stats.StratifiedSD); round decorrelates the bootstrap's resample
// stream between refinement rounds, so replays stay deterministic.
func (p *PreparedIndex) SDScale(opts Options, round int) (method string, scale float64, err error) {
	method = ciMethodFor(opts)
	if method == CIMethodTheorem1 {
		return method, Theorem1StdDevBound(p.SampleRows()), nil
	}
	ci, err := bootstrapWindow(p.keySchema, p.win, opts.Codec, opts.PageSize, bootstrapResamples,
		0.05, opts.Seed^0xb007^uint64(round)<<32)
	if err != nil {
		return method, 0, fmt.Errorf("core: bootstrap CI: %w", err)
	}
	return method, ci.SD, nil
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
// a precision target instead of a fixed r. It resolves the source's arms —
// the whole table as one resumable uniform-WR stream (TableArm), or the
// routed strata when opts.Strata > 1 — and runs the arm loop, so no row is
// ever drawn twice. Options.SampleRows (or Fraction) seeds the first
// round's size when set; target.MaxSampleRows defaults to the table size n.
func SampleCFAdaptive(src sampling.RowSource, schema *value.Schema, opts Options, target Precision) (AdaptiveResult, error) {
	if err := opts.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	if err := target.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	opts = opts.withDefaults()
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
		r0 = DefaultMinSampleRows
	}
	if r0 > target.MaxSampleRows {
		r0 = target.MaxSampleRows
	}
	return sampleCFArms(src, schema, opts, target, r0)
}
