package stats

import "math"

// Stratified composition: the Sampling Algebra rules for combining
// per-partition sample estimators into one table-level estimator. A
// sharded table's what-if estimate is computed per shard from that shard's
// own uniform sample; the shards are strata, and the table-level point
// estimate and variance compose from the per-stratum ones:
//
//	μ  = Σ w_h·μ_h / Σ w_h                (size-weighted mean)
//	σ² = Σ w_h²·σ_h² / (Σ w_h)²           (independent strata)
//
// with w_h = N_h/N the stratum's population share. The per-stratum draws
// are independent, so the cross terms vanish and the composed σ is what
// the adaptive loop's ±ε target checks against.

// Stratum is one partition's contribution to a stratified estimate.
type Stratum struct {
	// Weight is the stratum's population share w_h (N_h/N). Weights need
	// not sum to one; the composition normalizes by Σ w_h.
	Weight float64
	// Mean is the stratum's point estimate μ_h.
	Mean float64
	// SD is the stratum estimator's standard deviation σ_h.
	SD float64
}

// StratifiedMean composes the size-weighted point estimate Σw·μ/Σw.
// A single stratum passes through exactly: with one weight the ratio
// w·μ/w is computed as μ when w == 1, which is how the one-shard case
// stays bit-identical to the unsharded estimator.
func StratifiedMean(strata []Stratum) float64 {
	if len(strata) == 1 {
		// Exact passthrough: normalizing a single stratum by its own
		// weight must not round.
		return strata[0].Mean
	}
	var sum, wsum float64
	for _, s := range strata {
		sum += s.Weight * s.Mean
		wsum += s.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// StratifiedSD composes the standard deviation of the stratified mean:
// sqrt(Σ w²σ²)/Σw. Per-stratum draws are independent, so variances add
// with squared weights. A single stratum passes through exactly (the
// sqrt(σ²) round-trip is skipped), keeping the one-shard adaptive loop's
// confidence interval identical to the unsharded one.
func StratifiedSD(strata []Stratum) float64 {
	if len(strata) == 1 {
		return strata[0].SD
	}
	var varSum, wsum float64
	for _, s := range strata {
		varSum += s.Weight * s.Weight * s.SD * s.SD
		wsum += s.Weight
	}
	if wsum == 0 {
		return 0
	}
	return math.Sqrt(varSum) / wsum
}

// PilotWeightVariance is the variance a stratified sum Σ w_h·μ_h gains
// when one uniform pilot of m rows estimated its strata's weights instead
// of counting them: double sampling for stratification (Cochran,
// *Sampling Techniques*, §12.2). With ŵ_h = m_h/m multinomial, the term is
// (1/m)·Σ w_h(μ_h − μ)² for strata whose weights sum to one. When the
// strata are one shard's cells, their weights sum to the shard's exact
// share p rather than one, and the term scales by p², which is
// p·Σ w_h(μ_h − μ)²/m with μ the cells' weighted mean.
func PilotWeightVariance(strata []Stratum, m int64) float64 {
	var sum, wsum float64
	for _, s := range strata {
		sum += s.Weight * s.Mean
		wsum += s.Weight
	}
	if wsum == 0 || m <= 0 {
		return 0
	}
	mu := sum / wsum
	var v float64
	for _, s := range strata {
		d := s.Mean - mu
		v += s.Weight * d * d
	}
	return wsum * v / float64(m)
}
