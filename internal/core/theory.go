package core

import (
	"fmt"
	"math"
)

// This file encodes the paper's analytical guarantees as checkable
// functions. Where the published text leaves constants implicit, the
// derivation used here is written out in each function's comment and
// validated empirically by experiments E1-E5.

// Theorem1StdDevBound returns the paper's bound on the standard deviation
// of CF'_NS: σ ≤ 1/(2√(n·f)) = 1/(2√r).
//
// Derivation: CF'_NS = (1/(r·k))·Σ(ℓⱼ+h) is a scaled mean of r iid draws of
// ℓ+h ∈ [h, k+h], a range of width k. Popoviciu's inequality gives
// Var(ℓ+h) ≤ k²/4, so Var(CF') ≤ k²/(4·r·k²) = 1/(4r).
func Theorem1StdDevBound(r int64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * math.Sqrt(float64(r)))
}

// Theorem1StdDevExact returns the exact standard deviation of CF'_NS given
// the population variance of ℓ: σ = σ_ℓ/(k·√r). Experiments compare the
// measured spread against this and against the distribution-free bound.
func Theorem1StdDevExact(varNS float64, k int, r int64) float64 {
	if r <= 0 || k <= 0 || varNS < 0 {
		return math.NaN()
	}
	return math.Sqrt(varNS) / (float64(k) * math.Sqrt(float64(r)))
}

// Example1 reproduces the paper's Example 1: n = 100 million rows, a 1%
// sample (r = 1 million) gives σ(CF'_NS) ≤ 5·10⁻⁴.
func Example1() (n, r int64, bound float64) {
	n = 100_000_000
	r = 1_000_000
	return n, r, Theorem1StdDevBound(r)
}

// Theorem2RatioBound bounds the expected ratio error of CF'_D in the
// small-d regime (d = o(n)): with CF = p/k + d/n and CF' = p/k + d'/r,
// 0 ≤ d'/r ≤ min(1, d/r aside, always ≤ 1) and d'/r's expectation is at
// most d/r = d/(f·n), so
//
//	ratio ≤ 1 + (d/(f·n))·(k/p)   (overestimate direction)
//	ratio ≤ 1 + (d/n)·(k/p)       (underestimate direction, d' ≥ small)
//
// The returned bound is the max of the two; it converges to 1 as d/n → 0,
// which is Theorem 2's content.
func Theorem2RatioBound(n, d int64, f float64, k, p int) (float64, error) {
	if n <= 0 || d < 0 || f <= 0 || f > 1 || k <= 0 || p <= 0 {
		return 0, fmt.Errorf("core: invalid theorem-2 parameters n=%d d=%d f=%v k=%d p=%d", n, d, f, k, p)
	}
	over := 1 + float64(d)/(f*float64(n))*float64(k)/float64(p)
	under := 1 + float64(d)/float64(n)*float64(k)/float64(p)
	return math.Max(over, under), nil
}

// Theorem3RatioBound bounds the expected ratio error of CF'_D in the
// large-d regime (d ≥ β·n), independent of n:
//
//   - CF never exceeds p/k + 1 (d ≤ n) and never drops below p/k + β.
//   - In a WR sample of r = f·n rows, each of the ≥ β·n distinct values is
//     seen with probability ≥ 1-(1-1/n)^r ≥ 1-e^{-f}, so
//     E[d']/r ≥ β·(1-e^{-f})/f.
//
// The expected ratio error is then at most
//
//	max( (p/k + 1) / (p/k + β·(1-e^{-f})/f·min(1,·)) ,
//	     (p/k + 1) / (p/k + β) )
//
// a constant in n — Theorem 3's content. (Jensen slack on E[max(X/Y,Y/X)]
// is absorbed by the empirical validation in E4.)
func Theorem3RatioBound(beta, f float64, k, p int) (float64, error) {
	if beta <= 0 || beta > 1 || f <= 0 || f > 1 || k <= 0 || p <= 0 {
		return 0, fmt.Errorf("core: invalid theorem-3 parameters β=%v f=%v k=%d p=%d", beta, f, k, p)
	}
	pk := float64(p) / float64(k)
	seen := (1 - math.Exp(-f)) / f // fraction of a value's presence visible at fraction f
	if seen > 1 {
		seen = 1
	}
	under := (pk + 1) / (pk + beta*seen)
	over := (pk + 1) / (pk + beta)
	return math.Max(under, over), nil
}

// NSConfidenceInterval returns a two-sided interval CF' ± z·bound where
// bound is Theorem 1's distribution-free σ bound; usable without knowing
// anything about the data (the selling point of a worst-case guarantee).
func NSConfidenceInterval(cfEst float64, r int64, z float64) (lo, hi float64) {
	half := z * Theorem1StdDevBound(r)
	lo, hi = cfEst-half, cfEst+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
