package stats

import (
	"math"
	"testing"

	"samplecf/internal/rng"
)

// TestStratifiedSingleStratumPassthrough pins the one-shard contract: a
// single stratum composes to exactly its own mean and SD, no rounding.
func TestStratifiedSingleStratumPassthrough(t *testing.T) {
	s := []Stratum{{Weight: 1, Mean: 0.123456789123456789, SD: 0.037281937}}
	if got := StratifiedMean(s); got != s[0].Mean {
		t.Errorf("StratifiedMean = %v, want exact %v", got, s[0].Mean)
	}
	if got := StratifiedSD(s); got != s[0].SD {
		t.Errorf("StratifiedSD = %v, want exact %v", got, s[0].SD)
	}
	// Passthrough must hold for any weight, since a lone stratum
	// normalizes by itself.
	s[0].Weight = 0.25
	if got := StratifiedMean(s); got != s[0].Mean {
		t.Errorf("StratifiedMean (w=0.25) = %v, want exact %v", got, s[0].Mean)
	}
}

// TestStratifiedMeanWeights checks the size-weighted composition against a
// hand-computed value and weight normalization.
func TestStratifiedMeanWeights(t *testing.T) {
	s := []Stratum{
		{Weight: 0.75, Mean: 0.4},
		{Weight: 0.25, Mean: 0.8},
	}
	want := 0.75*0.4 + 0.25*0.8
	if got := StratifiedMean(s); math.Abs(got-want) > 1e-15 {
		t.Errorf("StratifiedMean = %v, want %v", got, want)
	}
	// Unnormalized weights give the same answer.
	s2 := []Stratum{
		{Weight: 3, Mean: 0.4},
		{Weight: 1, Mean: 0.8},
	}
	if got := StratifiedMean(s2); math.Abs(got-want) > 1e-15 {
		t.Errorf("StratifiedMean (unnormalized) = %v, want %v", got, want)
	}
}

// TestStratifiedSDComposition checks σ = sqrt(Σw²σ²)/Σw and that equal
// strata with equal SDs compose below the per-stratum SD (the stratified
// variance reduction).
func TestStratifiedSDComposition(t *testing.T) {
	s := []Stratum{
		{Weight: 0.5, SD: 0.1},
		{Weight: 0.5, SD: 0.1},
	}
	want := math.Sqrt(0.25*0.01+0.25*0.01) / 1.0 // = 0.1/sqrt(2)
	if got := StratifiedSD(s); math.Abs(got-want) > 1e-15 {
		t.Errorf("StratifiedSD = %v, want %v", got, want)
	}
	if got := StratifiedSD(s); got >= 0.1 {
		t.Errorf("two equal strata should compose below a lone stratum's SD, got %v", got)
	}
	// A dominant stratum dominates the composed variance.
	skew := []Stratum{
		{Weight: 0.9, SD: 0.2},
		{Weight: 0.1, SD: 0.01},
	}
	wantSkew := math.Sqrt(0.81*0.04 + 0.01*0.0001)
	if got := StratifiedSD(skew); math.Abs(got-wantSkew) > 1e-15 {
		t.Errorf("StratifiedSD (skewed) = %v, want %v", got, wantSkew)
	}
}

// TestStratifiedEmptyAndZeroWeight covers the degenerate inputs.
func TestStratifiedEmptyAndZeroWeight(t *testing.T) {
	if got := StratifiedMean(nil); got != 0 {
		t.Errorf("StratifiedMean(nil) = %v", got)
	}
	if got := StratifiedSD(nil); got != 0 {
		t.Errorf("StratifiedSD(nil) = %v", got)
	}
	zero := []Stratum{{Weight: 0, Mean: 0.5, SD: 0.5}, {Weight: 0, Mean: 0.1, SD: 0.1}}
	if got := StratifiedMean(zero); got != 0 {
		t.Errorf("StratifiedMean(zero weights) = %v", got)
	}
	if got := StratifiedSD(zero); got != 0 {
		t.Errorf("StratifiedSD(zero weights) = %v", got)
	}
}

// TestStratifiedPilotWeightVariance checks the estimated-weights term
// against a simulation of the multinomial pilot it models, and its
// scaling when the strata are one shard's cells: weights summing to a
// share p scale the term by p².
func TestStratifiedPilotWeightVariance(t *testing.T) {
	w := []float64{0.2, 0.5, 0.3}
	mu := []float64{0.1, 0.4, 0.9}
	strata := make([]Stratum, len(w))
	for h := range w {
		strata[h] = Stratum{Weight: w[h], Mean: mu[h]}
	}
	const m = 400
	got := PilotWeightVariance(strata, m)

	// Simulate ŵ_h = m_h/m over many pilots; the variance of Σ ŵ_h·μ_h
	// must match the closed form within sampling error.
	g := rng.New(3)
	const trials = 20000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		var est float64
		for j := 0; j < m; j++ {
			u, h := g.Float64(), 0
			for h < len(w)-1 && u >= w[h] {
				u -= w[h]
				h++
			}
			est += mu[h] / m
		}
		sum += est
		sumSq += est * est
	}
	mean := sum / trials
	sim := sumSq/trials - mean*mean
	if math.Abs(sim-got)/got > 0.05 {
		t.Errorf("closed form %v, simulated %v", got, sim)
	}

	const p = 0.25
	cells := make([]Stratum, len(strata))
	for h, s := range strata {
		cells[h] = Stratum{Weight: p * s.Weight, Mean: s.Mean}
	}
	if scaled := PilotWeightVariance(cells, m); math.Abs(scaled-p*p*got) > 1e-15 {
		t.Errorf("shard cells: %v, want p²·%v = %v", scaled, got, p*p*got)
	}
	if v := PilotWeightVariance(strata[:1], m); v > 1e-30 {
		t.Errorf("a single stratum's weight is certain, got variance %v", v)
	}
}
