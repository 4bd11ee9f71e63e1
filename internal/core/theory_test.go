package core

import (
	"math"
	"testing"

	"samplecf/internal/compress"
	"samplecf/internal/distinct"
	"samplecf/internal/distrib"
	"samplecf/internal/stats"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

func TestTheorem1Bound(t *testing.T) {
	if got := Theorem1StdDevBound(1_000_000); math.Abs(got-0.0005) > 1e-12 {
		t.Fatalf("bound(10^6) = %v, want 5e-4", got)
	}
	if got := Theorem1StdDevBound(100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("bound(100) = %v, want 0.05", got)
	}
	if got := Theorem1StdDevBound(0); !math.IsInf(got, 1) {
		t.Fatalf("bound(0) = %v, want +Inf", got)
	}
}

func TestExample1Numbers(t *testing.T) {
	n, r, bound := Example1()
	if n != 100_000_000 || r != 1_000_000 {
		t.Fatalf("Example 1 sizes %d/%d", n, r)
	}
	if math.Abs(bound-5e-4) > 1e-12 {
		t.Fatalf("Example 1 bound = %v, want 5e-4", bound)
	}
}

func TestTheorem1ExactLEQBound(t *testing.T) {
	// The exact σ (σ_ℓ/(k√r)) never exceeds the distribution-free bound.
	for _, varNS := range []float64{0, 1, 25, 100} {
		for _, k := range []int{10, 20, 100} {
			for _, r := range []int64{10, 1000, 1_000_000} {
				exact := Theorem1StdDevExact(varNS, k, r)
				bound := Theorem1StdDevBound(r)
				if math.Sqrt(varNS) <= float64(k)/2 && exact > bound+1e-15 {
					t.Fatalf("exact %v > bound %v (var=%v k=%d r=%d)", exact, bound, varNS, k, r)
				}
			}
		}
	}
	if !math.IsNaN(Theorem1StdDevExact(-1, 10, 10)) {
		t.Fatal("negative variance accepted")
	}
}

// TestTheorem1Empirical is the core Theorem 1 validation: CF'_NS is
// unbiased and its spread respects the bound, across length distributions.
func TestTheorem1Empirical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 20000
	const f = 0.01
	r := int64(f * n)
	bound := Theorem1StdDevBound(r)
	codec := mustCodec(t, "nullsuppression")

	for _, lengths := range []distrib.Lengths{
		distrib.NewUniformLen(0, 20),
		distrib.NewBimodalLen(1, 19, 0.5), // near-worst-case variance
		distrib.NewConstantLen(7),         // zero variance
		distrib.NewNormalLen(10, 3, 0, 20),
	} {
		tab := genTable(t, n, 5000, lengths, 23)
		st, err := workload.ComputeStats(tab)
		if err != nil {
			t.Fatal(err)
		}
		truth := st[0].CFNullSuppression(20, 1)

		var acc stats.Accumulator
		for seed := uint64(0); seed < 60; seed++ {
			est, err := SampleCF(tab, tab.Schema(), Options{
				Fraction: f, Codec: codec, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(est.CF)
		}
		// Unbiasedness: the mean of 60 trials is within 4 standard errors.
		if se := acc.StdErr(); math.Abs(acc.Mean()-truth) > 4*se+1e-9 {
			t.Errorf("%s: mean %v vs truth %v (se %v) — bias?", lengths.Name(), acc.Mean(), truth, se)
		}
		// Bound: observed σ below the distribution-free bound (with slack
		// for estimating σ from 60 trials).
		if acc.StdDev() > 1.35*bound {
			t.Errorf("%s: σ %v exceeds bound %v", lengths.Name(), acc.StdDev(), bound)
		}
		// Exact σ from population variance must also dominate observed.
		exact := Theorem1StdDevExact(st[0].VarNS(), 20, r)
		if acc.StdDev() > 1.5*exact+1e-9 {
			t.Errorf("%s: σ %v far above exact prediction %v", lengths.Name(), acc.StdDev(), exact)
		}
	}
}

func TestTheorem2BoundShrinksWithN(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int64{1000, 10_000, 100_000, 1_000_000} {
		b, err := Theorem2RatioBound(n, 100, 0.01, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Fatalf("bound not shrinking: %v at n=%d (prev %v)", b, n, prev)
		}
		prev = b
	}
	// n → large with d = o(n) drives the bound to 1.
	b, err := Theorem2RatioBound(100_000_000, 100, 0.01, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b > 1.01 {
		t.Fatalf("asymptotic bound %v, want ≈1", b)
	}
	if _, err := Theorem2RatioBound(0, 1, 0.5, 20, 4); err == nil {
		t.Fatal("invalid n accepted")
	}
}

func TestTheorem3BoundConstantInN(t *testing.T) {
	b, err := Theorem3RatioBound(0.5, 0.01, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b < 1 || b > 3 {
		t.Fatalf("β=0.5 bound = %v, want small constant", b)
	}
	// Bound worsens as β shrinks.
	b2, err := Theorem3RatioBound(0.1, 0.01, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b2 <= b {
		t.Fatalf("bound should grow as β shrinks: β=0.1 %v vs β=0.5 %v", b2, b)
	}
	if _, err := Theorem3RatioBound(0, 0.01, 20, 4); err == nil {
		t.Fatal("β=0 accepted")
	}
}

// TestTheorem2Empirical: small d ⇒ ratio error near 1.
func TestTheorem2Empirical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// Regime check: Theorem 2 needs d'/r ≪ p/k, i.e. r ≫ d·k/p. With
	// d = 20 and f = 0.05 (r = 2500), d/r·(k/p) = 0.04 — the ratio error
	// ceiling is ≈ 1.04.
	const n = 50000
	const d = 20
	const f = 0.05
	const k, p = 20, 4
	tab := genTable(t, n, d, distrib.NewConstantLen(10), 29)
	st, err := workload.ComputeStats(tab)
	if err != nil {
		t.Fatal(err)
	}
	truth := st[0].CFGlobalDict(k, p)
	codec := compress.GlobalDict{PointerBytes: p}

	var ratio stats.Accumulator
	for seed := uint64(0); seed < 30; seed++ {
		est, err := SampleCF(tab, tab.Schema(), Options{
			Fraction: f, Codec: codec, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio.Add(stats.RatioError(est.CF, truth))
	}
	bound, err := Theorem2RatioBound(n, d, f, k, p)
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Mean() > bound {
		t.Fatalf("mean ratio error %v exceeds Theorem-2 bound %v", ratio.Mean(), bound)
	}
	if ratio.Mean() > 1.1 {
		t.Fatalf("mean ratio error %v, want ≈1 in small-d regime", ratio.Mean())
	}
}

// TestTheorem3Empirical: d = βn ⇒ ratio error below the constant bound.
func TestTheorem3Empirical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 50000
	const beta = 0.5
	const f = 0.02
	const k, p = 20, 4
	tab := genTable(t, n, int64(beta*n), distrib.NewConstantLen(10), 31)
	st, err := workload.ComputeStats(tab)
	if err != nil {
		t.Fatal(err)
	}
	truth := st[0].CFGlobalDict(k, p)
	codec := compress.GlobalDict{PointerBytes: p}

	var ratio stats.Accumulator
	for seed := uint64(0); seed < 30; seed++ {
		est, err := SampleCF(tab, tab.Schema(), Options{
			Fraction: f, Codec: codec, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio.Add(stats.RatioError(est.CF, truth))
	}
	// The actual number of distinct values present can be below βn (some
	// domain values never drawn); use the realized β for the bound.
	realizedBeta := float64(st[0].Distinct) / float64(n)
	bound, err := Theorem3RatioBound(realizedBeta, f, k, p)
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Mean() > bound {
		t.Fatalf("mean ratio error %v exceeds Theorem-3 bound %v", ratio.Mean(), bound)
	}
}

func TestAnalyticNSMatchesCodec(t *testing.T) {
	// The analytical CF'_NS must equal the engine codec's CF on the same
	// sample rows.
	tab := genTable(t, 1000, 50, distrib.NewUniformLen(0, 20), 37)
	rows := make([]value.Row, 200)
	for i := range rows {
		var err error
		if rows[i], err = tab.Row(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	analytic, err := AnalyticNS(tab.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, len(rows))
	for i, row := range rows {
		rec, err := value.EncodeRecord(tab.Schema(), row, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	res, err := compress.MeasureRecords(tab.Schema(), mustCodec(t, "nullsuppression"), recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytic-res.CF()) > 1e-12 {
		t.Fatalf("analytic %v != codec %v", analytic, res.CF())
	}
	if _, err := AnalyticNS(tab.Schema(), nil); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestAnalyticDictNaiveScaleEqualsSampleCFClosedForm(t *testing.T) {
	// CF via naive-scale DV estimator == p/k + d'/r (the SampleCF closed
	// form) whenever the naive estimate is not clamped.
	profile := distinct.Profile{N: 10000, R: 100, D: 37, F: map[int64]int64{1: 30, 10: 7}}
	if err := profile.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyticDict(20, 4, profile, distinct.NaiveScale{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleCFDictClosedForm(20, 4, profile.D, profile.R)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("naive-scale CF %v != closed form %v", a, b)
	}
	if _, err := AnalyticDict(0, 4, profile, distinct.NaiveScale{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SampleCFDictClosedForm(20, 4, 5, 0); err == nil {
		t.Fatal("r=0 accepted")
	}
}

func TestNSConfidenceInterval(t *testing.T) {
	lo, hi := NSConfidenceInterval(0.5, 10000, 2)
	if math.Abs((hi-lo)-2*2*0.005) > 1e-12 {
		t.Fatalf("interval [%v,%v] wrong width", lo, hi)
	}
	lo, hi = NSConfidenceInterval(0.001, 100, 2)
	if lo != 0 {
		t.Fatalf("lower clamp failed: %v", lo)
	}
	lo, hi = NSConfidenceInterval(0.999, 100, 2)
	if hi != 1 {
		t.Fatalf("upper clamp failed: %v", hi)
	}
	_ = lo
}
