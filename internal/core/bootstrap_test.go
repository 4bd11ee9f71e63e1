package core

import (
	"fmt"
	"math"
	"testing"

	"samplecf/internal/compress"
	"samplecf/internal/distrib"
	"samplecf/internal/rng"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

func TestBootstrapValidation(t *testing.T) {
	tab := genTable(t, 1000, 50, distrib.NewUniformLen(2, 18), 1)
	codec := mustCodec(t, "nullsuppression")
	_, sample, err := SampleCFWithSample(tab, tab.Schema(), Options{
		Fraction: 0.1, Codec: codec, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bootstrap(sample, codec, 0, 5, 0.05, 1); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := Bootstrap(sample, codec, 0, 50, 1.5, 1); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := Bootstrap(nil, codec, 0, 50, 0.05, 1); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestSampleCFWithSampleConsistent(t *testing.T) {
	// Same options ⇒ SampleCFWithSample and SampleCF agree exactly.
	tab := genTable(t, 5000, 200, distrib.NewUniformLen(2, 18), 3)
	opts := Options{Fraction: 0.05, Codec: mustCodec(t, "nullsuppression"), Seed: 11}
	a, sample, err := SampleCFWithSample(tab, tab.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleCF(tab, tab.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.CF != b.CF || a.SampleDistinct != b.SampleDistinct {
		t.Fatalf("paths disagree: %v vs %v", a.CF, b.CF)
	}
	if int64(sample.Len()) != a.SampleRows {
		t.Fatalf("returned %d rows, estimate says %d", sample.Len(), a.SampleRows)
	}
	if _, _, err := SampleCFWithSample(tab, tab.Schema(), Options{
		Fraction: 0.05, Codec: mustCodec(t, "nullsuppression"), Method: MethodBlock,
	}); err == nil {
		t.Error("non-WR method accepted")
	}
}

func TestBootstrapCICoversTruthNS(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// The 95% bootstrap interval should contain the true CF in most of 20
	// independent estimations (binomial: ≥ 15 is overwhelmingly likely
	// given per-trial coverage ≈ 0.95).
	tab := genTable(t, 30000, 1000, distrib.NewUniformLen(0, 20), 7)
	codec := mustCodec(t, "nullsuppression")
	truth, err := TrueCF(tab, nil, codec, 0)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		_, sample, err := SampleCFWithSample(tab, tab.Schema(), Options{
			Fraction: 0.02, Codec: codec, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ci, err := Bootstrap(sample, codec, 0, 200, 0.05, seed+1000)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Lo > ci.Hi {
			t.Fatalf("inverted interval [%v,%v]", ci.Lo, ci.Hi)
		}
		if truth.CF() >= ci.Lo && truth.CF() <= ci.Hi {
			covered++
		}
	}
	if covered < 15 {
		t.Fatalf("95%% bootstrap CI covered truth only %d/%d times", covered, trials)
	}
}

func TestBootstrapSDMatchesTheorem1Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// The bootstrap SD for NS should approximate the exact σ of Theorem 1 —
	// and respect the distribution-free bound.
	tab := genTable(t, 30000, 5000, distrib.NewUniformLen(0, 20), 9)
	codec := mustCodec(t, "nullsuppression")
	st, err := workload.ComputeStats(tab)
	if err != nil {
		t.Fatal(err)
	}
	const r = 600
	_, sample, err := SampleCFWithSample(tab, tab.Schema(), Options{
		SampleRows: r, Codec: codec, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := Bootstrap(sample, codec, 0, 300, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := Theorem1StdDevExact(st[0].VarNS(), 20, r)
	if ci.SD > 1.6*exact || ci.SD < exact/1.6 {
		t.Fatalf("bootstrap SD %v far from exact σ %v", ci.SD, exact)
	}
	if ci.SD > Theorem1StdDevBound(r)*1.2 {
		t.Fatalf("bootstrap SD %v exceeds Theorem 1 bound %v", ci.SD, Theorem1StdDevBound(r))
	}
}

func TestBootstrapDictCollapse(t *testing.T) {
	// Pins the documented caveat: for cardinality-sensitive codecs the
	// naive bootstrap collapses d' by ≈ (1-1/e), so resampled CF
	// systematically undershoots the point estimate.
	tab := genTable(t, 20000, 10000, distrib.NewConstantLen(10), 13)
	codec := compress.GlobalDict{PointerBytes: 4}
	est, sample, err := SampleCFWithSample(tab, tab.Schema(), Options{
		Fraction: 0.02, Codec: codec, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := Bootstrap(sample, codec, 0, 150, 0.05, 22)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ci.SD) || ci.SD <= 0 || ci.Lo > ci.Hi {
		t.Fatalf("malformed interval %+v", ci)
	}
	if est.CF <= ci.Hi {
		t.Fatalf("expected collapse: point estimate %v should exceed interval hi %v", est.CF, ci.Hi)
	}
	// Quantify: with a nearly-all-distinct sample, the bootstrap mean CF
	// should be ≈ p/k + (1-1/e)·d'/r (k = 20 here: CHAR(20), p = 4).
	r := float64(est.SampleRows)
	predicted := 4.0/20.0 + (1-1/math.E)*float64(est.SampleDistinct)/r
	mid := (ci.Lo + ci.Hi) / 2
	if math.Abs(mid-predicted) > 0.08 {
		t.Fatalf("bootstrap center %v far from predicted collapse %v", mid, predicted)
	}
}

// benchBootstrapSample builds an r-row (customer CHAR(12), qty INT32)
// arena: skewed customers over r/4 names, and quantities 1–50.
func benchBootstrapSample(b *testing.B, r int) *value.RecordArena {
	b.Helper()
	schema, err := value.NewSchema(
		value.Column{Name: "customer", Type: value.Char(12)},
		value.Column{Name: "qty", Type: value.Int32()},
	)
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(uint64(r))
	d := max(r/4, 1)
	ar := value.NewRecordArena(schema, r)
	for i := 0; i < r; i++ {
		row := value.Row{
			[]byte(fmt.Sprintf("cust%d", g.Intn(g.Intn(d)+1))),
			value.IntValue(int32(1 + g.Intn(50))),
		}
		if err := ar.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	return ar
}

// BenchmarkBootstrap measures the bootstrap SD behind an adaptive round's
// interval (SDScale: B=48 resamples, each read off the prepared sort and
// sized) for codecs without an analytic bound, at sample sizes adaptive
// asks reach. The SD is reported as the "sd" metric, so a change of
// output shows beside a change of speed.
func BenchmarkBootstrap(b *testing.B) {
	for _, r := range []int{2401, 10_000} {
		p, err := PrepareFromArena(benchBootstrapSample(b, r), 1_000_000, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"rle", "pagedict", "page", "globaldict", "huffman"} {
			opts := Options{Codec: mustCodec(b, name), Seed: 1}
			b.Run(fmt.Sprintf("%s/r=%d", name, r), func(b *testing.B) {
				b.ReportAllocs()
				var sd float64
				for i := 0; i < b.N; i++ {
					if _, sd, err = p.SDScale(opts, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(sd, "sd")
			})
		}
	}
}
