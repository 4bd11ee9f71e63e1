package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"samplecf/internal/distrib"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// adaptiveTable builds one of the property-suite table shapes: "uniform"
// (uniform value draw, shuffled), "zipf" (skewed draw, shuffled), or
// "near-sorted" (uniform draw, clustered layout — rows physically ordered
// by the indexed column).
func adaptiveTable(t testing.TB, kind string, n int64, seed uint64) *workload.Table {
	t.Helper()
	var dist distrib.Discrete
	layout := workload.LayoutShuffled
	switch kind {
	case "uniform":
		dist = distrib.NewUniform(n / 20)
	case "zipf":
		dist = distrib.NewZipf(n/10, 0.8)
	case "near-sorted":
		dist = distrib.NewUniform(n / 20)
		layout = workload.LayoutClustered
	default:
		t.Fatalf("unknown table kind %q", kind)
	}
	col, err := workload.NewStringColumn(value.Char(20), dist, distrib.NewUniformLen(2, 18), seed)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := workload.Generate(workload.Spec{
		Name: kind, N: n, Seed: seed, Layout: layout,
		Cols: []workload.SpecColumn{{Name: "a", Gen: col}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestExtendFromArenaMatchesScratch is the merge-correctness contract:
// preparing r0 rows and extending with r1 more must be indistinguishable —
// estimate, distinct count, profile, compressed bytes — from preparing all
// r0+r1 rows from scratch, for every codec shape.
func TestExtendFromArenaMatchesScratch(t *testing.T) {
	tab := genTable(t, 8000, 300, distrib.NewUniformLen(2, 18), 5)
	schema := tab.Schema()
	const r0, r1 = 300, 500

	drawArena := func(round int, rows int64) *value.RecordArena {
		ar := value.NewRecordArena(schema, int(rows))
		if err := sampling.ExtendWRInto(tab, ar, rows, 42, round); err != nil {
			t.Fatal(err)
		}
		return ar
	}
	first, second := drawArena(0, r0), drawArena(1, r1)

	combined := value.NewRecordArena(schema, r0+r1)
	if err := combined.AppendAll(first); err != nil {
		t.Fatal(err)
	}
	if err := combined.AppendAll(second); err != nil {
		t.Fatal(err)
	}
	scratch, err := PrepareFromArena(combined, tab.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}

	extended, err := PrepareFromArena(first, tab.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := extended.ExtendFromArena(second); err != nil {
		t.Fatal(err)
	}

	if got, want := extended.SampleRows(), scratch.SampleRows(); got != want {
		t.Fatalf("SampleRows %d != %d", got, want)
	}
	if got, want := extended.SampleDistinct(), scratch.SampleDistinct(); got != want {
		t.Fatalf("SampleDistinct %d != %d", got, want)
	}
	for _, codec := range []string{"nullsuppression", "pagedict+ns", "rle", "prefix", "globaldict-p4"} {
		opts := Options{Codec: mustCodec(t, codec)}
		a, err := extended.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scratch.Estimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.CF != b.CF || a.Result.CompressedBytes != b.Result.CompressedBytes {
			t.Errorf("%s: extended (CF %v, %d bytes) != scratch (CF %v, %d bytes)",
				codec, a.CF, a.Result.CompressedBytes, b.CF, b.Result.CompressedBytes)
		}
		if fmt.Sprint(a.Profile.F) != fmt.Sprint(b.Profile.F) {
			t.Errorf("%s: profiles differ: %v vs %v", codec, a.Profile.F, b.Profile.F)
		}
	}
}

// TestExtendCopiesSharedArena checks copy-on-extend: a PreparedIndex that
// aliases the sample arena it was fed (identity projection) must not write
// into it when extended.
func TestExtendCopiesSharedArena(t *testing.T) {
	tab := genTable(t, 2000, 50, distrib.NewUniformLen(2, 18), 9)
	schema := tab.Schema()
	sample := value.NewRecordArena(schema, 100)
	if err := sampling.UniformWRInto(tab, 100, rng.New(1), sample); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), sample.Recs()...)

	p, err := PrepareFromArena(sample, tab.NumRows(), nil) // identity: aliases sample
	if err != nil {
		t.Fatal(err)
	}
	ext := value.NewRecordArena(schema, 50)
	if err := sampling.ExtendWRInto(tab, ext, 50, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.ExtendFromArena(ext); err != nil {
		t.Fatal(err)
	}
	if p.SampleRows() != 150 {
		t.Fatalf("prepared index has %d rows, want 150", p.SampleRows())
	}
	if sample.Len() != 100 {
		t.Fatalf("shared sample arena grew to %d rows", sample.Len())
	}
	if !bytes.Equal(before, sample.Recs()) {
		t.Error("extension mutated the shared sample arena")
	}
}

// TestAdaptiveConvergenceProperty is the acceptance-criteria suite: across
// table shapes × seeds × codec families, an adaptive run either converges
// with the achieved CI half-width within the target, or exhausts exactly
// its row budget and says so.
func TestAdaptiveConvergenceProperty(t *testing.T) {
	const n = 20000
	kinds := []string{"uniform", "zipf", "near-sorted"}
	codecs := []string{"nullsuppression", "rle"} // theorem-1 and bootstrap CI paths
	for _, kind := range kinds {
		for seed := uint64(1); seed <= 3; seed++ {
			tab := adaptiveTable(t, kind, n, seed)
			for _, codec := range codecs {
				name := fmt.Sprintf("%s/seed=%d/%s", kind, seed, codec)
				target := Precision{TargetError: 0.05, Confidence: 0.95}
				res, err := SampleCFAdaptive(tab, tab.Schema(), Options{
					Codec: mustCodec(t, codec), Seed: seed,
				}, target)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !res.Converged {
					t.Errorf("%s: did not converge within n=%d rows (achieved ±%v)",
						name, n, res.AchievedError)
					continue
				}
				if res.AchievedError > target.TargetError {
					t.Errorf("%s: converged but achieved ±%v > target ±%v",
						name, res.AchievedError, target.TargetError)
				}
				if res.Estimate.SampleRows > n {
					t.Errorf("%s: spent %d rows, budget was n=%d", name, res.Estimate.SampleRows, n)
				}
				if res.Rounds < 1 {
					t.Errorf("%s: %d rounds", name, res.Rounds)
				}
				if res.CILo > res.Estimate.CF || res.CIHi < res.Estimate.CF {
					t.Errorf("%s: CF %v outside its own interval [%v,%v]",
						name, res.Estimate.CF, res.CILo, res.CIHi)
				}

				// Determinism: the same request replays to the same result.
				again, err := SampleCFAdaptive(tab, tab.Schema(), Options{
					Codec: mustCodec(t, codec), Seed: seed,
				}, target)
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				if again.Estimate.CF != res.Estimate.CF || again.Rounds != res.Rounds ||
					again.Estimate.SampleRows != res.Estimate.SampleRows {
					t.Errorf("%s: replay diverged (CF %v/%v, rounds %d/%d, rows %d/%d)",
						name, res.Estimate.CF, again.Estimate.CF, res.Rounds, again.Rounds,
						res.Estimate.SampleRows, again.Estimate.SampleRows)
				}
			}
		}
	}
}

// TestAdaptiveBudgetExhaustionHonest: an unreachable target must stop at
// exactly MaxSampleRows, report Converged=false, and carry the honest
// residual half-width.
func TestAdaptiveBudgetExhaustionHonest(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 20000, 2)
	const budget = 400
	res, err := SampleCFAdaptive(tab, tab.Schema(), Options{
		Codec: mustCodec(t, "nullsuppression"), Seed: 3,
	}, Precision{TargetError: 0.001, Confidence: 0.99, MaxSampleRows: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("±0.001 from 400 rows should be unreachable (Theorem 1 needs ~1.7M)")
	}
	if res.Estimate.SampleRows != budget {
		t.Errorf("stopped at %d rows, want the full budget %d", res.Estimate.SampleRows, budget)
	}
	if res.AchievedError <= 0.001 {
		t.Errorf("honest residual ±%v should exceed the target", res.AchievedError)
	}
	// The residual must match Theorem 1 at the budget exactly.
	want := stats.NormalQuantile(1-(1-0.99)/2) * Theorem1StdDevBound(budget)
	if math.Abs(res.AchievedError-want) > 1e-12 {
		t.Errorf("residual ±%v, want z·bound = ±%v", res.AchievedError, want)
	}
}

// TestAdaptiveNSCoversTruth: for null suppression the achieved interval is
// Theorem 1's distribution-free bound — the true CF must fall inside it in
// essentially every run (the bound is worst-case, not approximate).
func TestAdaptiveNSCoversTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	tab := adaptiveTable(t, "zipf", 30000, 7)
	codec := mustCodec(t, "nullsuppression")
	truth, err := TrueCF(tab, nil, codec, 0)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		res, err := SampleCFAdaptive(tab, tab.Schema(), Options{Codec: codec, Seed: seed},
			Precision{TargetError: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge", seed)
		}
		if truth.CF() >= res.CILo && truth.CF() <= res.CIHi {
			covered++
		}
	}
	if covered < trials-1 {
		t.Errorf("worst-case interval covered truth only %d/%d times", covered, trials)
	}
}

// TestTheorem1RequiredRows pins the bound inversion used to jump straight
// to the needed r.
func TestTheorem1RequiredRows(t *testing.T) {
	z := stats.NormalQuantile(0.975)
	r := Theorem1RequiredRows(z, 0.02)
	if r < 2300 || r > 2500 {
		t.Fatalf("required r = %d, want ≈ 2401", r)
	}
	if got := z * Theorem1StdDevBound(r); got > 0.02 {
		t.Errorf("bound at required r is %v, exceeds target", got)
	}
	if got := z * Theorem1StdDevBound(r-1); got <= 0.02 {
		t.Errorf("r is not minimal: bound at r-1 is %v", got)
	}
}

// TestPrecisionValidate rejects malformed targets.
func TestPrecisionValidate(t *testing.T) {
	bad := []Precision{
		{TargetError: 0},
		{TargetError: -0.1},
		{TargetError: 1},
		{TargetError: 0.02, Confidence: 1.5},
		{TargetError: 0.02, MaxSampleRows: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, p)
		}
	}
	good := Precision{TargetError: 0.02, Confidence: 0.9, MaxSampleRows: 1000}
	if err := good.Validate(); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
}

// TestAdaptiveEmptyExtension: an ExtendFunc that returns nothing must fail
// loudly rather than loop forever.
func TestAdaptiveEmptyExtension(t *testing.T) {
	tab := genTable(t, 2000, 50, distrib.NewUniformLen(2, 18), 1)
	sample := value.NewRecordArena(tab.Schema(), 16)
	if err := sampling.UniformWRInto(tab, 16, rng.New(1), sample); err != nil {
		t.Fatal(err)
	}
	arm := StratumArm{
		Label: "table", Weight: 1, Rows: tab.NumRows(),
		Extend: func(round int, extra int64) (*value.RecordArena, error) {
			if round == 0 {
				return sample, nil
			}
			return value.NewRecordArena(tab.Schema(), 0), nil
		},
	}
	_, err := AdaptiveEstimateStratified([]StratumArm{arm}, []int64{16},
		Precision{TargetError: 0.001},
		Options{Codec: mustCodec(t, "nullsuppression")})
	if err == nil {
		t.Fatal("empty extension accepted")
	}
}
