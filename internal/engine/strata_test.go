package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/obs"
	"samplecf/internal/value"
)

// TestStratifiedSingleStratumMatchesPlain pins the engine's degenerate
// contract: a Strata=1 fixed-r request reproduces the plain fresh-draw
// estimate byte-for-byte (stratum 0 keeps the request seed and a one-arm
// merge passes through verbatim).
func TestStratifiedSingleStratumMatchesPlain(t *testing.T) {
	tab := testTable(t, "strat1", 6000, 11)
	e := New(Config{Workers: 2, CacheEntries: -1})
	defer e.Close()
	for _, codecName := range []string{"nullsuppression", "rle"} {
		plain := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, codecName), SampleRows: 500, Seed: 9, FreshSample: true,
		})
		strat := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, codecName), SampleRows: 500, Seed: 9, FreshSample: true,
			Strata: 1,
		})
		if plain.Err != nil || strat.Err != nil {
			t.Fatalf("errs: %v / %v", plain.Err, strat.Err)
		}
		p, s := plain.Estimate, strat.Estimate
		if p.CF != s.CF || p.SampleRows != s.SampleRows ||
			p.SampleDistinct != s.SampleDistinct ||
			p.Result.CompressedBytes != s.Result.CompressedBytes ||
			p.Result.UncompressedBytes != s.Result.UncompressedBytes {
			t.Errorf("%s: strata=1 (CF %v, r %d) != plain (CF %v, r %d)",
				codecName, s.CF, s.SampleRows, p.CF, p.SampleRows)
		}
	}
}

// TestSingleStratumSharesPlainCacheEntry pins the Strata 1 rewrite: one
// stratum is no stratification, so a non-fresh Strata 1 ask is answered
// from the cache entry a Strata 0 ask made, with an equal estimate, and
// counts as no stratified estimate.
func TestSingleStratumSharesPlainCacheEntry(t *testing.T) {
	tab := testTable(t, "strat1cache", 6000, 13)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{Table: tab, Codec: codec(t, "rle"), SampleRows: 500, Seed: 4}
	plain := e.Estimate(context.Background(), req)
	req.Strata = 1
	one := e.Estimate(context.Background(), req)
	if plain.Err != nil || one.Err != nil {
		t.Fatalf("errs: %v / %v", plain.Err, one.Err)
	}
	if !one.CacheHit {
		t.Error("Strata 1 ask missed the Strata 0 cache entry")
	}
	if one.Estimate.CF != plain.Estimate.CF || one.Estimate.SampleRows != plain.Estimate.SampleRows {
		t.Errorf("Strata 1 CF %v (%d rows) != Strata 0 CF %v (%d rows)",
			one.Estimate.CF, one.Estimate.SampleRows, plain.Estimate.CF, plain.Estimate.SampleRows)
	}
	if n := e.Stats().StratifiedEstimates; n != 0 {
		t.Errorf("StratifiedEstimates = %d, want 0", n)
	}
}

// TestStratifiedResultCached checks stratified results land in the LRU under
// their own strata-scoped key: a repeat hits, a different strata count
// misses, and the partition cache absorbs the repeat partition builds.
func TestStratifiedResultCached(t *testing.T) {
	tab := testTable(t, "stratcache", 6000, 3)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{Table: tab, Codec: codec(t, "rle"), SampleRows: 400, Seed: 5, Strata: 4}
	first := e.Estimate(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first stratified request hit the cache")
	}
	second := e.Estimate(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Error("identical stratified request missed the cache")
	}
	if second.Estimate.CF != first.Estimate.CF {
		t.Errorf("cached CF %v != computed %v", second.Estimate.CF, first.Estimate.CF)
	}
	req.Strata = 2
	third := e.Estimate(context.Background(), req)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if third.CacheHit {
		t.Error("different strata count was answered from cache")
	}
	st := e.Stats()
	if st.StratifiedEstimates != 2 {
		t.Errorf("StratifiedEstimates = %d, want 2", st.StratifiedEstimates)
	}
	// One partition per strata count; the repeat reused the first build.
	if st.StrataDirBuilds != 2 {
		t.Errorf("StrataDirBuilds = %d, want 2", st.StrataDirBuilds)
	}
}

// TestStratifiedAdaptiveConverges runs the precision-targeted stratified
// loop end to end on a skewed table and checks the dominance cache answers
// the repeat ask.
func TestStratifiedAdaptiveConverges(t *testing.T) {
	tab := testTable(t, "stratadapt", 20000, 17)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{
		Table: tab, Codec: codec(t, "rle"), Seed: 1,
		Strata: 8, TargetError: 0.04,
	}
	res := e.Estimate(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: achieved %v", res.AchievedError)
	}
	if res.AchievedError > req.TargetError {
		t.Errorf("achieved %v > target %v", res.AchievedError, req.TargetError)
	}
	if res.CacheHit {
		t.Error("first adaptive request hit the precision cache")
	}
	again := e.Estimate(context.Background(), req)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !again.CacheHit {
		t.Error("repeat adaptive ask missed the precision cache")
	}
	// Dominance must not cross strata settings: the same ask unstratified
	// is a different estimand family and recomputes.
	req.Strata = 0
	plain := e.Estimate(context.Background(), req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if plain.CacheHit {
		t.Error("unstratified ask was answered from a stratified precision entry")
	}
}

// TestShardedStratifiedComposes checks strata compose with shard scatter:
// each shard stratifies independently and the flat shard×stratum arm set
// merges into one sane whole-table estimate, on both the fixed and the
// adaptive path.
func TestShardedStratifiedComposes(t *testing.T) {
	d := db.New(0)
	st := liveShardedTable(t, d, "stratshard", 4, 3000)
	e := New(Config{Workers: 2})
	defer e.Close()

	base := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), SampleRows: 1200, Seed: 7,
	})
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	fixed := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), SampleRows: 1200, Seed: 7, Strata: 4,
	})
	if fixed.Err != nil {
		t.Fatal(fixed.Err)
	}
	if fixed.Estimate.CF <= 0 || fixed.Estimate.CF >= 1 {
		t.Errorf("sharded stratified CF %v outside (0,1)", fixed.Estimate.CF)
	}
	if diff := fixed.Estimate.CF - base.Estimate.CF; diff > 0.15 || diff < -0.15 {
		t.Errorf("sharded stratified CF %v far from scatter CF %v", fixed.Estimate.CF, base.Estimate.CF)
	}
	// The stratified sample covers every shard×stratum cell at least once.
	if fixed.Estimate.SampleRows < 1200 {
		t.Errorf("sampled %d rows, want >= 1200", fixed.Estimate.SampleRows)
	}

	adaptive := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), Seed: 7, Strata: 2, TargetError: 0.05,
	})
	if adaptive.Err != nil {
		t.Fatal(adaptive.Err)
	}
	if !adaptive.Converged {
		t.Errorf("sharded stratified adaptive did not converge: achieved %v", adaptive.AchievedError)
	}
}

// TestStratifiedObsInstruments checks the stratified ledgers move: the
// estimates counter, the partition-build counter, the strata-count
// histogram, and at least one rows-per-stratum child.
func TestStratifiedObsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	tab := testTable(t, "stratobs", 6000, 23)
	e := New(Config{Workers: 2, Metrics: reg})
	defer e.Close()
	res := e.Estimate(context.Background(), Request{
		Table: tab, Codec: codec(t, "rle"), SampleRows: 400, Seed: 5, Strata: 4,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if v, _ := reg.Value(MetricStratified); v != 1 {
		t.Errorf("%s = %v, want 1", MetricStratified, v)
	}
	if v, _ := reg.Value(MetricStrataDirBuilds); v != 1 {
		t.Errorf("%s = %v, want 1", MetricStrataDirBuilds, v)
	}
	if e.strataCountHist.Count() != 1 {
		t.Errorf("strata-count histogram has %d observations, want 1", e.strataCountHist.Count())
	}
	if rows := e.strataRows.With("0").Value(); rows == 0 {
		t.Error("stratum 0 drew no instrumented rows")
	}
	var total uint64
	for h := 0; h < 4; h++ {
		total += e.strataRows.With(string(rune('0' + h))).Value()
	}
	if total != uint64(res.Estimate.SampleRows) {
		t.Errorf("rows-per-stratum ledger totals %d, estimate sampled %d", total, res.Estimate.SampleRows)
	}
}

// TestStratifiedValidation rejects malformed strata counts.
func TestStratifiedValidation(t *testing.T) {
	tab := testTable(t, "stratbad", 1000, 1)
	e := New(Config{Workers: 1})
	defer e.Close()
	res := e.Estimate(context.Background(), Request{
		Table: tab, Codec: codec(t, "rle"), SampleRows: 100, Strata: -2,
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "strata") {
		t.Fatalf("negative strata accepted: %v", res.Err)
	}
}

// TestRoutedStratifiedDeterministic pins that routed stratified draws are a
// function of the request alone: a stratified adaptive ask returns the same
// Estimate, Rounds and AchievedError at GOMAXPROCS 1 and, repeated, at 4
// over several seeds, and under 16 concurrent identical asks — each on its
// own engine, so no flight coalesces them and every ask builds its own
// partition and routers over the shared table. Run under -race it also
// checks the routers' locking.
func TestRoutedStratifiedDeterministic(t *testing.T) {
	d := db.New(0)
	tables := map[string]Table{
		"plain":   testTable(t, "routed", 20000, 41),
		"sharded": liveShardedTable(t, d, "routedshard", 3, 3000),
	}
	for name, tab := range tables {
		t.Run(name, func(t *testing.T) {
			ask := func(seed uint64) Result {
				e := New(Config{CacheEntries: -1})
				defer e.Close()
				res := e.Estimate(context.Background(), Request{Table: tab, Codec: codec(t, "rle"),
					Seed: seed, Strata: 4, TargetError: 0.01, SampleRows: 64})
				if res.Err != nil {
					t.Error(res.Err)
				}
				return res
			}
			timeless := func(e core.Estimate) core.Estimate {
				e.SampleDuration, e.BuildDuration, e.CompressDuration = 0, 0, 0
				return e
			}
			same := func(what string, a, b Result) {
				t.Helper()
				if !reflect.DeepEqual(timeless(a.Estimate), timeless(b.Estimate)) ||
					a.Rounds != b.Rounds || a.AchievedError != b.AchievedError {
					t.Errorf("%s: CF %v ± %v in %d rounds (%d rows), want CF %v ± %v in %d rounds (%d rows)", what,
						b.Estimate.CF, b.AchievedError, b.Rounds, b.Estimate.SampleRows,
						a.Estimate.CF, a.AchievedError, a.Rounds, a.Estimate.SampleRows)
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for seed := uint64(1); seed <= 6; seed++ {
				runtime.GOMAXPROCS(1)
				one := ask(seed)
				runtime.GOMAXPROCS(4)
				for rep := 0; rep < 3; rep++ {
					same(fmt.Sprintf("seed %d at GOMAXPROCS 4", seed), one, ask(seed))
				}
			}

			one := ask(13)
			if one.Rounds < 2 {
				t.Fatalf("ask converged in %d round; the check needs extensions", one.Rounds)
			}
			results := make([]Result, 16)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = ask(13)
				}(i)
			}
			wg.Wait()
			for i, r := range results {
				same(fmt.Sprintf("concurrent ask %d", i), one, r)
			}
		})
	}
}

// TestHookArmCountsReturnedRows pins the sampled-rows count a degraded
// fixed-r interval reads: hookArm adds what each extension returned, not
// what it asked for, so an arm that comes back short (a routed arm at its
// scan cap) counts at its real size.
func TestHookArmCountsReturnedRows(t *testing.T) {
	schema, err := value.NewSchema(value.Column{Name: "a", Type: value.Int32()})
	if err != nil {
		t.Fatal(err)
	}
	arm := core.StratumArm{Label: "short", Extend: func(round int, extra int64) (*value.RecordArena, error) {
		ar := value.NewRecordArena(schema, int(extra/2))
		for i := int64(0); i < extra/2; i++ {
			if err := ar.Append(value.Row{value.IntValue(int32(i))}); err != nil {
				return nil, err
			}
		}
		return ar, nil
	}}
	e := New(Config{})
	defer e.Close()
	var drawn int64
	e.hookArm(context.Background(), Request{}, &arm, -1, nil, &drawn)
	for round, extra := range []int64{100, 40} {
		if _, err := arm.Extend(round, extra); err != nil {
			t.Fatal(err)
		}
	}
	if drawn != 70 {
		t.Errorf("drawn = %d rows, want the 70 returned (140 asked)", drawn)
	}
}
