package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// boundarySource wraps a RowSource with a canned IndexKeyBoundaries answer,
// standing in for a table that maintains a matching index.
type boundarySource struct {
	sampling.RowSource
	bounds [][]byte
	asked  int
}

func (b *boundarySource) IndexKeyBoundaries(keyCols []string, strata int) ([][]byte, bool) {
	b.asked = strata
	return b.bounds, true
}

// TestStratifiedSingleStratumMatchesUnstratified pins the degenerate
// contract on the fixed-size path: Strata=1 must reproduce the unstratified
// estimate byte-for-byte — same draws, same sorted arena, same compressed
// pages — for both CI families of codec.
func TestStratifiedSingleStratumMatchesUnstratified(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 10000, 11)
	for _, codec := range []string{"nullsuppression", "rle", "pagedict+ns"} {
		for _, seed := range []uint64{1, 7} {
			opts := Options{SampleRows: 600, Codec: mustCodec(t, codec), Seed: seed}
			plain, err := SampleCF(tab, tab.Schema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Strata = 1
			strat, err := SampleCF(tab, tab.Schema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if plain.CF != strat.CF ||
				plain.SampleRows != strat.SampleRows ||
				plain.SampleDistinct != strat.SampleDistinct ||
				plain.Result.CompressedBytes != strat.Result.CompressedBytes ||
				plain.Result.UncompressedBytes != strat.Result.UncompressedBytes {
				t.Errorf("%s seed %d: strata=1 (CF %v, r %d, d %d, %d/%d bytes) != unstratified (CF %v, r %d, d %d, %d/%d bytes)",
					codec, seed,
					strat.CF, strat.SampleRows, strat.SampleDistinct,
					strat.Result.CompressedBytes, strat.Result.UncompressedBytes,
					plain.CF, plain.SampleRows, plain.SampleDistinct,
					plain.Result.CompressedBytes, plain.Result.UncompressedBytes)
			}
		}
	}
}

// TestStratifiedAdaptiveSingleStratumMatchesUnstratified pins the same
// contract on the precision-targeted path: Strata=1 and the unstratified
// ask both run the arm loop over one TableArm — same round streams, same
// bootstrap seeds, same growth schedule (the Theorem-1 jump included) — so
// every reported field coincides.
func TestStratifiedAdaptiveSingleStratumMatchesUnstratified(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 20000, 3)
	opts := Options{Codec: mustCodec(t, "rle"), Seed: 3}
	target := Precision{TargetError: 0.03}
	plain, err := SampleCFAdaptive(tab, tab.Schema(), opts, target)
	if err != nil {
		t.Fatal(err)
	}
	opts.Strata = 1
	strat, err := SampleCFAdaptive(tab, tab.Schema(), opts, target)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Estimate.CF != strat.Estimate.CF ||
		plain.Estimate.SampleRows != strat.Estimate.SampleRows ||
		plain.AchievedError != strat.AchievedError ||
		plain.Rounds != strat.Rounds ||
		plain.Converged != strat.Converged {
		t.Errorf("strata=1 adaptive (CF %v ± %v, r %d, rounds %d) != unstratified (CF %v ± %v, r %d, rounds %d)",
			strat.Estimate.CF, strat.AchievedError, strat.Estimate.SampleRows, strat.Rounds,
			plain.Estimate.CF, plain.AchievedError, plain.Estimate.SampleRows, plain.Rounds)
	}
}

// TestStratifiedProportionalCINoWorseOnUniform is the no-harm property: on
// a uniform table there is no between-strata variance to remove, so
// stratified estimation at proportional round-0 allocation must reach the
// same precision target without pathological extra cost, for every strata
// count and seed in the suite.
func TestStratifiedProportionalCINoWorseOnUniform(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 20000, 17)
	const targetErr = 0.04
	for _, codec := range []string{"nullsuppression", "rle"} {
		for _, seed := range []uint64{1, 5} {
			base, err := SampleCFAdaptive(tab, tab.Schema(),
				Options{Codec: mustCodec(t, codec), Seed: seed},
				Precision{TargetError: targetErr})
			if err != nil {
				t.Fatal(err)
			}
			if !base.Converged {
				t.Fatalf("%s seed %d: uniform path did not converge", codec, seed)
			}
			for _, strata := range []int{1, 2, 4, 8} {
				res, err := SampleCFAdaptive(tab, tab.Schema(),
					Options{Codec: mustCodec(t, codec), Seed: seed, Strata: strata},
					Precision{TargetError: targetErr})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Errorf("%s seed %d strata %d: did not converge", codec, seed, strata)
					continue
				}
				if res.AchievedError > targetErr {
					t.Errorf("%s seed %d strata %d: achieved %v > target %v",
						codec, seed, strata, res.AchievedError, targetErr)
				}
				// Doubling granularity and per-stratum floors allow some
				// overshoot, but proportional stratification must not blow
				// up the row budget on data it cannot help.
				if lim := 3 * base.Estimate.SampleRows; res.Estimate.SampleRows > lim {
					t.Errorf("%s seed %d strata %d: sampled %d rows, uniform needed %d",
						codec, seed, strata, res.Estimate.SampleRows, base.Estimate.SampleRows)
				}
			}
		}
	}
}

// TestStratumBoundariesPrefersIndex checks resolution order: an index-backed
// source answers boundary requests without any pilot draw, and the pilot
// fallback produces strictly ascending cut points.
func TestStratumBoundariesPrefersIndex(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 4000, 23)
	canned := [][]byte{append([]byte("m"), make([]byte, 19)...)}
	src := &boundarySource{RowSource: tab, bounds: canned}
	got, err := StratumBoundaries(src, src, tab.Schema(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if src.asked != 4 {
		t.Fatalf("index asked for %d strata, want 4", src.asked)
	}
	if len(got) != 1 || !bytes.Equal(got[0], canned[0]) {
		t.Fatalf("index boundaries not used: %q", got)
	}
	// Pilot fallback: plain table, ascending bounds, seed-independent.
	for _, strata := range []int{2, 4, 8} {
		b1, err := StratumBoundaries(nil, tab, tab.Schema(), nil, strata)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) == 0 || len(b1) > strata-1 {
			t.Fatalf("strata %d: got %d pilot boundaries", strata, len(b1))
		}
		for i := 1; i < len(b1); i++ {
			if bytes.Compare(b1[i-1], b1[i]) >= 0 {
				t.Fatalf("strata %d: pilot boundaries not ascending", strata)
			}
		}
		b2, err := StratumBoundaries(nil, tab, tab.Schema(), nil, strata)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) != len(b2) || !bytes.Equal(bytes.Join(b1, nil), bytes.Join(b2, nil)) {
			t.Fatalf("strata %d: pilot boundaries not deterministic", strata)
		}
	}
	// Strata ≤ 1: no boundaries, no pilot.
	if b, err := StratumBoundaries(nil, tab, tab.Schema(), nil, 1); err != nil || len(b) != 0 {
		t.Fatalf("strata=1: bounds=%v err=%v", b, err)
	}
}

// pilotPartition cuts src's key domain at bounds and weighs the strata by
// the weight pilot.
func pilotPartition(src sampling.RowSource, schema *value.Schema, keyCols []string, bounds [][]byte) (*Partition, error) {
	cuts, err := NewCuts(schema, keyCols, bounds)
	if err != nil {
		return nil, err
	}
	return cuts.PilotWeights(src)
}

// TestStratifyTablePartitions checks the weight pilot partitions the
// table: its tallies cover all m pilot rows, the weights sum to one, the
// arms' estimated sizes cover the table, and the pilot is deterministic.
func TestStratifyTablePartitions(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 6000, 29)
	bounds, err := StratumBoundaries(nil, tab, tab.Schema(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pilotPartition(tab, tab.Schema(), nil, bounds)
	if err != nil {
		t.Fatal(err)
	}
	var pilot int64
	for _, c := range p.counts {
		pilot += c
	}
	if pilot != weightPilotRows {
		t.Fatalf("pilot tallies %d of %d rows", pilot, weightPilotRows)
	}
	arms, err := RoutedArms(tab, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	var wsum float64
	for _, a := range arms {
		rows += a.Rows
		wsum += a.Weight
		if a.Pilot != weightPilotRows {
			t.Errorf("%s: pilot size %d, want %d", a.Label, a.Pilot, weightPilotRows)
		}
	}
	if d := rows - tab.NumRows(); d < -int64(len(arms)) || d > int64(len(arms)) || math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("arms cover %d of %d rows, weights sum to %v", rows, tab.NumRows(), wsum)
	}
	again, err := pilotPartition(tab, tab.Schema(), nil, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again.counts) != fmt.Sprint(p.counts) {
		t.Fatalf("weight pilot not deterministic: %v vs %v", again.counts, p.counts)
	}
}

// TestRoutedNearEmptyStratumAnswers stratifies by index-provided cut
// points that leave one stratum a single key value (about 0.1% of rows):
// the weight pilot still sees it, every take searches at most its cap of
// stream rows, and the stratified adaptive ask answers.
func TestRoutedNearEmptyStratumAnswers(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 20000, 31)
	schema := tab.Schema()
	keys := make([][]byte, tab.NumRows())
	for i := range keys {
		row, err := tab.Row(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if keys[i], err = value.EncodeKey(schema, row, nil); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	lo := keys[len(keys)/2]
	hi := lo
	for _, k := range keys[len(keys)/2:] {
		if !bytes.Equal(k, lo) {
			hi = k
			break
		}
	}
	src := &boundarySource{RowSource: tab, bounds: [][]byte{lo, hi}}
	bounds, err := StratumBoundaries(src, src, schema, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pilotPartition(tab, schema, nil, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if p.counts[1] == 0 || p.counts[1] > 40 {
		t.Fatalf("near-empty stratum drew %d pilot rows, want a handful", p.counts[1])
	}
	arms, err := RoutedArms(tab, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var caps int64
	for i := range arms {
		ext, mh := arms[i].Extend, int64(math.Round(arms[i].Weight*float64(weightPilotRows)))
		arms[i].Extend = func(round int, extra int64) (*value.RecordArena, error) {
			mu.Lock()
			caps += routeScan(extra, mh, weightPilotRows)
			mu.Unlock()
			return ext(round, extra)
		}
	}
	drawn := func() float64 {
		v, _ := obs.Default().Value("samplecf_sampling_rows_drawn_total")
		return v
	}
	before := drawn()
	res, err := AdaptiveEstimateStratified(arms, sampling.Allocate(256, ArmRows(arms), nil),
		Precision{TargetError: 0.03}, Options{Codec: mustCodec(t, "rle"), Seed: 4})
	if err != nil {
		t.Fatalf("ask with a near-empty stratum failed: %v", err)
	}
	if got := int64(drawn() - before); got > caps {
		t.Errorf("stream drew %d rows, the takes' caps allow %d", got, caps)
	}
	if res.Estimate.CF <= 0 || res.Estimate.CF >= 1 {
		t.Errorf("CF %v outside (0,1)", res.Estimate.CF)
	}
}

// TestEquiDepthFromKeysUnsortedInput checks key samples need no pre-sort
// and the input survives unmutated.
func TestEquiDepthFromKeysUnsortedInput(t *testing.T) {
	keys := [][]byte{{9}, {1}, {5}, {3}, {7}, {2}, {8}, {4}, {6}, {0}}
	orig := make([]string, len(keys))
	for i, k := range keys {
		orig[i] = string(k)
	}
	bounds := EquiDepthFromKeys(keys, 5)
	if len(bounds) != 4 {
		t.Fatalf("got %d boundaries, want 4", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			t.Fatal("boundaries not ascending")
		}
	}
	for i, k := range keys {
		if string(k) != orig[i] {
			t.Fatal("input keys mutated")
		}
	}
}

// TestStratifiedAdaptiveBudgetHolds is the budget property of the
// multi-arm loop over random arm counts, round-0 sizes and row budgets:
// no extension round takes the total past max(MaxSampleRows, round-0
// rows) — even when fewer rows remain than arms are chosen — and no arm
// is ever asked for zero rows.
func TestStratifiedAdaptiveBudgetHolds(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 6000, 5)
	g := rng.New(29)
	for trial := 0; trial < 40; trial++ {
		strata := 2 + g.Intn(15)
		r0 := 1 + g.Int63n(200)
		budget := 1 + g.Int63n(600)
		codec := "nullsuppression"
		if trial%4 == 0 {
			codec = "rle"
		}
		bounds, err := StratumBoundaries(nil, tab, tab.Schema(), []string{"a"}, strata)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pilotPartition(tab, tab.Schema(), []string{"a"}, bounds)
		if err != nil {
			t.Fatal(err)
		}
		arms, err := RoutedArms(tab, p, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var drawn, firstRound int64
		for i := range arms {
			ext := arms[i].Extend
			arms[i].Extend = func(round int, extra int64) (*value.RecordArena, error) {
				if extra < 1 {
					return nil, fmt.Errorf("round %d asked for %d rows", round, extra)
				}
				mu.Lock()
				drawn += extra
				if round == 0 {
					firstRound += extra
				}
				mu.Unlock()
				return ext(round, extra)
			}
		}
		res, err := AdaptiveEstimateStratified(arms, sampling.Allocate(r0, ArmRows(arms), nil),
			Precision{TargetError: 1e-4, MaxSampleRows: budget},
			Options{Codec: mustCodec(t, codec), Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d (%d arms, r0 %d, budget %d): %v", trial, len(arms), r0, budget, err)
		}
		limit := budget
		if firstRound > limit {
			limit = firstRound
		}
		if drawn > limit {
			t.Errorf("trial %d (%d arms, r0 %d, budget %d): drew %d rows, limit %d",
				trial, len(arms), r0, budget, drawn, limit)
		}
		if res.Estimate.SampleRows != drawn {
			t.Errorf("trial %d: estimate covers %d rows, arms drew %d", trial, res.Estimate.SampleRows, drawn)
		}
	}
}
