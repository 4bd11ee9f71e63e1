// Benchmarks regenerating every table and figure of the paper's evaluation,
// one per artifact (`cfbench -list` prints the experiment index). Each
// benchmark runs the corresponding experiment end-to-end at reduced scale;
// `cmd/cfbench -exp <ID> -scale 1` prints the full-scale tables these are
// derived from.
//
//	go test -bench=. -benchmem
package samplecf_test

import (
	"context"
	"io"
	"testing"

	"samplecf"
	"samplecf/internal/experiments"
)

// benchScale keeps per-iteration cost low enough for testing.B while
// exercising the full experiment code path.
const benchScale = 0.02

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{Scale: benchScale, Seed: uint64(i + 1)}
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1NS regenerates E1: the Theorem 1 bias/spread table and
// the spread-vs-r figure series.
func BenchmarkTheorem1NS(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkExample1 regenerates E2: the paper's Example 1 (σ ≤ 5·10⁻⁴ at
// n=10⁸, r=10⁶), on a virtual table.
func BenchmarkExample1(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkTheorem2SmallD regenerates E3: dictionary ratio error → 1 as
// d/n → 0.
func BenchmarkTheorem2SmallD(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkTheorem3LargeD regenerates E4: dictionary ratio error bounded by
// a constant for d = βn.
func BenchmarkTheorem3LargeD(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkTableII regenerates E5: the paper's Table II summary matrix.
func BenchmarkTableII(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkPagedDictionary regenerates E6: paging effects (Pg(i)) and the
// dictionary-entry-format ablation.
func BenchmarkPagedDictionary(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkBlockSampling regenerates E7: block vs row sampling across
// physical layouts.
func BenchmarkBlockSampling(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkDVBaselines regenerates E8: SampleCF vs distinct-value-estimator
// baselines.
func BenchmarkDVBaselines(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkSampleCFCost regenerates E9: estimation cost vs full
// build-and-compress.
func BenchmarkSampleCFCost(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkAdvisor regenerates E10: the compression-aware index advisor.
func BenchmarkAdvisor(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkMultiColumn regenerates E11: multi-column index estimation and
// the per-column independence check.
func BenchmarkMultiColumn(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkWRvsWOR regenerates E12: the sampling-scheme ablation.
func BenchmarkWRvsWOR(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkBootstrapCI regenerates E13: bootstrap interval coverage.
func BenchmarkBootstrapCI(b *testing.B) { runExperiment(b, "E13") }

// --- public-API microbenchmarks ------------------------------------------------

// benchTable builds the shared microbenchmark table once.
func benchTable(b *testing.B) *samplecf.Table {
	b.Helper()
	col, err := samplecf.NewStringColumn(
		samplecf.Char(20), samplecf.Uniform(10_000), samplecf.UniformLen(2, 18), 1)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := samplecf.Generate(samplecf.TableSpec{
		Name: "bench", N: 500_000, Seed: 1,
		Cols: []samplecf.TableColumn{{Name: "a", Gen: col}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkEstimate measures one SampleCF estimation per codec at f = 1%.
func BenchmarkEstimate(b *testing.B) {
	tab := benchTable(b)
	for _, name := range []string{"nullsuppression", "pagedict", "page", "globaldict-p4", "huffman"} {
		codec, err := samplecf.LookupCodec(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := samplecf.Estimate(tab, samplecf.Options{
					Fraction: 0.01, Codec: codec, Seed: uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateSampleSizes sweeps r to show estimation cost is O(r),
// not O(n) — the economics of Fig. 2.
func BenchmarkEstimateSampleSizes(b *testing.B) {
	tab := benchTable(b)
	codec, err := samplecf.LookupCodec("nullsuppression")
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int64{100, 1_000, 10_000, 100_000} {
		b.Run(sizeName(r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := samplecf.Estimate(tab, samplecf.Options{
					SampleRows: r, Codec: codec, Seed: uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(r int64) string {
	switch {
	case r >= 1_000_000:
		return "r=1M"
	case r >= 1_000:
		return "r=" + itoa(r/1000) + "k"
	default:
		return "r=" + itoa(r)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkTrueCF measures the naive full-compression alternative the
// estimator exists to avoid.
func BenchmarkTrueCF(b *testing.B) {
	tab := benchTable(b)
	codec, err := samplecf.LookupCodec("nullsuppression")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := samplecf.TrueCF(tab, nil, codec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFractionSweep regenerates E14: error vs sampling fraction.
func BenchmarkFractionSweep(b *testing.B) { runExperiment(b, "E14") }

// whatIfBatchTable builds the multi-column table the what-if batch
// benchmark enumerates candidates over.
func whatIfBatchTable(b *testing.B) *samplecf.Table {
	b.Helper()
	region, err := samplecf.NewStringColumn(
		samplecf.Char(24), samplecf.Uniform(50), samplecf.UniformLen(4, 12), 1)
	if err != nil {
		b.Fatal(err)
	}
	product, err := samplecf.NewStringColumn(
		samplecf.Char(40), samplecf.Zipf(8000, 0.7), samplecf.UniformLen(10, 30), 2)
	if err != nil {
		b.Fatal(err)
	}
	qty, err := samplecf.NewIntColumn(samplecf.Int32(), samplecf.Uniform(500), 0)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := samplecf.Generate(samplecf.TableSpec{
		Name: "whatif-bench", N: 200_000, Seed: 3,
		Cols: []samplecf.TableColumn{
			{Name: "region", Gen: region},
			{Name: "product", Gen: product},
			{Name: "qty", Gen: qty},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// whatIfBatchRequests enumerates the candidate matrix: 4 key column sets ×
// 4 codecs = 16 (index, codec) pairs, all at the same (fraction, seed).
func whatIfBatchRequests(b *testing.B, tab *samplecf.Table, seed uint64) []samplecf.EngineRequest {
	b.Helper()
	colsets := [][]string{{"region"}, {"product"}, {"qty"}, {"region", "product"}}
	codecs := []string{"nullsuppression", "rle", "prefix", "pagedict+ns"}
	var reqs []samplecf.EngineRequest
	for _, cs := range colsets {
		for _, cn := range codecs {
			codec, err := samplecf.LookupCodec(cn)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, samplecf.EngineRequest{
				Table: tab, KeyColumns: cs, Codec: codec, Fraction: 0.01, Seed: seed,
			})
		}
	}
	return reqs
}

// BenchmarkWhatIfBatch compares the advisor's two candidate-sizing paths
// over the same 16-candidate batch: "naive" re-runs the full SampleCF
// pipeline (draw, sort, compress) per candidate — the pre-engine advisor
// loop — while "engine" shares one sample draw across the batch and one
// sorted index build per key column set. The engine result cache is
// disabled and the seed varies per iteration, so the ratio measures
// structural sharing plus worker-pool parallelism, not memoization.
func BenchmarkWhatIfBatch(b *testing.B) {
	tab := whatIfBatchTable(b)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range whatIfBatchRequests(b, tab, uint64(i)) {
				_, err := samplecf.Estimate(tab, samplecf.Options{
					Fraction:   req.Fraction,
					Codec:      req.Codec,
					KeyColumns: req.KeyColumns,
					Seed:       req.Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng := samplecf.NewEngine(samplecf.EngineConfig{CacheEntries: -1})
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.WhatIf(context.Background(), whatIfBatchRequests(b, tab, uint64(i))) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}
