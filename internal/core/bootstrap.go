package core

import (
	"fmt"
	"slices"

	"samplecf/internal/compress"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// Theorem 1 gives a distribution-free interval for NULL SUPPRESSION only;
// for dictionary compression (and any other codec) the paper offers ratio
// bounds, not intervals. Bootstrap resampling fills part of that gap:
// resample the already-drawn sample with replacement B times, re-run steps
// 2-4 of Fig. 2 on each resample, and report percentile bounds of the B
// estimates. The extra cost is O(B·r) — independent of n — and requires
// nothing from the codec beyond the same closed-box interface SampleCF
// already uses.
//
// VALIDITY CAVEAT. The percentile bootstrap is sound for codecs whose CF is
// an additive per-row statistic (null suppression: a scaled mean of ℓ), and
// its SD then approximates Theorem 1's σ empirically. For CARDINALITY-
// SENSITIVE codecs (dictionary, RLE) the naive bootstrap is biased LOW:
// a WR resample of r rows from r rows contains only ≈ (1-1/e) ≈ 63% of the
// sample's distinct values, so resampled d' — and hence resampled CF —
// systematically undershoots the point estimate. The interval then brackets
// the resampling distribution, not E[CF']. TestBootstrapDictCollapse pins
// this behaviour; callers estimating dictionary CF should rely on the ratio
// bounds (Theorems 2-3) instead.

// BootstrapCI is a percentile confidence interval from resampled estimates.
type BootstrapCI struct {
	// Lo and Hi bound the (1-Alpha) central interval.
	Lo, Hi float64
	// Alpha is the total tail mass (0.05 ⇒ 95% interval).
	Alpha float64
	// Resamples is B.
	Resamples int
	// SD is the bootstrap standard deviation of the estimate — the
	// empirical analogue of Theorem 1's σ, available for ANY codec.
	SD float64
}

// Bootstrap computes a percentile CI for a CF estimate by resampling the
// key-projected sample arena underlying it. The sample must be re-supplied
// (Estimate does not retain it); use SampleCFWithSample to get both in one
// call. The sample is key-sorted once, and every resample is then read off
// that sort (PreparedIndex.bootstrap).
func Bootstrap(sample *value.RecordArena, codec compress.Codec,
	pageSize int, resamples int, alpha float64, seed uint64) (BootstrapCI, error) {
	if sample == nil {
		return BootstrapCI{}, fmt.Errorf("core: bootstrap on empty sample")
	}
	p := prepareWindow(sample.Full(), int64(sample.Len()), sample.Schema())
	return p.bootstrap(codec, pageSize, resamples, alpha, seed)
}

// bootstrap is Bootstrap over the prepared index's records. A
// with-replacement resample, read in key order, is the key-sorted sample
// with row j repeated c_j times, where c_j counts the draws of j: keys are
// bijective with records, so the order among equal keys cannot change the
// measured bytes. Each resample therefore counts its r draws into c and
// walks perm once to emit its key-ordered permutation, with no sort and no
// record gather, and sizes it through compress.MeasureResample over the
// index's own window. The whole loop runs on int32 offsets, so no per-row
// heap allocation happens at any B or r.
func (p *PreparedIndex) bootstrap(codec compress.Codec,
	pageSize int, resamples int, alpha float64, seed uint64) (BootstrapCI, error) {
	if resamples < 10 {
		return BootstrapCI{}, fmt.Errorf("core: bootstrap needs >= 10 resamples, got %d", resamples)
	}
	if alpha <= 0 || alpha >= 1 {
		return BootstrapCI{}, fmt.Errorf("core: bootstrap alpha %v outside (0,1)", alpha)
	}
	r := p.win.Len()
	if r == 0 {
		return BootstrapCI{}, fmt.Errorf("core: bootstrap on empty sample")
	}
	rpp := compress.RowsPerPage(p.keySchema, pageSizeOrDefault(pageSize))
	g := rng.New(seed)
	cfs := make([]float64, 0, resamples)
	var acc stats.Accumulator
	counts := make([]int32, r)
	resample := make([]int32, 0, r)
	for b := 0; b < resamples; b++ {
		clear(counts)
		for range r {
			counts[g.Intn(r)]++
		}
		resample = resample[:0]
		for _, j := range p.perm {
			for c := counts[j]; c > 0; c-- {
				resample = append(resample, j)
			}
		}
		res, err := compress.MeasureResample(p.keySchema, codec, p.win, resample, rpp)
		if err != nil {
			return BootstrapCI{}, fmt.Errorf("core: bootstrap resample %d: %w", b, err)
		}
		cfs = append(cfs, res.CF())
		acc.Add(res.CF())
	}
	slices.Sort(cfs)
	return BootstrapCI{
		Lo:        stats.Quantile(cfs, alpha/2),
		Hi:        stats.Quantile(cfs, 1-alpha/2),
		Alpha:     alpha,
		Resamples: resamples,
		SD:        acc.StdDev(),
	}, nil
}

// pageSizeOrDefault applies the package default.
func pageSizeOrDefault(ps int) int {
	if ps == 0 {
		return 8192
	}
	return ps
}

// SampleCFWithSample runs SampleCF (uniform WR only) and returns the drawn
// sample's key-projected arena alongside the estimate, so callers can
// bootstrap — or keep extending the sample adaptively — without re-sampling
// the table. The arena is the estimator's own input format: no
// []value.Row materializes anywhere on this path.
func SampleCFWithSample(src sampling.RowSource, schema *value.Schema, opts Options) (Estimate, *value.RecordArena, error) {
	if err := opts.Validate(); err != nil {
		return Estimate{}, nil, err
	}
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return Estimate{}, nil, fmt.Errorf("core: Options.Codec is required")
	}
	if opts.Method != MethodUniformWR {
		return Estimate{}, nil, fmt.Errorf("core: bootstrap path supports only uniform WR sampling")
	}
	if _, _, err := keyProjection(schema, opts.KeyColumns); err != nil {
		return Estimate{}, nil, err
	}
	n := src.NumRows()
	if n == 0 {
		return Estimate{}, nil, fmt.Errorf("core: source table is empty")
	}
	r := opts.SampleRows
	if r <= 0 {
		r = sampling.SampleSize(n, opts.Fraction)
	}
	if r <= 0 {
		return Estimate{}, nil, fmt.Errorf("core: sample size is zero")
	}
	full := value.NewRecordArena(schema, int(r))
	if err := sampling.UniformWRInto(src, r, rng.New(opts.Seed), full); err != nil {
		return Estimate{}, nil, err
	}
	// Project once so the bootstrap resamples only key columns; column
	// projection of an arena is a byte-range copy whose keys are
	// byte-identical to re-encoding the projected rows.
	sample, err := ProjectSample(full, opts.KeyColumns)
	if err != nil {
		return Estimate{}, nil, err
	}
	est, err := prepareWindow(sample.Full(), n, sample.Schema()).Estimate(opts)
	if err != nil {
		return Estimate{}, nil, err
	}
	return est, sample, nil
}
