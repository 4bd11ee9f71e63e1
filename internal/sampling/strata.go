package sampling

import (
	"bytes"
	"fmt"
	"sort"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// Stratified draws: the sampling side of variance-directed estimation.
//
// A uniform sample of a skewed table spends most of its rows re-observing
// the hot part of the key domain; partitioning the domain into contiguous
// memcomparable-key ranges (strata) and drawing each range's sub-sample
// independently removes the between-strata component of the estimator's
// variance, and Neyman allocation (n_h ∝ N_h·σ_h) spends rows where the
// residual within-stratum variance is. The pieces here are deliberately
// mechanical — boundaries, a row directory, per-stratum resumable streams,
// an allocator — and composition (weights, variance, confidence intervals)
// stays in internal/stats and internal/core.

// StreamSeed derives sub-stream h's seed from a base seed by a Weyl step,
// the same discipline the engine's shard scatter uses: stream 0 keeps the
// base seed, so a degenerate single-stratum draw is byte-identical to the
// unstratified one keyed by the same seed.
func StreamSeed(seed uint64, stream int) uint64 {
	return seed ^ (uint64(stream) * 0x9e3779b97f4a7c15)
}

// KeyStrata partitions the memcomparable key domain into contiguous ranges
// by H-1 strictly ascending boundary keys: stratum 0 is keys < bounds[0],
// stratum h is [bounds[h-1], bounds[h]), and the last stratum is keys ≥
// bounds[H-2]. Zero boundaries is the degenerate single stratum.
type KeyStrata struct {
	bounds [][]byte
}

// NewKeyStrata validates that bounds ascend strictly and returns the
// partition they induce. The boundary slices are retained, not copied.
func NewKeyStrata(bounds [][]byte) (*KeyStrata, error) {
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			return nil, fmt.Errorf("sampling: stratum boundaries %d and %d are not strictly ascending", i-1, i)
		}
	}
	return &KeyStrata{bounds: bounds}, nil
}

// NumStrata returns H.
func (s *KeyStrata) NumStrata() int { return len(s.bounds) + 1 }

// Boundaries returns the boundary keys (aliased, not copied).
func (s *KeyStrata) Boundaries() [][]byte { return s.bounds }

// StratumOf returns the stratum index of a key: the number of boundaries ≤
// key.
func (s *KeyStrata) StratumOf(key []byte) int {
	return sort.Search(len(s.bounds), func(i int) bool {
		return bytes.Compare(s.bounds[i], key) > 0
	})
}

// EquiDepthBoundaries derives up to h-1 ascending boundary keys splitting a
// sorted key sequence into near-equal-count ranges: key(i) must be
// non-decreasing in i. Boundary candidates that collide with the sequence
// minimum or with an earlier boundary are dropped — a duplicate-heavy
// domain supports fewer distinct cut points than requested, and an empty
// stratum would contribute nothing but allocation floor rows — so the
// result may induce fewer than h strata. Each boundary is a fresh copy.
func EquiDepthBoundaries(n, h int, key func(i int) []byte) [][]byte {
	if n <= 0 || h <= 1 {
		return nil
	}
	var bounds [][]byte
	prev := key(0)
	for j := 1; j < h; j++ {
		idx := j * n / h
		if idx <= 0 || idx >= n {
			continue
		}
		b := key(idx)
		if bytes.Compare(b, prev) <= 0 {
			continue
		}
		bounds = append(bounds, append([]byte(nil), b...))
		prev = bounds[len(bounds)-1]
	}
	return bounds
}

// StrataDirectory buckets every row index of a table by key-range stratum:
// the per-stratum random-access view stratified draws need. Building it
// costs one O(n) key-projection scan; the engine caches directories per
// (table version, key columns, strata count) so the scan amortizes across
// the what-if traffic that reuses them.
type StrataDirectory struct {
	strata *KeyStrata
	rows   [][]int64 // rows[h] = row indices of stratum h, ascending
	total  int64
}

// BuildStrataDirectory scans src's records (ScanRecords under schema) in
// order, deriving each row's index key with keyOf (append-style:
// keyOf(buf, rec) appends rec's key to buf, typically a
// value.Projection's AppendKey) and bucketing the row index by key range.
// Within a stratum, row indices stay in table order — with a single
// stratum the directory is the identity over [0, n), which is what keeps
// degenerate stratified draws byte-identical to uniform ones.
func BuildStrataDirectory(src RowSource, schema *value.Schema, ks *KeyStrata,
	keyOf func(buf, rec []byte) []byte) (*StrataDirectory, error) {
	n := src.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sampling: source is empty")
	}
	h := ks.NumStrata()
	d := &StrataDirectory{strata: ks, rows: make([][]int64, h), total: n}
	if h == 1 {
		idx := make([]int64, n)
		for i := range idx {
			idx[i] = int64(i)
		}
		d.rows[0] = idx
		return d, nil
	}
	var buf []byte
	err := ScanRecords(src, schema, 0, n, func(i int64, rec []byte) error {
		buf = keyOf(buf[:0], rec)
		s := ks.StratumOf(buf)
		d.rows[s] = append(d.rows[s], i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// NumStrata returns H.
func (d *StrataDirectory) NumStrata() int { return len(d.rows) }

// Strata returns the key partition the directory was built over.
func (d *StrataDirectory) Strata() *KeyStrata { return d.strata }

// NumRows returns the total row count across strata.
func (d *StrataDirectory) NumRows() int64 { return d.total }

// Counts returns the per-stratum population sizes N_h (a fresh slice).
func (d *StrataDirectory) Counts() []int64 {
	out := make([]int64, len(d.rows))
	for h, r := range d.rows {
		out[h] = int64(len(r))
	}
	return out
}

// WRInto draws r rows uniformly with replacement from stratum h straight
// into the arena — the fixed-size stratified draw. The g
// stream is caller-owned (one rng.New(StreamSeed(seed, h)) per stratum), so
// with a single identity stratum the draw sequence is exactly UniformWRInto's.
func (d *StrataDirectory) WRInto(src RowSource, h int, r int64, g *rng.RNG, ar *value.RecordArena) error {
	idx := d.rows[h]
	if len(idx) == 0 {
		return fmt.Errorf("sampling: stratum %d is empty", h)
	}
	if r < 0 {
		return fmt.Errorf("sampling: negative sample size %d", r)
	}
	nh := int64(len(idx))
	return gather(src, ar, r, func() int64 { return idx[g.Int63n(nh)] })
}

// ExtendWRInto appends `extra` rows drawn uniformly with replacement from
// stratum h — round `round` of the stratum's resumable draw keyed by seed,
// the per-stratum analogue of the package-level ExtendWRInto. Callers
// derive per-stratum seeds (StreamSeed) so the strata's streams are
// mutually independent, and rounds of one stream never redraw earlier
// rounds' rows.
func (d *StrataDirectory) ExtendWRInto(src RowSource, h int, ar *value.RecordArena,
	extra int64, seed uint64, round int) error {
	if round < 0 {
		return fmt.Errorf("sampling: negative round %d", round)
	}
	if extra < 0 {
		return fmt.Errorf("sampling: negative extension size %d", extra)
	}
	return d.WRInto(src, h, extra, rng.New(seed).Derive(uint64(round)), ar)
}

// WORExtend draws `extra` distinct rows of stratum h that no earlier round
// picked — round `round` of the stratum's resumable without-replacement
// stream keyed by seed — returning their table-global row indices and
// recording the stratum-local picks in chosen (one chosen set per stratum,
// caller-kept across rounds).
func (d *StrataDirectory) WORExtend(h int, extra int64, seed uint64, round int,
	chosen map[int64]struct{}) ([]int64, error) {
	idx := d.rows[h]
	local, err := WORExtendIndices(int64(len(idx)), extra, seed, round, chosen)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(local))
	for i, l := range local {
		out[i] = idx[l]
	}
	return out, nil
}

// Allocate splits a total sample size across strata in proportion to
// scores, rounding by largest remainder (stratum index breaks ties, so the
// split is deterministic) and flooring every stratum with a positive count
// at one row — the stratified estimate must cover every non-empty stratum
// to stay unbiased, and a one-row floor is the cheapest cover (when total
// is below the non-empty stratum count the allocation overshoots total).
// A nil or all-zero scores slice falls back to allocation proportional to
// counts.
func Allocate(total int64, counts []int64, scores []float64) []int64 {
	out := make([]int64, len(counts))
	var countTotal int64
	for _, c := range counts {
		countTotal += c
	}
	if countTotal == 0 {
		return out
	}
	var scoreTotal float64
	for _, s := range scores {
		scoreTotal += s
	}
	exactShare := func(h int) float64 {
		if scores == nil || scoreTotal == 0 {
			return float64(total) * float64(counts[h]) / float64(countTotal)
		}
		return float64(total) * scores[h] / scoreTotal
	}
	type rem struct {
		frac    float64
		stratum int
	}
	rems := make([]rem, 0, len(counts))
	var used int64
	for h, c := range counts {
		if c == 0 {
			continue
		}
		exact := exactShare(h)
		base := int64(exact)
		out[h] = base
		used += base
		rems = append(rems, rem{frac: exact - float64(base), stratum: h})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].stratum < rems[j].stratum
	})
	for left := total - used; left > 0 && len(rems) > 0; left-- {
		out[rems[0].stratum]++
		rems = rems[1:]
	}
	for h, c := range counts {
		if c > 0 && out[h] == 0 {
			out[h] = 1
		}
	}
	return out
}

// NeymanAllocate splits a total sample size across strata by Neyman
// allocation, n_h ∝ N_h·σ_h: rows go where population mass times
// within-stratum estimator spread is, which minimizes the composed
// stratified variance for a fixed total. Strata whose σ_h is zero (or
// unknown — all zeros) degrade gracefully to proportional allocation.
func NeymanAllocate(total int64, counts []int64, sigmas []float64) []int64 {
	scores := make([]float64, len(counts))
	any := false
	for h, c := range counts {
		if h < len(sigmas) && sigmas[h] > 0 {
			scores[h] = float64(c) * sigmas[h]
			any = true
		}
	}
	if !any {
		scores = nil
	}
	return Allocate(total, counts, scores)
}
