// Package sampling implements the row- and page-sampling schemes the paper
// discusses:
//
//   - uniform random sampling WITH replacement — the paper's analytical
//     model (§II-C) and the default for SampleCF;
//   - uniform sampling WITHOUT replacement (Floyd's algorithm) — the
//     ablation that quantifies how little the WR assumption matters at
//     small f;
//   - Bernoulli sampling — per-row coin flips at rate f;
//   - reservoir sampling (Vitter's Algorithm R and the skip-based
//     Algorithm X) — the one-pass scheme for streams of unknown size;
//   - block (page-level) sampling — what commercial systems actually do,
//     flagged by the paper as future work and measured here in E7.
package sampling

import (
	"fmt"
	"math"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// RowSource provides uniform random access to a table's rows, the access
// pattern with-replacement sampling needs. Implementations: materialized
// workload tables, virtual (generator-backed) tables, heap-file adapters.
type RowSource interface {
	// NumRows returns n.
	NumRows() int64
	// Row materializes row i (0 ≤ i < n). The result must be safe to retain.
	Row(i int64) (value.Row, error)
}

// StableRowSource marks a RowSource whose row set is frozen while readers
// hold it: Row is safe to call from many goroutines AND the rows cannot
// change between two calls, so a multi-goroutine sweep over [0, NumRows())
// observes one consistent table state. Materialized workload tables (rows
// mutate only through explicit re-layout calls the owner serializes around
// readers) and virtual tables (pure functions of the row index) qualify
// directly. Live db tables qualify indirectly: the table handle itself is
// mutable, but its published copy-on-write snapshot
// (catalog.SnapshotProvider) is an immutable view that satisfies this
// interface — readers pin the snapshot and writers commit past it. Sharded
// full-table reads (core.TrueCF) parallelize only over sources that opt in
// via this marker.
type StableRowSource interface {
	RowSource
	// StableRows is a marker; it performs no work.
	StableRows()
}

// RecordSource is a RowSource whose rows sit in one frozen, records-only
// store: Records() holds NumRows()·w bytes, row i's fixed-width record
// (value.EncodeRecord under the source's schema, w its RowWidth) at byte
// offset i·w. A store never changes once handed out — a new table version
// builds a new one — so readers slice it from any goroutine without
// copying or decoding. Materialized workload tables and live-table
// snapshots implement it.
type RecordSource interface {
	RowSource
	// Records returns the store. Callers must not modify it.
	Records() []byte
}

// gather appends count rows of src to ar, row pick() for each in turn. It
// is the draw primitive every row draw into an arena runs through (with
// or without replacement, whole table or one stratum), and the only place
// that chooses how a drawn row leaves storage. It draws indices ahead of
// the copy, gatherChunk at a time and in pick order, into a stack buffer;
// then a RecordSource's rows are byte-copied out of its store in one tight
// loop and keyed in one pass after it (value.RecordArena.AppendGather),
// and any other source — a virtual table, an unsnapshotted db table, a
// SliceSource — materializes each row with Row and encodes it with
// Append. pick runs once per row on either path, in the same order, so a
// given RNG stream draws the same rows and yields the same bytes.
func gather(src RowSource, ar *value.RecordArena, count int64, pick func() int64) error {
	recs, ok, err := storeOf(src, int64(ar.RowWidth()))
	if err != nil {
		return err
	}
	var buf [gatherChunk]int64
	for done := int64(0); done < count; {
		idx := buf[:min(count-done, gatherChunk)]
		for k := range idx {
			idx[k] = pick()
		}
		if ok {
			if err := ar.AppendGather(recs, idx); err != nil {
				return fmt.Errorf("sampling: %w", err)
			}
		} else {
			for _, i := range idx {
				row, err := src.Row(i)
				if err != nil {
					return fmt.Errorf("sampling: row fetch: %w", err)
				}
				if err := ar.Append(row); err != nil {
					return fmt.Errorf("sampling: encode row: %w", err)
				}
			}
		}
		done += int64(len(idx))
	}
	metricRowsDrawn.Add(uint64(count))
	return nil
}

// gatherChunk is how many indices gather draws ahead of its copy loop: a
// stack buffer of that many, so a draw allocates nothing, while each
// AppendGather call still copies hundreds of records.
const gatherChunk = 512

// storeOf returns src's record store when src is a RecordSource, checked
// to hold NumRows() records of w bytes.
func storeOf(src RowSource, w int64) ([]byte, bool, error) {
	rs, ok := src.(RecordSource)
	if !ok {
		return nil, false, nil
	}
	recs := rs.Records()
	if n := src.NumRows(); int64(len(recs)) != n*w {
		return nil, false, fmt.Errorf("sampling: record store of %d bytes does not hold %d rows of %d", len(recs), n, w)
	}
	return recs, true, nil
}

// ScanRecords calls fn(i, rec) for every row i in [lo, hi) of src, in
// order, with rec row i's fixed-width record under schema: the full-table
// counterpart of gather, for O(n) readers such as stratum directories and
// ground-truth scans. A RecordSource hands out slices of its store; any
// other source materializes Row(i) and encodes it into a scratch buffer,
// so fn must not retain rec past the call.
func ScanRecords(src RowSource, schema *value.Schema, lo, hi int64, fn func(i int64, rec []byte) error) error {
	n, w := src.NumRows(), int64(schema.RowWidth())
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("sampling: scan range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	recs, ok, err := storeOf(src, w)
	if err != nil {
		return err
	}
	if ok {
		for i := lo; i < hi; i++ {
			if err := fn(i, recs[i*w:(i+1)*w:(i+1)*w]); err != nil {
				return err
			}
		}
		return nil
	}
	var buf []byte
	for i := lo; i < hi; i++ {
		row, err := src.Row(i)
		if err != nil {
			return fmt.Errorf("sampling: row fetch: %w", err)
		}
		if buf, err = value.EncodeRecord(schema, row, buf[:0]); err != nil {
			return fmt.Errorf("sampling: encode row: %w", err)
		}
		if err := fn(i, buf); err != nil {
			return err
		}
	}
	return nil
}

// Stream is a one-pass row iterator, the input shape for reservoir and
// Bernoulli sampling.
type Stream interface {
	// Next returns the next row, or ok=false at end of stream.
	Next() (row value.Row, ok bool, err error)
}

// PageSource exposes a table's rows grouped by physical page, the unit
// block sampling draws.
type PageSource interface {
	// NumPages returns the number of pages.
	NumPages() int
	// PageRows materializes all rows on page p.
	PageRows(p int) ([]value.Row, error)
}

// UniformWORInto draws r distinct rows uniformly without replacement —
// Floyd's algorithm, O(r) draws and memory, in WORIndices' draw order —
// straight into the arena. It errors if r > n.
func UniformWORInto(src RowSource, r int64, g *rng.RNG, ar *value.RecordArena) error {
	order, err := floyd(src.NumRows(), r, g)
	if err != nil {
		return err
	}
	k := 0
	return gather(src, ar, r, func() int64 { k++; return order[k-1] })
}

// WORIndices draws r distinct indices uniformly from [0, n) via Floyd's
// algorithm, in the same draw order UniformWORInto visits rows — callers
// that gather rows from an arena by index get byte-identical samples. The
// rows-drawn metric is observed here, at the index draw, since no gather
// follows inside this package.
func WORIndices(n, r int64, g *rng.RNG) ([]int64, error) {
	order, err := floyd(n, r, g)
	if err == nil {
		metricRowsDrawn.Add(uint64(r))
	}
	return order, err
}

// floyd draws r distinct indices uniformly from [0, n) by Floyd's
// algorithm.
func floyd(n, r int64, g *rng.RNG) ([]int64, error) {
	if r < 0 || r > n {
		return nil, fmt.Errorf("sampling: WOR size %d outside [0,%d]", r, n)
	}
	chosen := make(map[int64]struct{}, r)
	order := make([]int64, 0, r)
	for j := n - r; j < n; j++ {
		t := g.Int63n(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		order = append(order, t)
	}
	return order, nil
}

// UniformWRInto draws r rows uniformly with replacement — the paper's
// sampling model — straight into the arena, with no intermediate
// []value.Row: row g.Int63n(n) for each of the r draws, in order.
func UniformWRInto(src RowSource, r int64, g *rng.RNG, ar *value.RecordArena) error {
	if err := drawPoint.Check(); err != nil {
		return err
	}
	n := src.NumRows()
	if n == 0 {
		return fmt.Errorf("sampling: source is empty")
	}
	if r < 0 {
		return fmt.Errorf("sampling: negative sample size %d", r)
	}
	return gather(src, ar, r, func() int64 { return g.Int63n(n) })
}

// Bernoulli includes each stream row independently with probability f.
// The expected sample size is f·n; the actual size is binomial.
func Bernoulli(s Stream, f float64, g *rng.RNG) ([]value.Row, error) {
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("sampling: rate %v outside [0,1]", f)
	}
	var out []value.Row
	for {
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if g.Float64() < f {
			out = append(out, row)
		}
	}
}

// ReservoirR fills a size-r reservoir from a stream using Vitter's
// Algorithm R: O(n) draws, uniform without replacement.
func ReservoirR(s Stream, r int, g *rng.RNG) ([]value.Row, error) {
	if r <= 0 {
		return nil, fmt.Errorf("sampling: reservoir size %d must be positive", r)
	}
	res := make([]value.Row, 0, r)
	var seen int64
	for {
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		seen++
		if len(res) < r {
			res = append(res, row)
			continue
		}
		if j := g.Int63n(seen); j < int64(r) {
			res[j] = row
		}
	}
}

// ReservoirX fills a size-r reservoir using Vitter's skip-based Algorithm X,
// which draws one random variate per REPLACEMENT rather than per row. It
// produces the same uniform guarantee as Algorithm R with far fewer RNG
// calls on large streams.
func ReservoirX(s Stream, r int, g *rng.RNG) ([]value.Row, error) {
	if r <= 0 {
		return nil, fmt.Errorf("sampling: reservoir size %d must be positive", r)
	}
	res := make([]value.Row, 0, r)
	for len(res) < r {
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		res = append(res, row)
	}
	t := float64(r) // rows seen so far
	for {
		// Draw the skip count: the number of rows to pass over before the
		// next replacement, via inversion of Algorithm X's skip CDF.
		u := g.Float64()
		skip := 0
		// P(skip >= s) = Π_{i=1..s} (t - r + i) / (t + i); walk until the
		// running product drops below u.
		prod := 1.0
		for {
			prod *= (t - float64(r) + float64(skip) + 1) / (t + float64(skip) + 1)
			if prod <= u || math.IsNaN(prod) {
				break
			}
			skip++
		}
		for i := 0; i < skip; i++ {
			if _, ok, err := s.Next(); err != nil {
				return nil, err
			} else if !ok {
				return res, nil
			}
			t++
		}
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		t++
		res[g.Intn(r)] = row
	}
}

// BlockSample draws `pages` pages uniformly without replacement and returns
// ALL rows on them — the commercial systems' shortcut the paper contrasts
// with uniform row sampling. The sample size is data-dependent: clustered
// layouts give correlated rows, which is exactly the effect experiment E7
// quantifies.
func BlockSample(ps PageSource, pages int, g *rng.RNG) ([]value.Row, error) {
	n := ps.NumPages()
	if pages < 0 || pages > n {
		return nil, fmt.Errorf("sampling: block count %d outside [0,%d]", pages, n)
	}
	// Floyd's algorithm over page numbers.
	chosen := make(map[int]struct{}, pages)
	var order []int
	for j := n - pages; j < n; j++ {
		t := g.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		order = append(order, t)
	}
	var out []value.Row
	for _, p := range order {
		rows, err := ps.PageRows(p)
		if err != nil {
			return nil, fmt.Errorf("sampling: page fetch: %w", err)
		}
		out = append(out, rows...)
	}
	metricRowsDrawn.Add(uint64(len(out)))
	return out, nil
}

// SampleSize converts a sampling fraction f into the paper's r = ⌈f·n⌉,
// clamped to at least 1 row for non-empty tables.
func SampleSize(n int64, f float64) int64 {
	if n <= 0 || f <= 0 {
		return 0
	}
	r := int64(math.Ceil(f * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// SliceSource adapts an in-memory row slice to RowSource.
type SliceSource []value.Row

// NumRows implements RowSource.
func (s SliceSource) NumRows() int64 { return int64(len(s)) }

// Row implements RowSource.
func (s SliceSource) Row(i int64) (value.Row, error) {
	if i < 0 || i >= int64(len(s)) {
		return nil, fmt.Errorf("sampling: row %d out of range", i)
	}
	return s[i], nil
}

// SliceStream adapts an in-memory row slice to Stream.
type SliceStream struct {
	rows []value.Row
	pos  int
}

// NewSliceStream wraps rows as a Stream.
func NewSliceStream(rows []value.Row) *SliceStream { return &SliceStream{rows: rows} }

// Next implements Stream.
func (s *SliceStream) Next() (value.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}
