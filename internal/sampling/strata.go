package sampling

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// Stratified draws: the sampling side of variance-directed estimation.
//
// A uniform sample of a skewed table spends most of its rows re-observing
// the hot part of the key domain; partitioning the domain into contiguous
// memcomparable-key ranges (strata) and sampling each range on its own
// removes the between-strata component of the estimator's variance, and
// Neyman allocation (n_h ∝ N_h·σ_h) spends rows where the residual
// within-stratum variance is. The pieces here are deliberately mechanical
// — boundaries, a Router that splits one uniform stream into per-stratum
// queues (no table scan: a row's stratum is found when it is drawn), an
// allocator — and composition (weights, variance, confidence intervals)
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

// Router stratifies a draw by routing one uniform stream rather than by
// scanning the table: it draws rows uniformly with replacement — row
// g.Int63n(n) for each draw of rng.New(seed), in order, the rows
// UniformWRInto picks — derives each drawn row's key, and appends the row
// to its stratum's FIFO queue. Rows routed to stratum h are therefore
// i.i.d. uniform over stratum h, and each queue is a fixed function of the
// seed whatever order the strata are served in. One router serves every
// stratum of one draw: a stratum takes the first rows of its own queue,
// and the stream is drawn further, under the router's lock, only while a
// queue is short; rows routed to other strata stay queued for them.
type Router struct {
	src    RowSource
	schema *value.Schema
	strata *KeyStrata
	keyOf  func(buf, rec []byte) []byte
	store  []byte // src's record store; nil when src has none

	mu       sync.Mutex
	g        *rng.RNG
	drawn    int64      // stream rows drawn so far
	queues   [][]routed // per stratum: routed rows not yet taken, in stream order
	reach    []int64    // per stratum: stream rows its takes have searched
	key, rec []byte     // scratch
}

// routed is one queued stream row: its stream position and row index.
type routed struct{ pos, row int64 }

// NewRouter starts the stream keyed by seed over src. keyOf derives a
// record's key (append-style, typically a value.Projection's AppendKey)
// from its fixed-width record under schema.
func NewRouter(src RowSource, schema *value.Schema, ks *KeyStrata, keyOf func(buf, rec []byte) []byte, seed uint64) (*Router, error) {
	if src.NumRows() == 0 {
		return nil, fmt.Errorf("sampling: source is empty")
	}
	store, _, err := storeOf(src, int64(schema.RowWidth()))
	if err != nil {
		return nil, err
	}
	h := ks.NumStrata()
	return &Router{
		src: src, schema: schema, strata: ks, keyOf: keyOf, store: store,
		g: rng.New(seed), queues: make([][]routed, h), reach: make([]int64, h),
	}, nil
}

// route draws count more stream rows and queues each under its stratum.
// The caller holds r.mu. A failed or panicking row fetch leaves the
// router as route found it — generator, stream position and queues — so
// a retry draws the same rows; the draws it made still count in
// sampling's rows-drawn metric.
func (r *Router) route(count int64) error {
	start, g := r.drawn, *r.g
	done := false
	defer func() {
		metricRowsDrawn.Add(uint64(r.drawn - start))
		if done {
			return
		}
		*r.g, r.drawn = g, start
		for h, q := range r.queues {
			k := len(q)
			for k > 0 && q[k-1].pos >= start {
				k--
			}
			r.queues[h] = q[:k]
		}
	}()
	n, w := r.src.NumRows(), int64(r.schema.RowWidth())
	for k := int64(0); k < count; k++ {
		i := r.g.Int63n(n)
		s := 0
		if r.strata.NumStrata() > 1 {
			if r.store != nil {
				r.key = r.keyOf(r.key[:0], r.store[i*w:(i+1)*w])
			} else {
				row, err := r.src.Row(i)
				if err == nil {
					r.rec, err = value.EncodeRecord(r.schema, row, r.rec[:0])
				}
				if err != nil {
					return fmt.Errorf("sampling: row fetch: %w", err)
				}
				r.key = r.keyOf(r.key[:0], r.rec)
			}
			s = r.strata.StratumOf(r.key)
		}
		r.queues[s] = append(r.queues[s], routed{pos: r.drawn, row: i})
		r.drawn++
	}
	done = true
	return nil
}

// Tally draws m more stream rows and returns how many rows each stratum
// holds queued: on a fresh router, the strata's counts in a uniform sample
// of m rows.
func (r *Router) Tally(m int64) ([]int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.route(m); err != nil {
		return nil, err
	}
	out := make([]int64, len(r.queues))
	for h, q := range r.queues {
		out[h] = int64(len(q))
	}
	return out, nil
}

// ExtendInto appends up to extra rows of stratum h to ar: the first rows
// of its queue, drawing the stream further while the queue is short, but
// searching at most maxScan (> 0) stream rows past those stratum h's
// earlier takes searched. It appends fewer than extra rows only when the
// cap is reached, and fails when the cap yields none. The rows leave the
// queue only when their gather succeeds, and a failed routing draw is
// undone, so a failed call retried returns the same rows.
func (r *Router) ExtendInto(h int, ar *value.RecordArena, extra, maxScan int64) error {
	if err := drawPoint.Check(); err != nil {
		return err
	}
	if h < 0 || h >= len(r.queues) {
		return fmt.Errorf("sampling: stratum %d outside [0,%d)", h, len(r.queues))
	}
	if extra < 0 || maxScan <= 0 {
		return fmt.Errorf("sampling: extension of %d rows within %d stream draws", extra, maxScan)
	}
	if extra == 0 {
		return nil
	}
	rows, reach, err := r.peek(h, extra, maxScan)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("sampling: stratum %d: no row in %d stream draws", h, maxScan)
	}
	next := 0
	if err := gatherRows(r.src, ar, int64(len(rows)), func() int64 { next++; return rows[next-1] }); err != nil {
		return err
	}
	r.consume(h, len(rows), reach)
	return nil
}

// peek returns the row indexes of up to extra queued rows of stratum h,
// routing at most maxScan stream rows past reach[h] to find them, and the
// reach a take of exactly those rows leaves behind. The queue is left as
// it is.
func (r *Router) peek(h int, extra, maxScan int64) ([]int64, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := int64(math.MaxInt64)
	if r.reach[h] < limit-maxScan {
		limit = r.reach[h] + maxScan
	}
	for int64(len(r.queues[h])) < extra && r.drawn < limit {
		if err := r.route(min(extra-int64(len(r.queues[h])), limit-r.drawn)); err != nil {
			return nil, 0, err
		}
	}
	// Rows other strata's draws queued at or past the cap belong to this
	// stratum's later takes.
	q := r.queues[h]
	k := int64(sort.Search(int(min(int64(len(q)), extra)), func(i int) bool { return q[i].pos >= limit }))
	reach := limit
	if k == extra {
		reach = q[k-1].pos + 1
	}
	rows := make([]int64, k)
	for i := range rows {
		rows[i] = q[i].row
	}
	return rows, reach, nil
}

// consume drops the first k rows of stratum h's queue after a take of
// them succeeded.
func (r *Router) consume(h, k int, reach int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queues[h] = r.queues[h][k:]
	r.reach[h] = reach
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
	var a Allocator
	return a.Allocate(total, counts, scores)
}

// An Allocator runs Allocate and Neyman allocation in buffers it keeps, for
// a caller that allocates round after round (the adaptive arm loop). The
// slice a call returns is the Allocator's own: the next call overwrites it.
type Allocator struct {
	out    []int64
	scores []float64
	rems   []allocRem
}

// allocRem is one stratum's fractional share, which largest-remainder
// rounding ranks.
type allocRem struct {
	frac    float64
	stratum int
}

// Allocate is the package's Allocate in a's buffers.
func (a *Allocator) Allocate(total int64, counts []int64, scores []float64) []int64 {
	out := slices.Grow(a.out[:0], len(counts))[:len(counts)]
	clear(out)
	a.out = out
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
	rems := a.rems[:0]
	var used int64
	for h, c := range counts {
		if c == 0 {
			continue
		}
		exact := exactShare(h)
		base := int64(exact)
		out[h] = base
		used += base
		rems = append(rems, allocRem{frac: exact - float64(base), stratum: h})
	}
	a.rems = rems
	slices.SortFunc(rems, func(x, y allocRem) int {
		if c := cmp.Compare(y.frac, x.frac); c != 0 {
			return c
		}
		return cmp.Compare(x.stratum, y.stratum)
	})
	for i := 0; int64(i) < total-used && i < len(rems); i++ {
		out[rems[i].stratum]++
	}
	for h, c := range counts {
		if c > 0 && out[h] == 0 {
			out[h] = 1
		}
	}
	return out
}

// Neyman splits a total sample size across strata by Neyman allocation,
// n_h ∝ N_h·σ_h: rows go where population mass times within-stratum
// estimator spread is, which minimizes the composed stratified variance
// for a fixed total. Strata whose σ_h is zero (or unknown — all zeros)
// degrade gracefully to proportional allocation.
func (a *Allocator) Neyman(total int64, counts []int64, sigmas []float64) []int64 {
	scores := slices.Grow(a.scores[:0], len(counts))[:len(counts)]
	a.scores = scores
	any := false
	for h, c := range counts {
		scores[h] = 0
		if h < len(sigmas) && sigmas[h] > 0 {
			scores[h] = float64(c) * sigmas[h]
			any = true
		}
	}
	if !any {
		scores = nil
	}
	return a.Allocate(total, counts, scores)
}
