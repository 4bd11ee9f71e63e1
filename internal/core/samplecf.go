// Package core implements the paper's contribution: the SampleCF estimator
// (Fig. 2) for the compression fraction of an index, its analytical
// counterparts, and the theorem-level accuracy bounds (Theorems 1-3,
// Example 1, Table II).
//
// SampleCF(T, f, S, C):
//  1. T' = uniform random sample of f·n rows of T (with replacement);
//  2. build index I'(S) on T';
//  3. compress I' using C;
//  4. return the compression fraction of I' as the estimate.
//
// The implementation is codec-agnostic by construction — the codec is a
// closed box invoked through the compress.Codec interface — which is the
// property the paper identifies as the estimator's main practical virtue.
package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"samplecf/internal/btree"
	"samplecf/internal/catalog"
	"samplecf/internal/compress"
	"samplecf/internal/distinct"
	"samplecf/internal/faults"
	"samplecf/internal/heap"
	"samplecf/internal/page"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/sortkeys"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// Method selects the sampling scheme for step 1.
type Method int

const (
	// MethodUniformWR is the paper's model: uniform with replacement.
	MethodUniformWR Method = iota
	// MethodUniformWOR samples without replacement (ablation).
	MethodUniformWOR
	// MethodBlock samples whole pages (what commercial systems do;
	// the paper's future work). Requires a PageSource.
	MethodBlock
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodUniformWR:
		return "uniform-wr"
	case MethodUniformWOR:
		return "uniform-wor"
	case MethodBlock:
		return "block"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configure one SampleCF run.
type Options struct {
	// Fraction is the paper's f; the sample size is r = ⌈f·n⌉.
	// Ignored when SampleRows > 0.
	Fraction float64
	// SampleRows fixes r directly.
	SampleRows int64
	// Codec is the compression technique C. Required.
	Codec compress.Codec
	// Method selects the sampling scheme (default uniform WR).
	Method Method
	// Pages is the PageSource for MethodBlock.
	Pages sampling.PageSource
	// KeyColumns is the index column sequence S; empty means all columns.
	KeyColumns []string
	// Seed makes the run reproducible.
	Seed uint64
	// BuildIndex, when true, materializes a real B+-tree on the sample
	// (Fig. 2 step 2 taken literally) and compresses its leaf pages.
	// When false (default), the sample is sorted and chunked into
	// equivalent pages without the tree — same CF for per-record codecs,
	// orders of magnitude faster for large experiment sweeps.
	BuildIndex bool
	// PageSize is the index page size (default page.DefaultSize).
	PageSize int
	// FillFactor is the bulk-load leaf utilization (default 1.0).
	FillFactor float64
	// Strata selects stratified sampling: the key domain is cut into up to
	// Strata contiguous memcomparable-key ranges (index-assisted when the
	// source exposes IndexBoundarySource, pilot-based otherwise), each
	// range sampled by its own stream, and the per-stratum estimates
	// composed by stratified mean and variance. 0 and 1 both mean
	// unstratified: the plain route serves them. Requires MethodUniformWR.
	Strata int
}

// withDefaults normalizes zero-valued options.
func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = page.DefaultSize
	}
	if o.FillFactor == 0 {
		o.FillFactor = 1.0
	}
	return o
}

// Validate rejects option combinations that would otherwise produce
// silent nonsense estimates (a Fraction above 1 oversamples, a negative
// one underflows the sample size to zero, a FillFactor outside (0,1]
// corrupts the bulk-load math). Zero values that withDefaults fills in
// (PageSize, FillFactor) are accepted.
func (o Options) Validate() error {
	switch {
	case o.Fraction < 0:
		return fmt.Errorf("core: Options.Fraction %v is negative", o.Fraction)
	case o.Fraction > 1:
		return fmt.Errorf("core: Options.Fraction %v exceeds 1 (the sample cannot outgrow the table)", o.Fraction)
	case o.SampleRows < 0:
		return fmt.Errorf("core: Options.SampleRows %d is negative", o.SampleRows)
	case o.PageSize < 0:
		return fmt.Errorf("core: Options.PageSize %d is negative", o.PageSize)
	case o.FillFactor != 0 && (o.FillFactor <= 0 || o.FillFactor > 1):
		return fmt.Errorf("core: Options.FillFactor %v outside (0,1]", o.FillFactor)
	case o.Strata < 0:
		return fmt.Errorf("core: Options.Strata %d is negative", o.Strata)
	case o.Strata > 0 && o.Method != MethodUniformWR:
		return fmt.Errorf("core: stratified sampling supports only uniform WR (method %v)", o.Method)
	}
	return nil
}

// Estimate is the outcome of one SampleCF run.
type Estimate struct {
	// CF is the estimated compression fraction CF'.
	CF float64
	// SampleRows is the realized r (block sampling makes it data-dependent).
	SampleRows int64
	// SampleDistinct is d': distinct index keys in the sample.
	SampleDistinct int64
	// Profile is the sample's frequency-of-frequency profile, reusable by
	// analytical estimators without re-sampling.
	Profile distinct.Profile
	// Result carries the underlying compression measurement.
	Result compress.Result
	// SampleDuration, BuildDuration and CompressDuration break down cost.
	SampleDuration   time.Duration
	BuildDuration    time.Duration
	CompressDuration time.Duration
}

// SampleCF runs the estimator of Fig. 2 against src.
func SampleCF(src sampling.RowSource, schema *value.Schema, opts Options) (Estimate, error) {
	if err := opts.Validate(); err != nil {
		return Estimate{}, err
	}
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return Estimate{}, fmt.Errorf("core: Options.Codec is required")
	}
	keySchema, project, err := keyProjection(schema, opts.KeyColumns)
	if err != nil {
		return Estimate{}, err
	}
	n := src.NumRows()
	if n == 0 {
		return Estimate{}, fmt.Errorf("core: source table is empty")
	}
	r := opts.SampleRows
	if r <= 0 {
		r = sampling.SampleSize(n, opts.Fraction)
	}
	if r <= 0 {
		return Estimate{}, fmt.Errorf("core: sample size is zero (fraction %v)", opts.Fraction)
	}
	if opts.Strata > 1 {
		res, err := sampleCFArms(src, schema, opts, Precision{}, r)
		return res.Estimate, err
	}

	g := rng.New(opts.Seed)
	start := time.Now()
	var rows []value.Row
	switch opts.Method {
	case MethodUniformWR:
		return sampleCFInto(sampling.UniformWRInto, src, schema, n, r, g, opts)
	case MethodUniformWOR:
		return sampleCFInto(sampling.UniformWORInto, src, schema, n, r, g, opts)
	case MethodBlock:
		if opts.Pages == nil {
			return Estimate{}, fmt.Errorf("core: block sampling requires Options.Pages")
		}
		// Ceil, not round-to-nearest: a tiny sampling fraction must still
		// draw every page the requested rows span, never truncate toward 0
		// and lean on the clamp below.
		pagesWanted := int(math.Ceil(float64(opts.Pages.NumPages()) * float64(r) / float64(n)))
		if pagesWanted < 1 {
			pagesWanted = 1
		}
		if pagesWanted > opts.Pages.NumPages() {
			pagesWanted = opts.Pages.NumPages()
		}
		rows, err = sampling.BlockSample(opts.Pages, pagesWanted, g)
	default:
		return Estimate{}, fmt.Errorf("core: unknown sampling method %v", opts.Method)
	}
	if err != nil {
		return Estimate{}, fmt.Errorf("core: sampling: %w", err)
	}
	sampleDur := time.Since(start)

	est, err := estimateFromSample(rows, n, keySchema, project, opts)
	if err != nil {
		return Estimate{}, err
	}
	est.SampleDuration = sampleDur
	return est, nil
}

// sampleCFInto is SampleCF's row-sampling route: the draw (uniform with
// or without replacement) goes straight into a full-schema arena — a byte
// gather for record-store sources — and the index is prepared from it, so
// no sampled row is ever materialized.
func sampleCFInto(draw func(sampling.RowSource, int64, *rng.RNG, *value.RecordArena) error,
	src sampling.RowSource, schema *value.Schema, n, r int64, g *rng.RNG, opts Options) (Estimate, error) {
	start := time.Now()
	sample := value.NewRecordArena(schema, int(r))
	if err := draw(src, r, g, sample); err != nil {
		return Estimate{}, fmt.Errorf("core: sampling: %w", err)
	}
	sampleDur := time.Since(start)
	p, err := PrepareFromArena(sample, n, opts.KeyColumns)
	if err != nil {
		return Estimate{}, err
	}
	est, err := p.Estimate(opts)
	if err != nil {
		return Estimate{}, err
	}
	est.SampleDuration = sampleDur
	return est, nil
}

// PreparedIndex is steps 2 of Fig. 2 factored out of the estimator: the
// sample's index records, arena-encoded and key-sorted, plus the frequency
// profile, independent of any codec. Preparing once and compressing many
// times is what lets a batch what-if request size every codec of an index
// from a single sample sort (see internal/engine).
//
// The layout is columnar: the index records are a value.Window — a byte
// range of every row of a value.RecordArena, whose record and key buffers
// are contiguous — and `perm` is the key-sort permutation over its row
// indices, the sort an index build performs, done with offset-based
// comparisons instead of pointer-chasing per-row slices. When the key
// columns are a run of adjacent sample columns in schema order, the window
// lies over the sample arena itself: the run's bytes are the projected
// records and keys, so nothing is copied. Any other column set is
// projected into an arena of its own, and the window is its whole rows.
// A key chain's shorter member (Prefix) shares a wider index's arena and
// perm with a narrower window. The frequency profile is kept in run-length
// form ([]distinct.FreqCount) and materialized into a map-backed
// distinct.Profile only when requested.
//
// A PreparedIndex (including its arena and perm, which it may share with
// the sample that fed it and with its chain) is immutable under Estimate
// and safe for concurrent Estimate calls. ExtendFromArena is the one
// mutation — the resumable-sample path — and must be serialized against
// everything else by the caller.
type PreparedIndex struct {
	keySchema *value.Schema
	win       value.Window         // key rows: a run of sample columns, or a projection's whole rows
	perm      []int32              // key-sorted permutation over win's rows
	freqs     []distinct.FreqCount // run-length frequency-of-frequency
	n         int64                // table size the sample came from
	prepDur   time.Duration
	// owned reports the arena belongs to this PreparedIndex alone and is
	// its whole rows; ExtendFromArena may append to an owned arena in
	// place but must copy-on-extend an arena it shares.
	owned bool
}

// PrepareIndex encodes and key-sorts the sampled rows of a table of n rows
// for the index on keyCols (empty = all columns of schema).
func PrepareIndex(rows []value.Row, n int64, schema *value.Schema, keyCols []string) (*PreparedIndex, error) {
	keySchema, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return nil, err
	}
	return prepareProjected(rows, n, keySchema, project)
}

// PrepareFromArena is PrepareIndex for an arena-encoded sample (the
// engine's batch path and maintained samples), with no intermediate
// []value.Row: when keyCols name adjacent columns in schema order (all
// columns, when empty) the index is a window over the sample arena, sorted
// and sized in place; otherwise the key columns are projected out by
// byte-range copies first.
func PrepareFromArena(sample *value.RecordArena, n int64, keyCols []string) (*PreparedIndex, error) {
	keySchema, win, owned, err := keyWindow(sample, keyCols)
	if err != nil {
		return nil, err
	}
	p := prepareWindow(win, n, keySchema)
	p.owned = owned
	return p, nil
}

// KeyRun reports where the index on keyCols (empty = all columns) lies in
// a row of schema when its key columns are adjacent and in schema order:
// the byte offset and width of its window, the bytes PrepareFromArena
// sorts in place. Any other column set, or an unknown column, reports
// false. Two runs at one offset form a key chain: the narrower key is a
// prefix of the wider, so one sort serves both (Prefix).
func KeyRun(schema *value.Schema, keyCols []string) (off, width int, ok bool) {
	if len(keyCols) == 0 {
		return 0, schema.RowWidth(), true
	}
	// Resolved here rather than by keyProjection, which builds the key
	// schema: the engine asks once per prep group per batch, and a short
	// key resolves on the stack.
	var buf [8]int
	cols := buf[:0]
	for _, name := range keyCols {
		c, found := schema.ColumnIndex(name)
		if !found {
			return 0, 0, false
		}
		cols = append(cols, c)
	}
	return schema.ColumnRun(cols)
}

// keyWindow resolves keyCols against the sample's schema into the key
// schema and the window holding the index records: the sample's own bytes
// for a column run, else a projected arena's whole rows (owned).
func keyWindow(sample *value.RecordArena, keyCols []string) (*value.Schema, value.Window, bool, error) {
	schema := sample.Schema()
	keySchema, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return nil, value.Window{}, false, err
	}
	if off, w, ok := schema.ColumnRun(project); ok {
		return keySchema, sample.Window(off, w), false, nil
	}
	ar := value.NewRecordArena(keySchema, sample.Len())
	if err := sample.ProjectTo(ar, project); err != nil {
		return nil, value.Window{}, false, fmt.Errorf("core: project sample arena: %w", err)
	}
	return keySchema, ar.Full(), true, nil
}

// ProjectSample projects a full-schema sample arena onto the index key
// columns (empty = all columns), returning the sample itself when the
// key's window is its whole rows. This is the per-round projection step of
// resumable sampling: extension batches arrive under the table schema and
// are narrowed to the key schema by byte-range copies, because extension
// appends whole rows.
func ProjectSample(sample *value.RecordArena, keyCols []string) (*value.RecordArena, error) {
	keySchema, win, owned, err := keyWindow(sample, keyCols)
	if err != nil {
		return nil, err
	}
	if owned || win.Width() == sample.RowWidth() {
		return win.Arena(), nil
	}
	out := value.NewRecordArena(keySchema, sample.Len())
	if err := out.AppendWindow(win); err != nil {
		return nil, fmt.Errorf("core: project sample arena: %w", err)
	}
	return out, nil
}

// prepareProjected is PrepareIndex after column resolution; project == nil
// means rows already hold exactly the key columns.
func prepareProjected(rows []value.Row, n int64, keySchema *value.Schema, project []int) (*PreparedIndex, error) {
	ar := value.NewRecordArena(keySchema, len(rows))
	krow := make(value.Row, keySchema.NumColumns())
	for _, row := range rows {
		if project != nil {
			for i, p := range project {
				krow[i] = row[p]
			}
		} else {
			copy(krow, row)
		}
		if err := ar.Append(krow); err != nil {
			return nil, fmt.Errorf("core: encode sample row: %w", err)
		}
	}
	p := prepareWindow(ar.Full(), n, keySchema)
	p.owned = true
	return p, nil
}

// prepareWindow runs the fused sort+profile pass over a window of an
// encoded arena: one MSD radix sort of the key permutation, addressing keys
// at the arena's stride, that emits the run-length frequency profile as a
// by-product (internal/sortkeys).
func prepareWindow(win value.Window, n int64, keySchema *value.Schema) *PreparedIndex {
	buildStart := time.Now()
	perm := make([]int32, win.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	freqs := sortkeys.SortProfile(win.Keys(), win.Stride(), win.Width(), perm)
	return &PreparedIndex{
		keySchema: keySchema,
		win:       win,
		perm:      perm,
		freqs:     freqs,
		n:         n,
		prepDur:   time.Since(buildStart),
	}
}

// Prefix returns the prepared index on keyCols, which must name a leading
// run of p's key columns (resolved against p's key schema), without a
// sort: a permutation sorted on a key is sorted on every prefix of it, so
// the prefix index shares p's arena and perm through a narrower window and
// only profiles its own runs (one sortkeys.ProfileSorted pass). Rows that
// tie on the prefix hold identical bytes in the prefix index, so its pages
// — and every codec's size of them — equal those of an index sorted on the
// prefix alone. The result shares p's perm: neither may be extended while
// the other is in use.
func (p *PreparedIndex) Prefix(keyCols []string) (*PreparedIndex, error) {
	start := time.Now()
	keySchema, project, err := keyProjection(p.keySchema, keyCols)
	if err != nil {
		return nil, err
	}
	off, w, ok := p.keySchema.ColumnRun(project)
	if !ok || off != 0 {
		return nil, fmt.Errorf("core: key %v is not a prefix of the prepared key %s", keyCols, p.keySchema)
	}
	win := p.win.Arena().Window(p.win.Offset(), w)
	return &PreparedIndex{
		keySchema: keySchema,
		win:       win,
		perm:      p.perm,
		freqs:     sortkeys.ProfileSorted(win.Keys(), win.Stride(), w, p.perm),
		n:         p.n,
		prepDur:   time.Since(start),
	}, nil
}

// ExtendFromArena merges a batch of newly drawn rows (already projected to
// the index key schema) into the prepared index: the batch is appended to
// the arena, its permutation sorted alone, and the two sorted runs merged —
// the old rows are never re-sorted, so round k+1 of an adaptive loop costs
// O(extra·log extra + r) instead of O(r·log r). The run-length frequency
// profile is rebuilt from the merged permutation in the same pass budget.
//
// Extension is a mutation: it must not run concurrently with Estimate on
// the same PreparedIndex. A PreparedIndex whose window lies over a shared
// arena (the sample that fed it) copies its window into an arena of its
// own on first extension, so the caller's sample arena is never touched.
func (p *PreparedIndex) ExtendFromArena(extra *value.RecordArena) error {
	if extra.Len() == 0 {
		return nil
	}
	w := p.win.Width()
	if extra.RowWidth() != w {
		return fmt.Errorf("core: extension rows are %d bytes wide, prepared index requires %d",
			extra.RowWidth(), w)
	}
	start := time.Now()
	if !p.owned {
		own := value.NewRecordArena(p.keySchema, p.win.Len()+extra.Len())
		if err := own.AppendWindow(p.win); err != nil {
			return fmt.Errorf("core: copy sample window: %w", err)
		}
		p.win = own.Full()
		p.owned = true
	}
	ar := p.win.Arena()
	old := ar.Len()
	if err := ar.AppendAll(extra); err != nil {
		return fmt.Errorf("core: extend sample arena: %w", err)
	}
	// Sort the new run alone, then merge with the (already sorted) old run.
	newPerm := make([]int32, extra.Len())
	for i := range newPerm {
		newPerm[i] = int32(old + i)
	}
	keys := ar.Keys()
	sortkeys.Sort(keys, w, w, newPerm)
	merged := make([]int32, 0, old+extra.Len())
	i, j := 0, 0
	for i < len(p.perm) && j < len(newPerm) {
		a := int(p.perm[i]) * w
		b := int(newPerm[j]) * w
		if bytes.Compare(keys[a:a+w], keys[b:b+w]) <= 0 {
			merged = append(merged, p.perm[i])
			i++
		} else {
			merged = append(merged, newPerm[j])
			j++
		}
	}
	merged = append(merged, p.perm[i:]...)
	merged = append(merged, newPerm[j:]...)
	p.perm = merged
	p.freqs = sortkeys.ProfileSorted(keys, w, w, p.perm)
	p.prepDur += time.Since(start)
	return nil
}

// KeySchema returns the index key schema.
func (p *PreparedIndex) KeySchema() *value.Schema { return p.keySchema }

// PrepDuration returns the cumulative encode+sort+profile time spent
// building (and extending) this prepared index — the engine's PrepareNanos
// counter aggregates it across requests.
func (p *PreparedIndex) PrepDuration() time.Duration { return p.prepDur }

// SampleRows returns the realized sample size r.
func (p *PreparedIndex) SampleRows() int64 { return int64(p.win.Len()) }

// SampleDistinct returns d', the number of distinct keys in the sample.
func (p *PreparedIndex) SampleDistinct() int64 {
	var d int64
	for _, fc := range p.freqs {
		d += fc.Num
	}
	return d
}

// Profile materializes the sample's frequency-of-frequency profile.
func (p *PreparedIndex) Profile() distinct.Profile {
	return distinct.ProfileFromFreqs(p.n, p.freqs)
}

// Estimate runs steps 3-4 of Fig. 2 — compress the prepared index with
// opts.Codec and report its CF. Safe to call concurrently with different
// codecs on the same PreparedIndex. Each call returns its own copy of the
// frequency profile, so callers may mutate it freely.
func (p *PreparedIndex) Estimate(opts Options) (Estimate, error) {
	if err := opts.Validate(); err != nil {
		return Estimate{}, err
	}
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return Estimate{}, fmt.Errorf("core: Options.Codec is required")
	}
	profile := p.Profile()
	est := Estimate{
		SampleRows:     p.SampleRows(),
		SampleDistinct: profile.D,
		Profile:        profile,
		BuildDuration:  p.prepDur,
	}
	var res compress.Result
	var err error
	if opts.BuildIndex {
		// Literal Fig. 2: bulk-load a real B+-tree on the sample, then
		// compress its leaf pages.
		treeStart := time.Now()
		items := make([]btree.Item, len(p.perm))
		for i, pi := range p.perm {
			items[i] = btree.Item{Key: p.win.Key(int(pi)), Payload: p.win.Rec(int(pi))}
		}
		store := heap.NewMemStore(opts.PageSize)
		tree, err2 := btree.BulkLoadItems(store, items, opts.FillFactor)
		if err2 != nil {
			return Estimate{}, fmt.Errorf("core: build sample index: %w", err2)
		}
		est.BuildDuration += time.Since(treeStart)
		compressStart := time.Now()
		res, err = compress.MeasureTree(tree, p.keySchema, opts.Codec)
		est.CompressDuration = time.Since(compressStart)
	} else {
		compressStart := time.Now()
		rpp := compress.RowsPerPage(p.keySchema, opts.PageSize)
		res, err = compress.MeasureArena(p.keySchema, opts.Codec, p.win, p.perm, rpp)
		est.CompressDuration = time.Since(compressStart)
	}
	if err != nil {
		return Estimate{}, fmt.Errorf("core: compress sample index: %w", err)
	}
	est.Result = res
	est.CF = res.CF()
	return est, nil
}

// estimateFromSample runs steps 2-4 of Fig. 2 on an already-drawn sample
// from a table of n rows.
func estimateFromSample(rows []value.Row, n int64, keySchema *value.Schema, project []int, opts Options) (Estimate, error) {
	p, err := prepareProjected(rows, n, keySchema, project)
	if err != nil {
		return Estimate{}, err
	}
	return p.Estimate(opts)
}

// keyProjection resolves the index column sequence S into a key schema and
// the positions of the key columns within full rows.
func keyProjection(schema *value.Schema, keyCols []string) (*value.Schema, []int, error) {
	if len(keyCols) == 0 {
		idx := make([]int, schema.NumColumns())
		for i := range idx {
			idx[i] = i
		}
		return schema, idx, nil
	}
	keySchema, err := schema.Project(keyCols...)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(keyCols))
	for i, name := range keyCols {
		pos, ok := schema.ColumnIndex(name)
		if !ok {
			return nil, nil, fmt.Errorf("core: no column %q", name)
		}
		idx[i] = pos
	}
	return keySchema, idx, nil
}

// projectRow extracts the key columns of a row.
func projectRow(row value.Row, idx []int) value.Row {
	out := make(value.Row, len(idx))
	for i, p := range idx {
		out[i] = row[p]
	}
	return out
}

// RowScanner is the full-iteration table shape TrueCF consumes. Both
// workload.Table and workload.VirtualTable implement it.
type RowScanner interface {
	Schema() *value.Schema
	NumRows() int64
	Scan(fn func(i int64, row value.Row) error) error
}

// ShardScanner is the partitioned-table shape TrueCF exploits for
// shard-parallel ground-truth scans. It is structural (core cannot import
// the storage layer): db.ShardedTable satisfies it. ShardScan(s, fn) must
// iterate only shard s with shard-local indices starting at 0, and the
// per-shard scans must be safe to run concurrently — each shard owns its
// storage and lock.
type ShardScanner interface {
	RowScanner
	NumShards() int
	ShardRows(s int) int64
	ShardScan(s int, fn func(i int64, row value.Row) error) error
}

// trueCFShardRows is the minimum rows per scan shard: below this the
// goroutine handoff costs more than the encode it parallelizes.
const trueCFShardRows = 16384

// TrueCF computes the exact compression fraction of the index I(S) on the
// FULL table: the ground truth SampleCF estimates, obtained the expensive
// way the paper's introduction warns about (build + compress everything).
//
// The computation is sharded across the same bounded worker group as the
// rest of the hot path (≤ min(GOMAXPROCS, workgroup.MaxWorkers)): sources
// that offer whole-scan stability — directly via sampling.StableRowSource
// (frozen rows and concurrency-safe Row, as materialized and virtual
// workload tables are) or indirectly via catalog.SnapshotProvider (a live
// db table's pinned copy-on-write snapshot) — have their scan+encode
// partitioned into contiguous row ranges filled in parallel, the key sort
// partitions into leading-byte buckets sorted and profiled independently
// (internal/sortkeys), and page compression fans out per page
// (compress.EncodeArena, which encodes every page: the ground truth runs
// the real encoders). Every partition is order-preserving, so the
// result is byte-identical to the sequential scan→sort→measure.
func TrueCF(src RowScanner, keyCols []string, codec compress.Codec, pageSize int) (compress.Result, error) {
	return trueCF(src, keyCols, codec, pageSize, 0)
}

// trueCF is TrueCF with the worker-group width pinned (tests prove
// width-independence, benchmarks compare widths): workers ≤ 0 lets each
// stage size its own fan-out — the scan by rows per shard, the sort by
// bucket count — since one shared width would undersize whichever stage
// has more parallelism available; workers == 1 runs fully sequentially.
func trueCF(src RowScanner, keyCols []string, codec compress.Codec, pageSize, workers int) (res compress.Result, err error) {
	// Ground-truth scans run over caller-supplied scanners and codecs; a
	// panic in either (or re-raised from a sort bucket goroutine) degrades
	// to this measurement's error, never a process crash.
	defer func() {
		if r := recover(); r != nil {
			res, err = compress.Result{}, fmt.Errorf("core: true CF: %w", faults.AsError(r))
		}
	}()
	if pageSize == 0 {
		pageSize = page.DefaultSize
	}
	schema := src.Schema()
	keySchema, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return compress.Result{}, err
	}
	scanWorkers := workers
	if scanWorkers <= 0 {
		units := int(src.NumRows()) / trueCFShardRows
		if ss, ok := src.(ShardScanner); ok && ss.NumShards() > units {
			// Partitioned sources parallelize per shard regardless of row
			// count: each shard scan is independent lock-wise.
			units = ss.NumShards()
		}
		scanWorkers = workgroup.Limit(units)
	}
	ar := value.NewRecordArena(keySchema, int(src.NumRows()))
	if err := scanIntoArena(src, ar, project, scanWorkers); err != nil {
		return compress.Result{}, fmt.Errorf("core: true CF scan: %w", err)
	}
	perm := make([]int32, ar.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	w := ar.RowWidth()
	if workers <= 0 {
		sortkeys.Sort(ar.Keys(), w, w, perm)
	} else {
		sortkeys.SortWorkers(ar.Keys(), w, w, perm, workers)
	}
	return compress.EncodeArena(keySchema, codec, ar.Full(), perm, compress.RowsPerPage(keySchema, pageSize))
}

// scanIntoArena fills ar with the key projection of every row of src, row i
// of the table at arena slot i. Sources with a scan-stable view have the
// key columns projected out of that view's records (sampling.ScanRecords:
// byte ranges of a record store, or Row + encode for a virtual table),
// sharded across the worker group — the arena is pre-grown and each worker
// fills a contiguous row range of disjoint slots, preserving scan order
// exactly. Everything else takes a sequential Scan. The gate is whole-scan
// stability, not bare Row access: a mutable table's Row can be
// individually lock-safe while writers commit between calls.
func scanIntoArena(src RowScanner, ar *value.RecordArena, project []int, workers int) error {
	n := int(src.NumRows())
	if ss, ok := src.(ShardScanner); ok && workers > 1 && ss.NumShards() > 1 {
		return scanShardsIntoArena(ss, ar, project, workers)
	}
	view, ok := stableView(src, n)
	if !ok {
		krow := make(value.Row, len(project))
		return src.Scan(func(_ int64, row value.Row) error {
			for i, p := range project {
				krow[i] = row[p]
			}
			return ar.Append(krow)
		})
	}
	proj, err := value.NewProjection(src.Schema(), project)
	if err != nil {
		return err
	}
	ar.Grow(n)
	fill := func(lo, hi int) error {
		var buf []byte
		return sampling.ScanRecords(view, src.Schema(), int64(lo), int64(hi), func(i int64, rec []byte) error {
			buf = proj.AppendRecord(buf[:0], rec)
			return ar.SetRec(int(i), buf)
		})
	}
	if workers <= 1 {
		return fill(0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer workgroup.Recover(&errs[w])
			errs[w] = fill(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stableView returns a scan-stable view of src's n rows: src itself when
// it is a sampling.StableRowSource (frozen workload and virtual tables),
// or the pinned copy-on-write snapshot of a catalog.SnapshotProvider,
// read without ever touching the table's lock. A snapshot that disagrees
// with n means a mutation slipped between the two reads; there is no view
// then, and the caller falls back to Scan.
func stableView(src RowScanner, n int) (sampling.RowSource, bool) {
	if rs, ok := src.(sampling.StableRowSource); ok {
		return rs, true
	}
	if sp, ok := src.(catalog.SnapshotProvider); ok {
		if view, _, err := sp.SnapshotRows(); err == nil && view.NumRows() == int64(n) {
			return view, true
		}
	}
	return nil, false
}

// scanShardsIntoArena fills ar shard-parallel: shard s's rows land in the
// contiguous slot range starting at the prefix sum of earlier shards'
// counts, in shard-local scan order, so the result is byte-identical to
// the source's sequential Scan (which iterates shards in order). Each
// per-shard scan holds only that shard's lock; a row-count drift between
// the snapshot and a shard's scan means a concurrent mutation, reported as
// an error rather than a torn arena.
func scanShardsIntoArena(src ShardScanner, ar *value.RecordArena, project []int, workers int) error {
	ns := src.NumShards()
	counts := make([]int64, ns)
	offsets := make([]int64, ns)
	var total int64
	for s := 0; s < ns; s++ {
		counts[s] = src.ShardRows(s)
		offsets[s] = total
		total += counts[s]
	}
	ar.Grow(int(total))
	sem := workgroup.NewSem(workgroup.Limit(ns) - 1)
	if workers > 0 {
		sem = workgroup.NewSem(workgroup.Limit(min(workers, ns)) - 1)
	}
	errs := make([]error, ns)
	scanShard := func(s int) {
		krow := make(value.Row, len(project))
		seen := int64(0)
		err := src.ShardScan(s, func(i int64, row value.Row) error {
			if i >= counts[s] {
				return fmt.Errorf("core: shard %d grew past %d rows during scan", s, counts[s])
			}
			seen = i + 1
			for c, p := range project {
				krow[c] = row[p]
			}
			return ar.SetRow(int(offsets[s]+i), krow)
		})
		if err == nil && seen != counts[s] {
			err = fmt.Errorf("core: shard %d scanned %d of %d rows (concurrent mutation)", s, seen, counts[s])
		}
		errs[s] = err
	}
	var wg sync.WaitGroup
	for s := 0; s < ns; s++ {
		if sem.TryAcquire() {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				defer sem.Release()
				defer workgroup.Recover(&errs[s])
				scanShard(s)
			}(s)
		} else {
			scanShard(s)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
