package compress

import (
	"fmt"
	"sync"

	"samplecf/internal/btree"
	"samplecf/internal/faults"
	"samplecf/internal/page"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// MeasureTree compresses the leaf level of an index with codec and returns
// the whole-index Result, from which CF follows. The index must store, as
// each leaf entry's PAYLOAD, the fixed-width encoding of the keySchema row
// (value.EncodeRecord output) — the actual index record; the memcomparable
// search key is excluded from CF, matching the paper's model in which index
// rows are the column values themselves.
func MeasureTree(t *btree.Tree, keySchema *value.Schema, codec Codec) (Result, error) {
	sess, err := codec.NewSession(keySchema)
	if err != nil {
		return Result{}, err
	}
	err = t.LeafPages(func(_ uint32, p *page.Page) error {
		_, payloads, err := btree.LeafEntries(p)
		if err != nil {
			return err
		}
		return sess.AddPage(payloads)
	})
	if err != nil {
		return Result{}, fmt.Errorf("compress: measure tree: %w", err)
	}
	res, err := sess.Finish()
	if err == nil {
		recordMeasure(codec, res)
	}
	return res, err
}

// MeasureRecords chunks fixed-width records into synthetic pages of
// rowsPerPage and measures them with codec, sequentially. It is the
// array-backed path the bootstrap resamples through. Page codecs are sized
// page by page (pageSize: encoded only where they have no PageSizer) and
// report sizes only; any other codec runs a session, whose Result keeps
// the encodings.
func MeasureRecords(keySchema *value.Schema, codec Codec, records [][]byte, rowsPerPage int) (Result, error) {
	if rowsPerPage <= 0 {
		return Result{}, fmt.Errorf("compress: rowsPerPage %d must be positive", rowsPerPage)
	}
	if p, ok := codec.(Paged); ok && keySchema != nil {
		var res Result
		for start := 0; start < len(records); start += rowsPerPage {
			page := records[start:min(start+rowsPerPage, len(records))]
			n, de, err := pageSize(p.PC, keySchema, page)
			if err != nil {
				return Result{}, err
			}
			res.Pages++
			res.Rows += int64(len(page))
			res.CompressedBytes += int64(n)
			res.DictEntries += de
		}
		res.UncompressedBytes = res.Rows * int64(keySchema.RowWidth())
		return res, nil
	}
	sess, err := codec.NewSession(keySchema)
	if err != nil {
		return Result{}, err
	}
	for start := 0; start < len(records); start += rowsPerPage {
		if err := sess.AddPage(records[start:min(start+rowsPerPage, len(records))]); err != nil {
			return Result{}, err
		}
	}
	return sess.Finish()
}

// pageViewPool recycles the [][]byte record views MeasureArena builds per
// page: rowsPerPage slice headers pointing into the arena, dead once the
// page is measured.
var pageViewPool = sync.Pool{
	New: func() any { v := make([][]byte, 0, 512); return &v },
}

// measureWorkers returns the page fan-out width for a page count: the
// shared bounded worker-group discipline (workgroup.Limit) that every
// per-operation parallel stage — page compression here, bucket recursion
// in sortkeys, sharded ground-truth scans — follows, because the engine
// already parallelizes across candidates.
func measureWorkers(pages int) int {
	return workgroup.Limit(pages)
}

// pageTally measures one page of a page codec: its encoded length and
// dictionary entries. pageSize and encodedSize are the two tallies.
type pageTally func(pc PageCodec, schema *value.Schema, records [][]byte) (int, int64, error)

// pageSize is the estimation tally: the codec's PageSizer where it has
// one, else an encode.
func pageSize(pc PageCodec, schema *value.Schema, records [][]byte) (int, int64, error) {
	if sz, ok := pc.(PageSizer); ok {
		return sz.SizePage(schema, records)
	}
	return encodedSize(pc, schema, records)
}

// encodedSize is the encoding tally: the page is encoded into pooled
// scratch, which dies as soon as its length is read.
func encodedSize(pc PageCodec, schema *value.Schema, records [][]byte) (int, int64, error) {
	ap, ok := pc.(PageAppender)
	if !ok {
		enc, err := pc.EncodePage(schema, records)
		return len(enc), 0, err
	}
	buf := pageBufPool.Get().(*[]byte)
	enc, de, err := ap.AppendPage(schema, records, (*buf)[:0])
	// Keep the grown array: it is the one worth pooling.
	*buf = enc[:0]
	pageBufPool.Put(buf)
	return len(enc), de, err
}

// MeasureArena is the estimation hot path: it measures the rowsPerPage-
// chunked records of an arena window — visited in perm order (nil = arena
// order), each row's record the window's bytes, read in place at the
// arena's stride (a window over a run of a sample's columns is the index
// on those columns, with no projected copy) —
// and returns the size tally only (Result.Encoded stays nil). Page codecs
// are sized page by page through their PageSizer (encoded where they have
// none), and GlobalDict from its per-column distinct counts over the whole
// arena; any other codec runs a session. Pages of a page codec whose
// contract forbids receiver state (PageSizer, PageAppender) fan out across
// a bounded worker group; page sizes are summed, so the result is
// deterministic regardless of worker interleaving and equal to EncodeArena's.
func MeasureArena(keySchema *value.Schema, codec Codec, win value.Window, perm []int32, rowsPerPage int) (Result, error) {
	return measureArena(keySchema, codec, win, perm, rowsPerPage, true)
}

// EncodeArena is MeasureArena through the real encoders: every page is
// encoded (into pooled scratch) and GlobalDict runs its session. It is the
// ground truth's route (core.TrueCF), and so the independent oracle the
// sizers are checked against.
func EncodeArena(keySchema *value.Schema, codec Codec, win value.Window, perm []int32, rowsPerPage int) (Result, error) {
	return measureArena(keySchema, codec, win, perm, rowsPerPage, false)
}

func measureArena(keySchema *value.Schema, codec Codec, win value.Window, perm []int32, rowsPerPage int, size bool) (res Result, err error) {
	defer func() {
		if err == nil {
			recordMeasure(codec, res)
		}
	}()
	// A panicking codec poisons one measurement, not the process: the
	// estimation path promises per-candidate error isolation, and a codec is
	// exactly the pluggable component most likely to harbor a data-dependent
	// panic. Worker goroutines in measureArenaParallel carry their own
	// recovery; this one covers the sequential and session routes.
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("compress: measure %s: %w", codec.Name(), faults.AsError(r))
		}
	}()
	if rowsPerPage <= 0 {
		return Result{}, fmt.Errorf("compress: rowsPerPage %d must be positive", rowsPerPage)
	}
	if win.Width() != keySchema.RowWidth() {
		return Result{}, fmt.Errorf("compress: arena rows are %d bytes, schema %s requires %d", win.Width(), keySchema, keySchema.RowWidth())
	}
	if perm != nil && len(perm) != win.Len() {
		return Result{}, fmt.Errorf("compress: permutation covers %d of %d arena rows", len(perm), win.Len())
	}
	n := win.Len()
	pages := (n + rowsPerPage - 1) / rowsPerPage
	tally := encodedSize
	if size {
		tally = pageSize
	}
	switch c := codec.(type) {
	case Paged:
		_, sizer := c.PC.(PageSizer)
		_, appender := c.PC.(PageAppender)
		if workers := measureWorkers(pages); workers > 1 && (sizer || appender) {
			return measureArenaParallel(keySchema, c.PC, tally, win, perm, rowsPerPage, pages, workers)
		}
		return measureArenaSequential(keySchema, c.PC, tally, win, perm, rowsPerPage)
	case GlobalDict:
		if size {
			// The distinct counts are order-free, so perm is not consulted;
			// the fault point still fires once per page.
			for p := 0; p < pages; p++ {
				if err := encodePoint.Check(); err != nil {
					return Result{}, err
				}
			}
			return sizeGlobal(c, keySchema, win, pages)
		}
	}
	// Any other codec: feed a session page by page (cross-page state forces
	// sequential order) and drop its encodings.
	sess, err := codec.NewSession(keySchema)
	if err != nil {
		return Result{}, err
	}
	viewPtr := pageViewPool.Get().(*[][]byte)
	defer pageViewPool.Put(viewPtr)
	for start := 0; start < n; start += rowsPerPage {
		view := fillPageView((*viewPtr)[:0], win, perm, start, min(start+rowsPerPage, n))
		*viewPtr = view[:0]
		if err := encodePoint.Check(); err != nil {
			return Result{}, err
		}
		if err := sess.AddPage(view); err != nil {
			return Result{}, err
		}
	}
	res, err = sess.Finish()
	res.Encoded = nil
	return res, err
}

// fillPageView appends the records of rows [start, end) — through perm when
// non-nil — onto view.
func fillPageView(view [][]byte, win value.Window, perm []int32, start, end int) [][]byte {
	if perm == nil {
		for i := start; i < end; i++ {
			view = append(view, win.Rec(i))
		}
		return view
	}
	for _, pi := range perm[start:end] {
		view = append(view, win.Rec(int(pi)))
	}
	return view
}

// measureArenaSequential tallies every page in order.
func measureArenaSequential(keySchema *value.Schema, pc PageCodec, tally pageTally, win value.Window, perm []int32, rowsPerPage int) (Result, error) {
	res := Result{UncompressedBytes: int64(win.Len()) * int64(keySchema.RowWidth()), Rows: int64(win.Len())}
	viewPtr := pageViewPool.Get().(*[][]byte)
	defer pageViewPool.Put(viewPtr)
	n := win.Len()
	for start := 0; start < n; start += rowsPerPage {
		view := fillPageView((*viewPtr)[:0], win, perm, start, min(start+rowsPerPage, n))
		*viewPtr = view[:0]
		if err := encodePoint.Check(); err != nil {
			return Result{}, err
		}
		size, de, err := tally(pc, keySchema, view)
		if err != nil {
			return Result{}, err
		}
		res.Pages++
		res.CompressedBytes += int64(size)
		res.DictEntries += de
	}
	return res, nil
}

// measureArenaParallel fans page tallies across a bounded worker group and
// sums the per-worker totals.
func measureArenaParallel(keySchema *value.Schema, pc PageCodec, tally pageTally, win value.Window, perm []int32, rowsPerPage, pages, workers int) (Result, error) {
	type partial struct {
		comp, dict int64
		err        error
	}
	partials := make([]partial, workers)
	var wg sync.WaitGroup
	// Contiguous page ranges per worker: worker w handles pages
	// [w·chunk, min((w+1)·chunk, pages)).
	chunk := (pages + workers - 1) / workers
	n := win.Len()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic on a fan-out worker (poisoned codec, injected fault)
			// lands in this worker's error slot instead of crashing the
			// process; the gather below surfaces it like any page error.
			defer func() {
				if r := recover(); r != nil {
					partials[w].err = faults.AsError(r)
				}
			}()
			viewPtr := pageViewPool.Get().(*[][]byte)
			defer pageViewPool.Put(viewPtr)
			for p := w * chunk; p < (w+1)*chunk && p < pages; p++ {
				start := p * rowsPerPage
				view := fillPageView((*viewPtr)[:0], win, perm, start, min(start+rowsPerPage, n))
				*viewPtr = view[:0]
				if err := encodePoint.Check(); err != nil {
					partials[w].err = err
					return
				}
				size, de, err := tally(pc, keySchema, view)
				if err != nil {
					partials[w].err = err
					return
				}
				partials[w].comp += int64(size)
				partials[w].dict += de
			}
		}()
	}
	wg.Wait()
	res := Result{
		UncompressedBytes: int64(n) * int64(keySchema.RowWidth()),
		Rows:              int64(n),
		Pages:             pages,
	}
	for _, p := range partials {
		if p.err != nil {
			return Result{}, p.err
		}
		res.CompressedBytes += p.comp
		res.DictEntries += p.dict
	}
	return res, nil
}

// RowsPerPage returns how many fixed-width records of keySchema fit in one
// uncompressed page of pageSize bytes, accounting for the page header and
// per-record slot entries. This defines the page grouping used when
// compressing without a materialized index.
func RowsPerPage(keySchema *value.Schema, pageSize int) int {
	per := pageSize - page.HeaderSize
	cost := keySchema.RowWidth() + 4
	n := per / cost
	if n < 1 {
		n = 1
	}
	return n
}
