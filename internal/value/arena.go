package value

import (
	"fmt"
	"slices"
)

// RecordArena is the columnar, zero-per-row-allocation sample representation
// the estimation hot path runs on. All appended rows are encoded into two
// contiguous buffers — the fixed-width record encoding (EncodeRecord) and the
// order-preserving memcomparable key encoding (EncodeKey) — addressed by row
// index: because both encodings are exactly Schema.RowWidth() bytes per row,
// row i lives at byte offset i·RowWidth() in each buffer. Replacing the
// previous per-row [][]byte pairs (two heap objects per sampled row, plus a
// clone per column on retention) with offset addressing is what takes
// PrepareIndex from ~5 allocations per sampled row to a handful per sample.
//
// Key derivation exploits that EncodeKey differs from EncodeRecord only in
// integer columns' leading sign bit (flipped so unsigned byte comparison
// matches signed order): the key buffer is a copy of the record bytes with
// one XOR per integer column. Character columns are identical in both.
//
// A RecordArena is not safe for concurrent mutation; once filled it may be
// read from any number of goroutines. The zero value is unusable — construct
// with NewRecordArena.
type RecordArena struct {
	schema *Schema
	w      int // schema.RowWidth()
	// intOffs holds the byte offset of each integer column's first (sign)
	// byte within a record, precomputed for key derivation.
	intOffs []int
	recs    []byte // n·w bytes of fixed-width records
	keys    []byte // n·w bytes of memcomparable keys
	n       int
}

// NewRecordArena returns an empty arena for rows of schema, with capacity
// pre-sized for capRows rows.
func NewRecordArena(schema *Schema, capRows int) *RecordArena {
	a := &RecordArena{}
	a.ResetTo(schema, capRows)
	return a
}

// ResetTo empties the arena and re-targets it at rows of schema, with
// capacity for capRows rows, keeping both buffers' capacity: the reuse
// path for pooled arenas, which may have held another table's rows.
func (a *RecordArena) ResetTo(schema *Schema, capRows int) {
	if schema != a.schema {
		// A fresh slice: Freeze and Clone share intOffs with copies.
		var offs []int
		for i := 0; i < schema.NumColumns(); i++ {
			if !schema.Column(i).Type.IsCharacter() {
				offs = append(offs, schema.ColumnOffsets()[i][0])
			}
		}
		a.schema, a.w, a.intOffs = schema, schema.RowWidth(), offs
	}
	capBytes := max(capRows, 0) * a.w
	a.recs = slices.Grow(a.recs[:0], capBytes)
	a.keys = slices.Grow(a.keys[:0], capBytes)
	a.n = 0
}

// Schema returns the arena's row schema.
func (a *RecordArena) Schema() *Schema { return a.schema }

// Len returns the number of rows in the arena.
func (a *RecordArena) Len() int { return a.n }

// RowWidth returns the per-row byte width of both buffers.
func (a *RecordArena) RowWidth() int { return a.w }

// Rec returns row i's fixed-width record. The slice aliases the arena.
func (a *RecordArena) Rec(i int) []byte { return a.recs[i*a.w : (i+1)*a.w : (i+1)*a.w] }

// Key returns row i's memcomparable key. The slice aliases the arena.
func (a *RecordArena) Key(i int) []byte { return a.keys[i*a.w : (i+1)*a.w : (i+1)*a.w] }

// Recs returns the whole record buffer (n·RowWidth bytes, row-major).
func (a *RecordArena) Recs() []byte { return a.recs }

// Keys returns the whole key buffer (n·RowWidth bytes, row-major).
func (a *RecordArena) Keys() []byte { return a.keys }

// Reset empties the arena, retaining both buffers' capacity.
func (a *RecordArena) Reset() {
	a.recs = a.recs[:0]
	a.keys = a.keys[:0]
	a.n = 0
}

// Append validates row against the schema and encodes its record and key
// into the arena. Equivalent to EncodeRecord + EncodeKey on fresh buffers,
// but amortized: steady-state appends never allocate.
func (a *RecordArena) Append(row Row) error {
	if err := ValidateRow(a.schema, row); err != nil {
		return err
	}
	a.appendUnchecked(row)
	return nil
}

// appendUnchecked is Append without validation, for callers that already
// validated (e.g. rows re-read from storage that validated on write).
func (a *RecordArena) appendUnchecked(row Row) {
	start := len(a.recs)
	for i, v := range row {
		a.recs = appendPadded(a.recs, a.schema.Column(i).Type, v)
	}
	a.keys = append(a.keys, a.recs[start:]...)
	a.flipSigns(start)
	a.n++
}

// flipSigns turns the record bytes copied into the key buffer at byte
// offset start into the row's memcomparable key.
func (a *RecordArena) flipSigns(start int) {
	for _, off := range a.intOffs {
		a.keys[start+off] ^= 0x80
	}
}

// SetRow overwrites row i in place with the encoding of row. Width is fixed,
// so in-place replacement never moves other rows; maintained (reservoir)
// samples rely on this for slot eviction.
func (a *RecordArena) SetRow(i int, row Row) error {
	if i < 0 || i >= a.n {
		return fmt.Errorf("value: arena row %d out of range [0,%d)", i, a.n)
	}
	if err := ValidateRow(a.schema, row); err != nil {
		return err
	}
	start := i * a.w
	off := start
	for c, v := range row {
		t := a.schema.Column(c).Type
		off += copy(a.recs[off:], v)
		for pad := t.FixedWidth() - len(v); pad > 0; pad-- {
			a.recs[off] = t.PadByte()
			off++
		}
	}
	copy(a.keys[start:start+a.w], a.recs[start:start+a.w])
	a.flipSigns(start)
	return nil
}

// SetRec overwrites row i in place with a fixed-width record (exactly
// RowWidth bytes), deriving its key: SetRow for callers that already hold
// the encoding, such as parallel fills from a record store.
func (a *RecordArena) SetRec(i int, rec []byte) error {
	if i < 0 || i >= a.n {
		return fmt.Errorf("value: arena row %d out of range [0,%d)", i, a.n)
	}
	if len(rec) != a.w {
		return fmt.Errorf("value: arena record is %d bytes, schema %s requires %d", len(rec), a.schema, a.w)
	}
	start := i * a.w
	copy(a.recs[start:start+a.w], rec)
	copy(a.keys[start:start+a.w], rec)
	a.flipSigns(start)
	return nil
}

// MoveRow copies row src over row dst (record and key) — the swap-with-last
// primitive reservoir deletion uses.
func (a *RecordArena) MoveRow(dst, src int) {
	if dst == src {
		return
	}
	copy(a.recs[dst*a.w:(dst+1)*a.w], a.recs[src*a.w:(src+1)*a.w])
	copy(a.keys[dst*a.w:(dst+1)*a.w], a.keys[src*a.w:(src+1)*a.w])
}

// Grow appends n zeroed rows, extending the arena to Len()+n. The new
// slots hold no valid encoding until overwritten; pair with SetRow, which
// rewrites a slot's record and key bytes completely. Pre-growing and
// filling disjoint slot ranges from multiple goroutines is the parallel
// bulk-ingestion pattern sharded full-table scans use — SetRow touches
// only its own row's byte ranges, so disjoint slots never race.
func (a *RecordArena) Grow(n int) {
	if n <= 0 {
		return
	}
	a.recs = zeroExtend(a.recs, n*a.w)
	a.keys = zeroExtend(a.keys, n*a.w)
	a.n += n
}

// zeroExtend lengthens b by n zeroed bytes without the transient zero
// buffer append(b, make([]byte, n)...) would build: when capacity is
// already reserved (NewRecordArena pre-sizes for the caller's row count)
// it reslices in place and clears only the exposed region, which may hold
// stale bytes from a previous Truncate or Reset.
func zeroExtend(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		m := len(b)
		b = b[:m+n]
		clear(b[m:])
		return b
	}
	return append(b, make([]byte, n)...)
}

// Truncate shortens the arena to n rows.
func (a *RecordArena) Truncate(n int) {
	if n < 0 || n > a.n {
		return
	}
	a.recs = a.recs[:n*a.w]
	a.keys = a.keys[:n*a.w]
	a.n = n
}

// Row decodes row i back into a per-column Row (allocating; the payloads
// alias the arena). For slow paths and tests — the hot path never decodes.
func (a *RecordArena) Row(i int) (Row, error) {
	return DecodeRecord(a.schema, a.Rec(i))
}

// Freeze returns an immutable snapshot header over the arena's current
// rows in O(1): the snapshot shares the backing buffers with a, capped at
// today's length. The contract that makes this safe for concurrent readers
// is append-only growth — the owner may keep Appending to a (writes land
// past the frozen length, or reallocate both buffers entirely) but must
// never SetRow/MoveRow/Truncate/Reset rows the snapshot covers, because
// those mutate the shared prefix in place. Capacity is clamped to length
// (three-index slices), so even an accidental append through the snapshot
// copies instead of clobbering the owner's bytes.
func (a *RecordArena) Freeze() *RecordArena {
	return &RecordArena{
		schema:  a.schema,
		w:       a.w,
		intOffs: a.intOffs,
		recs:    a.recs[:len(a.recs):len(a.recs)],
		keys:    a.keys[:len(a.keys):len(a.keys)],
		n:       a.n,
	}
}

// Clone returns a deep copy of the arena.
func (a *RecordArena) Clone() *RecordArena {
	out := &RecordArena{
		schema:  a.schema,
		w:       a.w,
		intOffs: a.intOffs,
		recs:    append([]byte(nil), a.recs...),
		keys:    append([]byte(nil), a.keys...),
		n:       a.n,
	}
	return out
}

// AppendFrom appends rows src[idx] for each idx in order — the gather
// primitive subsampling uses (e.g. drawing a WOR subsample of a maintained
// sample). Rows are copied byte-wise; no re-encoding happens.
func (a *RecordArena) AppendFrom(src *RecordArena, order []int64) error {
	if src.w != a.w {
		return fmt.Errorf("value: arena gather across schemas %s and %s", src.schema, a.schema)
	}
	return a.AppendGather(src.recs, order)
}

// AppendGather appends the record store[i·w : (i+1)·w] for each i in idx,
// in order, where w is RowWidth and store holds whole records: the batched
// draw primitive. The records are copied in one tight loop and their keys
// derived in one pass after it, so a draw touches no per-row call. An index
// outside the store fails the call with no row appended.
func (a *RecordArena) AppendGather(store []byte, idx []int64) error {
	w := int64(a.w)
	if w == 0 || len(idx) == 0 {
		return nil
	}
	rows := int64(len(store)) / w
	start := len(a.recs)
	a.recs = slices.Grow(a.recs, len(idx)*a.w)[:start+len(idx)*a.w]
	dst := a.recs[start:]
	for k, i := range idx {
		if i < 0 || i >= rows {
			a.recs = a.recs[:start]
			return fmt.Errorf("value: arena gather index %d out of range [0,%d)", i, rows)
		}
		copy(dst[int64(k)*w:int64(k+1)*w], store[i*w:(i+1)*w])
	}
	a.keys = append(a.keys, dst...)
	if len(a.intOffs) > 0 {
		for r := start; r < len(a.keys); r += a.w {
			a.flipSigns(r)
		}
	}
	a.n += len(idx)
	return nil
}

// AppendAll appends every row of src (records and keys, byte-wise) — the
// bulk-extension primitive resumable sampling uses to merge a newly drawn
// round into a growing sample. Schemas must have identical row widths;
// rows are copied, so src may be discarded or reused afterwards.
func (a *RecordArena) AppendAll(src *RecordArena) error {
	return a.AppendWindow(src.Full())
}

// AppendWindow appends every row of the window src as a whole row of a,
// whose RowWidth must equal the window's width: the window's records and
// keys are copied byte-wise, so the result is the projected arena the
// window stands for.
func (a *RecordArena) AppendWindow(src Window) error {
	if src.w != a.w {
		return fmt.Errorf("value: append of %d-byte window rows to arena of %s (%d bytes)", src.w, a.schema, a.w)
	}
	if src.off == 0 && src.w == src.ar.w {
		a.recs = append(a.recs, src.ar.recs...)
		a.keys = append(a.keys, src.ar.keys...)
	} else {
		for i := 0; i < src.Len(); i++ {
			a.recs = append(a.recs, src.Rec(i)...)
			a.keys = append(a.keys, src.Key(i)...)
		}
	}
	a.n += src.Len()
	return nil
}

// Window is the byte range [off, off+width) of every row of an arena. Over
// a run of adjacent columns in schema order (Schema.ColumnRun) it holds, in
// place, the records and memcomparable keys of the rows projected onto
// those columns — key bytes of a column do not depend on its neighbors —
// so an index on the run is sorted and measured without a projected copy.
// Rows are addressed at the arena's stride, RowWidth. A Window reads the
// arena's current rows; it is as safe for concurrent use as the arena.
type Window struct {
	ar     *RecordArena
	off, w int
}

// Window returns the window [off, off+width) of every row of a. It panics
// when the range does not lie within a row.
func (a *RecordArena) Window(off, width int) Window {
	if off < 0 || width < 0 || off+width > a.w {
		panic(fmt.Sprintf("value: window [%d,%d) outside %d-byte rows", off, off+width, a.w))
	}
	return Window{ar: a, off: off, w: width}
}

// Full returns the window of whole rows.
func (a *RecordArena) Full() Window { return Window{ar: a, w: a.w} }

// Arena returns the arena the window reads.
func (w Window) Arena() *RecordArena { return w.ar }

// Offset returns the window's first byte within a row.
func (w Window) Offset() int { return w.off }

// Width returns the window's bytes per row.
func (w Window) Width() int { return w.w }

// Stride returns the distance between consecutive rows' windows: the
// arena's RowWidth.
func (w Window) Stride() int { return w.ar.w }

// Len returns the number of rows.
func (w Window) Len() int { return w.ar.n }

// Rec returns row i's record bytes in the window. The slice aliases the
// arena.
func (w Window) Rec(i int) []byte {
	s := i*w.ar.w + w.off
	return w.ar.recs[s : s+w.w : s+w.w]
}

// Key returns row i's key bytes in the window. The slice aliases the arena.
func (w Window) Key(i int) []byte {
	s := i*w.ar.w + w.off
	return w.ar.keys[s : s+w.w : s+w.w]
}

// Recs returns the record buffer from the window's first byte: row i's
// window is Recs()[i·Stride() : i·Stride()+Width()].
func (w Window) Recs() []byte { return tail(w.ar.recs, w.off) }

// Keys returns the key buffer from the window's first byte, addressed like
// Recs.
func (w Window) Keys() []byte { return tail(w.ar.keys, w.off) }

// tail returns b[off:], or nil when b is empty (an arena with no rows).
func tail(b []byte, off int) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[off:]
}

// ProjectTo appends every row of the arena, restricted to the columns at
// positions proj (which must match dst's schema), into dst. Projection is a
// per-column byte-range copy out of the record and key buffers: both
// encodings are column-aligned, and key bytes of a column are independent of
// its neighbors, so projected keys equal re-encoded keys byte-for-byte.
func (a *RecordArena) ProjectTo(dst *RecordArena, proj []int) error {
	if len(proj) != dst.schema.NumColumns() {
		return fmt.Errorf("value: projection has %d columns, destination schema %s has %d",
			len(proj), dst.schema, dst.schema.NumColumns())
	}
	p, err := NewProjection(a.schema, proj)
	if err != nil {
		return err
	}
	for i, c := range proj {
		if a.schema.Column(c).Type != dst.schema.Column(i).Type {
			return fmt.Errorf("value: projected column %d type %s does not match destination %s",
				c, a.schema.Column(c).Type, dst.schema.Column(i).Type)
		}
	}
	for r := 0; r < a.n; r++ {
		dst.recs = p.AppendRecord(dst.recs, a.Rec(r))
		dst.keys = p.AppendRecord(dst.keys, a.Key(r))
		dst.n++
	}
	return nil
}

// Projection extracts a column subset from fixed-width records of one
// schema without decoding them. The projected record is the selected
// columns' byte ranges concatenated in projection order; the projected key
// is the same bytes with each integer column's sign bit flipped. Both equal
// byte for byte what EncodeRecord and EncodeKey produce for the projected
// Row, which is what lets full-table readers (stratum directories,
// ground-truth scans) work straight off a record store.
type Projection struct {
	spans   []span // source byte ranges in output order, adjacent ranges merged
	intOffs []int  // sign-byte offsets of integer columns in the output
}

// span is one [start, start+width) byte range of a source record.
type span struct{ start, width int }

// NewProjection resolves the columns at positions proj of schema s.
func NewProjection(s *Schema, proj []int) (*Projection, error) {
	p := &Projection{}
	out := 0
	for _, c := range proj {
		if c < 0 || c >= s.NumColumns() {
			return nil, fmt.Errorf("value: projection index %d out of range", c)
		}
		r := s.ColumnOffsets()[c]
		if !s.Column(c).Type.IsCharacter() {
			p.intOffs = append(p.intOffs, out)
		}
		out += r[1] - r[0]
		if k := len(p.spans) - 1; k >= 0 && p.spans[k].start+p.spans[k].width == r[0] {
			p.spans[k].width += r[1] - r[0]
			continue
		}
		p.spans = append(p.spans, span{start: r[0], width: r[1] - r[0]})
	}
	return p, nil
}

// AppendRecord appends the projection of record rec to dst.
func (p *Projection) AppendRecord(dst, rec []byte) []byte {
	for _, sp := range p.spans {
		dst = append(dst, rec[sp.start:sp.start+sp.width]...)
	}
	return dst
}

// AppendKey appends the memcomparable key of rec's projection to dst.
func (p *Projection) AppendKey(dst, rec []byte) []byte {
	start := len(dst)
	dst = p.AppendRecord(dst, rec)
	for _, off := range p.intOffs {
		dst[start+off] ^= 0x80
	}
	return dst
}
