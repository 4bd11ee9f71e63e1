// Package compress implements the compression codecs whose compression
// fraction (CF) the paper's SampleCF estimator estimates, plus the
// measurement plumbing that computes CF over an index.
//
// Two codec families are provided:
//
//   - PageCodec: stateless per-page compression (null suppression, page-
//     level dictionary with the dictionary in-lined in every page, common-
//     prefix, run-length, frame-of-reference, Huffman, and a pick-best
//     composite). These mirror how commercial engines compress index leaf
//     pages.
//   - Codec/Session: whole-index compression with cross-page state. The
//     global-dictionary codec (the paper's simplified analytical model in
//     §III-B) lives here, as does the adapter that lifts any PageCodec.
//
// All codecs implement real encode AND decode. Estimation does not run the
// encoders: it sizes pages (PageSizer, and GlobalDict's distinct counts),
// computing in closed form the length the encoder would produce. The
// encoders stay the reference: core.TrueCF measures through EncodeArena,
// DecodePage and the round-trip tests run on encoded pages, so the measured
// sizes describe decodable representations rather than accounting
// fictions, and FuzzSizer holds every sizer to its encoder byte for byte.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"samplecf/internal/value"
)

// ErrCorrupt is returned when a compressed payload cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt payload")

// PageCodec compresses one page worth of fixed-width index records at a
// time, independently of other pages.
type PageCodec interface {
	// Name identifies the codec in registries and experiment output.
	Name() string
	// EncodePage compresses records (each exactly schema.RowWidth() bytes).
	EncodePage(schema *value.Schema, records [][]byte) ([]byte, error)
	// DecodePage reverses EncodePage, returning records of RowWidth bytes.
	DecodePage(schema *value.Schema, data []byte) ([][]byte, error)
}

// PageAppender is the allocation-free encode path every built-in PageCodec
// implements: AppendPage appends the page's encoding to dst (reusing dst's
// capacity — callers pool the buffer) and returns the extended buffer plus
// the number of dictionary entries the page stores. Implementations must
// not mutate receiver state, so one codec instance can encode pages from
// multiple goroutines concurrently; all per-page working memory comes from
// internal sync.Pools. The bytes appended are exactly what EncodePage
// returns for the same input.
type PageAppender interface {
	AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error)
}

// PageSizer is the size-only twin of PageAppender that the estimation path
// runs on: SizePage returns the length of the encoding AppendPage would
// append for records, the dictionary-entry count it would return, and an
// error exactly when AppendPage would fail — without producing a byte. The
// built-in sizers compute the size in closed form (the paper's Σ(ℓ+h) for
// null suppression, n·p + Σ Pg(v)·k for a page dictionary); FuzzSizer
// holds each to its encoder. Like AppendPage, SizePage must not mutate
// receiver state.
type PageSizer interface {
	SizePage(schema *value.Schema, records [][]byte) (int, int64, error)
}

// Session accumulates the pages of one index during whole-index compression.
type Session interface {
	// AddPage feeds the records of one uncompressed leaf page.
	AddPage(records [][]byte) error
	// Finish returns the result. The session is unusable afterwards.
	Finish() (Result, error)
}

// Result summarizes one whole-index compression.
type Result struct {
	// UncompressedBytes is the fixed-width data size: rows × row width.
	UncompressedBytes int64
	// CompressedBytes is the total encoded payload size.
	CompressedBytes int64
	// Rows is the number of records consumed.
	Rows int64
	// Pages is the number of input pages consumed.
	Pages int
	// DictEntries is the total number of dictionary entries stored (summed
	// over pages for paged dictionaries; the paper's Σ Pg(i)). Zero for
	// codecs with no dictionary.
	DictEntries int64
	// Encoded holds the compressed representation: one element per page for
	// paged codecs, plus codec-specific leading blobs (e.g. the global
	// dictionary). Present so round-trip tests can decode; callers that only
	// need sizes may ignore it.
	Encoded [][]byte
}

// CF returns the compression fraction: compressed / uncompressed size.
// It returns 1 when no data was consumed (the degenerate empty index).
func (r Result) CF() float64 {
	if r.UncompressedBytes == 0 {
		return 1
	}
	return float64(r.CompressedBytes) / float64(r.UncompressedBytes)
}

// Codec creates whole-index compression sessions.
type Codec interface {
	// Name identifies the codec.
	Name() string
	// NewSession starts compressing one index with the given record schema.
	NewSession(schema *value.Schema) (Session, error)
}

// Paged lifts a PageCodec into a Codec whose sessions compress each page
// independently — the shape commercial page compression takes.
type Paged struct {
	PC PageCodec
}

// Name implements Codec.
func (p Paged) Name() string { return p.PC.Name() }

// NewSession implements Codec.
func (p Paged) NewSession(schema *value.Schema) (Session, error) {
	if schema == nil {
		return nil, fmt.Errorf("compress: nil schema")
	}
	return &pagedSession{pc: p.PC, schema: schema}, nil
}

type pagedSession struct {
	pc     PageCodec
	schema *value.Schema
	res    Result
	done   bool
}

// AddPage implements Session.
func (s *pagedSession) AddPage(records [][]byte) error {
	if s.done {
		return fmt.Errorf("compress: session finished")
	}
	var enc []byte
	var de int64
	var err error
	if ap, ok := s.pc.(PageAppender); ok {
		enc, de, err = ap.AppendPage(s.schema, records, nil)
	} else {
		enc, err = s.pc.EncodePage(s.schema, records)
	}
	if err != nil {
		return err
	}
	s.res.DictEntries += de
	s.res.Pages++
	s.res.Rows += int64(len(records))
	s.res.UncompressedBytes += int64(len(records)) * int64(s.schema.RowWidth())
	s.res.CompressedBytes += int64(len(enc))
	s.res.Encoded = append(s.res.Encoded, enc)
	return nil
}

// Finish implements Session.
func (s *pagedSession) Finish() (Result, error) {
	if s.done {
		return Result{}, fmt.Errorf("compress: session finished twice")
	}
	s.done = true
	return s.res, nil
}

// --- shared low-level helpers -----------------------------------------------

// lenHeaderSize returns the paper's h: bytes needed to record a length in
// [0, k].
func lenHeaderSize(k int) int {
	if k < 1<<8 {
		return 1
	}
	return 2
}

// putLen appends a length header of the given size.
func putLen(dst []byte, l, size int) []byte {
	switch size {
	case 1:
		return append(dst, byte(l))
	default:
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(l))
		return append(dst, b[:]...)
	}
}

// getLen reads a length header of the given size, returning the length and
// remaining buffer.
func getLen(src []byte, size int) (int, []byte, error) {
	if len(src) < size {
		return 0, nil, ErrCorrupt
	}
	switch size {
	case 1:
		return int(src[0]), src[1:], nil
	default:
		return int(binary.LittleEndian.Uint16(src)), src[2:], nil
	}
}

// pointerSize returns the byte-aligned pointer width for a dictionary of m
// entries (the paper's p, ⌈log₂ m⌉ bits rounded up to whole bytes).
func pointerSize(m int) int {
	switch {
	case m <= 1<<8:
		return 1
	case m <= 1<<16:
		return 2
	case m <= 1<<24:
		return 3
	default:
		return 4
	}
}

// putPointer appends idx using width bytes (little-endian).
func putPointer(dst []byte, idx, width int) []byte {
	for i := 0; i < width; i++ {
		dst = append(dst, byte(idx>>(8*i)))
	}
	return dst
}

// getPointer reads a width-byte pointer.
func getPointer(src []byte, width int) (int, []byte, error) {
	if len(src) < width {
		return 0, nil, ErrCorrupt
	}
	idx := 0
	for i := 0; i < width; i++ {
		idx |= int(src[i]) << (8 * i)
	}
	return idx, src[width:], nil
}

// columnOffsets returns the [start, end) byte range of each column within a
// fixed-width record. The result is cached on the schema; callers must not
// mutate it.
func columnOffsets(schema *value.Schema) [][2]int { return schema.ColumnOffsets() }

// checkRecords validates that every record has the schema's fixed width.
func checkRecords(schema *value.Schema, records [][]byte) error {
	w := schema.RowWidth()
	for i, r := range records {
		if len(r) != w {
			return fmt.Errorf("compress: record %d is %d bytes, want %d", i, len(r), w)
		}
	}
	return nil
}

// suppressColumn returns the null-suppressed payload of one stored
// fixed-width column value.
func suppressColumn(t value.Type, stored []byte) []byte {
	if t.IsCharacter() {
		return value.TrimPadding(t, stored)
	}
	return value.SuppressIntPadding(stored)
}

// expandColumn reverses suppressColumn into dst (which must be the column's
// fixed width and zero/pad-filled by the caller via expandInto).
func expandInto(t value.Type, suppressed []byte, dst []byte) {
	if t.IsCharacter() {
		copy(dst, suppressed)
		for i := len(suppressed); i < len(dst); i++ {
			dst[i] = t.PadByte()
		}
		return
	}
	copy(dst, value.ExpandIntPadding(suppressed, len(dst)))
}

// --- pooled scratch -----------------------------------------------------------

// pageBufPool recycles page-encoding output buffers for encodedSize, where
// a page's encoding is dead the moment its length has been read.
var pageBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// --- registry ----------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]func() Codec{}
)

// Register adds a codec constructor under name. It panics on duplicates
// (registration happens at init time).
func Register(name string, ctor func() Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", name))
	}
	registry[name] = ctor
}

// Lookup returns a new codec instance by name.
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names lists registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
