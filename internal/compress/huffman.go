package compress

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"samplecf/internal/value"
)

// Huffman is per-page byte-level entropy coding with a canonical Huffman
// code built from the page's own byte histogram. It represents the
// "statistical" codec family (as opposed to the structural NS/dictionary
// families the paper analyzes) and exists to stress the estimator's
// codec-agnosticism: SampleCF never looks inside it.
//
// Records are null-suppressed first (entropy coding k-padding is wasteful),
// then the concatenated bytes are Huffman coded. Encoded page layout:
//
//	[rows uint16]
//	per row: [nsLen h-bytes]              (null-suppressed record framing)
//	[codeLens: 256 × uint8]               (canonical code, 0 = absent)
//	[bitstream length uint32][bitstream]
type Huffman struct{}

// Name implements PageCodec.
func (Huffman) Name() string { return "huffman" }

// maxCodeLen caps code lengths so lengths fit a byte and decoding tables
// stay small; 32 is unreachable for 64 Ki inputs but guards degenerate
// histograms.
const maxCodeLen = 32

// EncodePage implements PageCodec.
func (hf Huffman) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := hf.AppendPage(schema, records, nil)
	return out, err
}

// huffScratch pools the suppressed byte stream and bit buffer one page
// encode needs.
type huffScratch struct {
	stream []byte
	bits   []byte
}

var huffScratchPool = sync.Pool{New: func() any { return &huffScratch{} }}

// AppendPage implements PageAppender.
func (Huffman) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return dst, 0, err
	}
	if len(records) > maxPageRows {
		return dst, 0, ErrCorrupt
	}
	cols := columnOffsets(schema)
	out := dst
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(records)))
	out = append(out, hdr[:]...)

	sc := huffScratchPool.Get().(*huffScratch)
	defer huffScratchPool.Put(sc)

	// Null-suppress every record; emit per-row framing; gather the byte
	// stream to be entropy coded.
	stream := sc.stream[:0]
	for _, rec := range records {
		rowStart := len(stream)
		for c := range cols {
			t := schema.Column(c).Type
			sup := suppressColumn(t, rec[cols[c][0]:cols[c][1]])
			// Column framing within the row: [len h][bytes], so decode can
			// re-split columns.
			h := lenHeaderSize(t.FixedWidth())
			stream = putLen(stream, len(sup), h)
			stream = append(stream, sup...)
		}
		rowLen := len(stream) - rowStart
		if rowLen > 1<<16-1 {
			// 2-byte row framing: schemas wider than 64 KiB per suppressed
			// row (16+ CHAR(4000) columns) are beyond this codec.
			sc.stream = stream
			return dst, 0, fmt.Errorf("compress: huffman row of %d bytes exceeds framing limit", rowLen)
		}
		out = putLen(out, rowLen, 2)
	}
	sc.stream = stream

	// Histogram → canonical code lengths.
	var freq [256]int64
	for _, b := range stream {
		freq[b]++
	}
	lens := huffmanCodeLengths(freq[:])
	out = append(out, lens...)

	// Assign canonical codes and emit the bitstream.
	codes := canonicalCodes(lens)
	bw := bitWriter{buf: sc.bits[:0]}
	for _, b := range stream {
		bw.write(codes[b].bits, codes[b].len)
	}
	bits := bw.finish()
	var l4 [4]byte
	binary.LittleEndian.PutUint32(l4[:], uint32(len(stream)))
	out = append(out, l4[:]...)
	out = append(out, bits...)
	sc.bits = bits
	return out, 0, nil
}

// SizePage implements PageSizer. The page is its fixed framing — row
// count, per-row lengths, the 256 code lengths and the stream length —
// plus the bitstream, whose length follows from the byte histogram of the
// suppressed stream (length headers included) alone: huffmanBits.
func (Huffman) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	if len(records) > maxPageRows {
		return 0, 0, ErrCorrupt
	}
	cols := columnOffsets(schema)
	var freq [256]int64
	for _, rec := range records {
		rowLen := 0
		for c := range cols {
			t := schema.Column(c).Type
			stored := rec[cols[c][0]:cols[c][1]]
			sup := suppressedOf(t, stored, suppressedLen(t, stored))
			// The column's length header, as putLen writes it.
			h := lenHeaderSize(t.FixedWidth())
			freq[byte(len(sup))]++
			if h == 2 {
				freq[byte(len(sup)>>8)]++
			}
			for _, b := range sup {
				freq[b]++
			}
			rowLen += h + len(sup)
		}
		if rowLen > 1<<16-1 {
			return 0, 0, fmt.Errorf("compress: huffman row of %d bytes exceeds framing limit", rowLen)
		}
	}
	bits := huffmanBits(&freq)
	return 2 + 2*len(records) + 256 + 4 + int((bits+7)/8), 0, nil
}

// DecodePage implements PageCodec.
func (Huffman) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
	if len(data) < 2 {
		return nil, ErrCorrupt
	}
	rows := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	rowLens := make([]int, rows)
	for i := 0; i < rows; i++ {
		l, rest, err := getLen(data, 2)
		if err != nil {
			return nil, err
		}
		rowLens[i] = l
		data = rest
	}
	if len(data) < 256+4 {
		return nil, ErrCorrupt
	}
	lens := data[:256]
	data = data[256:]
	streamLen := int(binary.LittleEndian.Uint32(data))
	data = data[4:]

	stream, err := huffmanDecode(lens, data, streamLen)
	if err != nil {
		return nil, err
	}

	cols := columnOffsets(schema)
	records := make([][]byte, rows)
	off := 0
	for i := 0; i < rows; i++ {
		if off+rowLens[i] > len(stream) {
			return nil, ErrCorrupt
		}
		row := stream[off : off+rowLens[i]]
		off += rowLens[i]
		rec := make([]byte, schema.RowWidth())
		for c := range cols {
			t := schema.Column(c).Type
			h := lenHeaderSize(t.FixedWidth())
			l, rest, err := getLen(row, h)
			if err != nil {
				return nil, err
			}
			if l > t.FixedWidth() || len(rest) < l {
				return nil, ErrCorrupt
			}
			expandInto(t, rest[:l], rec[cols[c][0]:cols[c][1]])
			row = rest[l:]
		}
		if len(row) != 0 {
			return nil, ErrCorrupt
		}
		records[i] = rec
	}
	return records, nil
}

// --- canonical Huffman machinery ------------------------------------------------

type hNode struct {
	freq        int64
	sym         int // 0..255, or -1 for internal
	left, right *hNode
}

type hHeap []*hNode

func (h hHeap) Len() int { return len(h) }
func (h hHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h hHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hHeap) Push(x any)   { *h = append(*h, x.(*hNode)) }
func (h *hHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

// huffmanCodeLengths returns one code length per byte value (0 = unused).
func huffmanCodeLengths(freq []int64) []byte {
	var hp hHeap
	for sym, f := range freq {
		if f > 0 {
			hp = append(hp, &hNode{freq: f, sym: sym})
		}
	}
	lens := make([]byte, 256)
	switch len(hp) {
	case 0:
		return lens
	case 1:
		lens[hp[0].sym] = 1 // degenerate single-symbol alphabet
		return lens
	}
	heap.Init(&hp)
	for hp.Len() > 1 {
		a := heap.Pop(&hp).(*hNode)
		b := heap.Pop(&hp).(*hNode)
		heap.Push(&hp, &hNode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
	}
	root := hp[0]
	var walk func(n *hNode, depth byte)
	walk = func(n *hNode, depth byte) {
		if n.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			if depth > maxCodeLen {
				depth = maxCodeLen // freq skew beyond 2^32 inputs: unreachable
			}
			lens[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lens
}

type hCode struct {
	bits uint64
	len  byte
}

// canonicalCodes assigns canonical codes from lengths (shorter codes first,
// ties by symbol value).
func canonicalCodes(lens []byte) [256]hCode {
	type sl struct {
		sym int
		l   byte
	}
	var syms []sl
	for s, l := range lens {
		if l > 0 {
			syms = append(syms, sl{s, l})
		}
	}
	slices.SortFunc(syms, func(a, b sl) int {
		if a.l != b.l {
			return int(a.l) - int(b.l)
		}
		return a.sym - b.sym
	})
	var codes [256]hCode
	code := uint64(0)
	prevLen := byte(0)
	for _, s := range syms {
		code <<= (s.l - prevLen)
		codes[s.sym] = hCode{bits: code, len: s.l}
		code++
		prevLen = s.l
	}
	return codes
}

// huffmanDecode walks the canonical code bit by bit (simple and safe; page
// sizes keep inputs small enough that table-driven decoding is unnecessary).
func huffmanDecode(lens []byte, bits []byte, streamLen int) ([]byte, error) {
	codes := canonicalCodes(lens)
	// Build decode map: (len, code) -> symbol.
	type key struct {
		l    byte
		bits uint64
	}
	dec := make(map[key]byte)
	for s := 0; s < 256; s++ {
		if lens[s] > 0 {
			dec[key{codes[s].len, codes[s].bits}] = byte(s)
		}
	}
	out := make([]byte, 0, streamLen)
	br := bitReader{data: bits}
	for len(out) < streamLen {
		var cur uint64
		var l byte
		for {
			b, ok := br.read()
			if !ok {
				return nil, ErrCorrupt
			}
			cur = cur<<1 | uint64(b)
			l++
			if l > maxCodeLen {
				return nil, ErrCorrupt
			}
			if sym, hit := dec[key{l, cur}]; hit {
				out = append(out, sym)
				break
			}
		}
	}
	return out, nil
}

// bitWriter packs MSB-first bits.
type bitWriter struct {
	buf []byte
	cur byte
	n   byte
}

func (w *bitWriter) write(bits uint64, l byte) {
	for i := int(l) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | byte((bits>>uint(i))&1)
		w.n++
		if w.n == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.n = 0, 0
		}
	}
}

func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.n))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

// bitReader reads MSB-first bits.
type bitReader struct {
	data []byte
	pos  int
	bit  byte
}

func (r *bitReader) read() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	b := (r.data[r.pos] >> (7 - r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, true
}

func init() {
	Register("huffman", func() Codec { return Paged{PC: Huffman{}} })
}
