package compress

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"

	"samplecf/internal/value"
)

// Shared machinery of the PageSizer implementations: the per-page table of
// suppressed value lengths, the distinct-value counter behind every
// dictionary size, and the Huffman bit total.

// suppressedPage holds one page's null-suppressed value lengths (the
// paper's ℓ), computed once: PickBest scans a page once and hands the table
// to every member that sizes from it, so no value is trimmed twice.
type suppressedPage struct {
	rows int
	// lens is column-major: lens[c*rows+i] is ℓ of row i's column c.
	// value.MaxCharLength keeps every ℓ within uint16.
	lens []uint16
	// nsBytes[c] is Σ (h + ℓ) over the page's column c: that column's
	// null-suppressed size.
	nsBytes []int
}

// len returns ℓ of row i's column c, whose stored value is stored. A nil
// page measures the value itself, for sizers that need ℓ of a few values
// only (dictionary entries, runs) when no shared scan is at hand.
func (sp *suppressedPage) len(t value.Type, c, i int, stored []byte) int {
	if sp == nil {
		return suppressedLen(t, stored)
	}
	return int(sp.lens[c*sp.rows+i])
}

var suppressedPagePool = sync.Pool{New: func() any { return new(suppressedPage) }}

// scanSuppressed fills a pooled suppressedPage for records, which must
// already have passed checkRecords. Release it with putSuppressed.
func scanSuppressed(schema *value.Schema, records [][]byte) *suppressedPage {
	sp := suppressedPagePool.Get().(*suppressedPage)
	cols := columnOffsets(schema)
	sp.rows = len(records)
	sp.lens = slices.Grow(sp.lens[:0], len(cols)*len(records))[:len(cols)*len(records)]
	sp.nsBytes = slices.Grow(sp.nsBytes[:0], len(cols))[:len(cols)]
	for c := range cols {
		t := schema.Column(c).Type
		lo, hi := cols[c][0], cols[c][1]
		lens := sp.lens[c*len(records) : (c+1)*len(records)]
		total := len(records) * lenHeaderSize(t.FixedWidth())
		for i, rec := range records {
			l := suppressedLen(t, rec[lo:hi])
			lens[i] = uint16(l)
			total += l
		}
		sp.nsBytes[c] = total
	}
	return sp
}

func putSuppressed(sp *suppressedPage) { suppressedPagePool.Put(sp) }

// suppressedLen returns len(suppressColumn(t, stored)) without building
// the slice: trailing padding of character values is found a word at a
// time.
func suppressedLen(t value.Type, stored []byte) int {
	if !t.IsCharacter() {
		return len(value.SuppressIntPadding(stored))
	}
	pad := t.PadByte()
	word := uint64(pad) * 0x0101010101010101
	n := len(stored)
	for n >= 8 {
		// Little-endian, so the word's high bytes are the value's last:
		// leading zero bytes of the XOR count its trailing pad bytes.
		if x := binary.LittleEndian.Uint64(stored[n-8:]) ^ word; x != 0 {
			return n - bits.LeadingZeros64(x)/8
		}
		n -= 8
	}
	for n > 0 && stored[n-1] == pad {
		n--
	}
	return n
}

// suppressedOf returns the suppressed view of a stored column value whose
// suppressed length is l: suppressColumn's result, without re-scanning.
// Character values lose trailing padding, integers leading sign bytes.
func suppressedOf(t value.Type, stored []byte, l int) []byte {
	if t.IsCharacter() {
		return stored[:l]
	}
	return stored[len(stored)-l:]
}

// suppressedSizer is the form of PageSizer that PickBest shares a page
// scan with: the same exact size, read off a suppressedPage of records
// that have passed checkRecords (nil where the sizer allows it).
type suppressedSizer interface {
	sizeSuppressed(schema *value.Schema, records [][]byte, sp *suppressedPage) (int, int64, error)
}

// --- distinct values -----------------------------------------------------------

// distinctSet counts distinct column values without copying or interning
// them: an open-addressing hash table whose slots hold the index+1 of the
// first row seen with each value (0 = empty). A probe compares the stored
// row's bytes with the candidate's, so equal hashes never merge values.
type distinctSet struct {
	slots []int32
	mask  uint64
}

var (
	distinctSetPool = sync.Pool{New: func() any { return new(distinctSet) }}
	distinctSeed    = maphash.MakeSeed()
)

// reset empties the set and sizes it for up to n values at load ≤ 1/2.
func (s *distinctSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.slots) < size {
		s.slots = make([]int32, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.mask = uint64(size - 1)
}

// countPage counts the distinct values of column bytes [lo, hi) over
// records, calling onNew (when non-nil) with the row index of each value's
// first appearance.
func (s *distinctSet) countPage(records [][]byte, lo, hi int, onNew func(i int)) int {
	s.reset(len(records))
	m := 0
	for i, rec := range records {
		v := rec[lo:hi]
		for pos := maphash.Bytes(distinctSeed, v) & s.mask; ; pos = (pos + 1) & s.mask {
			j := s.slots[pos]
			if j == 0 {
				s.slots[pos] = int32(i + 1)
				m++
				if onNew != nil {
					onNew(i)
				}
				break
			}
			if string(records[j-1][lo:hi]) == string(v) {
				break
			}
		}
	}
	return m
}

// countArena counts the distinct values of column bytes [lo, hi) over
// every row of the window win: countPage over the arena's flat record
// buffer, so no per-row view is built.
func (s *distinctSet) countArena(win value.Window, lo, hi int) int {
	n, w, recs := win.Len(), win.Stride(), win.Recs()
	s.reset(n)
	m := 0
	for i := 0; i < n; i++ {
		v := recs[i*w+lo : i*w+hi]
		for pos := maphash.Bytes(distinctSeed, v) & s.mask; ; pos = (pos + 1) & s.mask {
			j := int(s.slots[pos]) - 1
			if j < 0 {
				s.slots[pos] = int32(i + 1)
				m++
				break
			}
			if string(recs[j*w+lo:j*w+hi]) == string(v) {
				break
			}
		}
	}
	return m
}

// sizeGlobal is GlobalDict's size-only route over an arena: per column, the
// 4-byte entry count, d fixed-width entries and one p-byte pointer per row,
// after the blob's 4-byte row count (the layout globalSession.Finish
// writes). pages is the page count a session would have been fed.
func sizeGlobal(g GlobalDict, schema *value.Schema, win value.Window, pages int) (Result, error) {
	if g.PointerBytes < 0 || g.PointerBytes > 8 {
		return Result{}, fmt.Errorf("compress: pointer size %d out of range", g.PointerBytes)
	}
	n := int64(win.Len())
	res := Result{
		Rows:              n,
		Pages:             pages,
		UncompressedBytes: n * int64(schema.RowWidth()),
		CompressedBytes:   4,
	}
	set := distinctSetPool.Get().(*distinctSet)
	defer distinctSetPool.Put(set)
	for _, span := range columnOffsets(schema) {
		m := set.countArena(win, span[0], span[1])
		p := g.PointerBytes
		if p == 0 {
			p = pointerSize(m)
		}
		res.CompressedBytes += 4 + int64(m)*int64(span[1]-span[0]) + n*int64(p)
		res.DictEntries += int64(m)
	}
	return res, nil
}

// --- Huffman -------------------------------------------------------------------

// huffmanMergeSafe bounds the stream length below which no Huffman tree is
// deeper than maxCodeLen: a leaf at depth d needs a total weight of at
// least Fib(d+2), and Fib(maxCodeLen+3) = 9,227,465 > 1<<23.
const huffmanMergeSafe = 1 << 23

// huffmanBits returns the bit length of the stream an optimal canonical
// Huffman code (huffmanCodeLengths) writes for the histogram freq: Σ f·len.
// The sum of the merged weights of any Huffman merge sequence is that
// total, so it is computed with the two-queue merge over the sorted
// frequencies. Only where maxCodeLen could clamp a length does it fall back
// to the code lengths themselves.
func huffmanBits(freq *[256]int64) int64 {
	var leaves [256]int64
	n := 0
	var total int64
	for _, f := range freq {
		if f > 0 {
			leaves[n] = f
			n++
			total += f
		}
	}
	switch {
	case n == 0:
		return 0
	case n == 1:
		return total // the lone symbol gets a 1-bit code
	case total >= huffmanMergeSafe:
		lens := huffmanCodeLengths(freq[:])
		var bits int64
		for s, f := range freq {
			bits += f * int64(lens[s])
		}
		return bits
	}
	slices.Sort(leaves[:n])
	// Merged weights come out nondecreasing, so the two queues' fronts
	// always hold the two smallest remaining weights.
	var merged [255]int64
	li, mi, mn := 0, 0, 0
	var bits int64
	for k := 0; k < n-1; k++ {
		var w int64
		for range 2 {
			if li < n && (mi == mn || leaves[li] <= merged[mi]) {
				w += leaves[li]
				li++
			} else {
				w += merged[mi]
				mi++
			}
		}
		merged[mn] = w
		mn++
		bits += w
	}
	return bits
}
