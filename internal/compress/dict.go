package compress

import (
	"encoding/binary"
	"fmt"
	"sync"

	"samplecf/internal/value"
)

// PageDict is dictionary compression as commercial systems apply it
// (§II-A, Fig. 1b): per page and per column, distinct values are stored once
// in a dictionary that is in-lined in the page (no extra I/O to resolve
// pointers), and each row stores a small pointer instead of the value.
//
// Encoded page layout:
//
//	[rows uint16]
//	per column:
//	  [dictEntries uint16]
//	  dictionary entries (fixed column width each, or length-prefixed
//	    null-suppressed bytes when EntryNS is set)
//	  row pointers (rows × pointerSize(dictEntries) bytes)
//
// With fixed-width entries the compressed size of one page is exactly
// Σ_cols (2 + m_c·k_c + rows·p_c) + 2, so summing over pages reproduces the
// paper's general dictionary formula n·p + Σ_{v∈D} Pg(v)·k + overhead.
type PageDict struct {
	// EntryNS stores dictionary entries null-suppressed instead of at fixed
	// column width — the ablation for "row-compress the dictionary too"
	// (SQL Server PAGE compression does this).
	EntryNS bool
	// BitPack stores row pointers in ⌈log₂ m⌉ BITS instead of whole bytes —
	// the pointer-granularity ablation. The paper's p is
	// byte-granular ("the size of the pointer in bytes"); bit packing shows
	// what that rounding costs.
	BitPack bool
}

// Name implements PageCodec. The names are constants, so Name — called
// on every measurement (recordMeasure) — allocates nothing.
func (d *PageDict) Name() string {
	switch {
	case d.EntryNS && d.BitPack:
		return "pagedict+ns+bitpack"
	case d.EntryNS:
		return "pagedict+ns"
	case d.BitPack:
		return "pagedict+bitpack"
	}
	return "pagedict"
}

// maxPageRows bounds rows per encoded page (uint16 framing).
const maxPageRows = 1<<16 - 1

// EncodePage implements PageCodec.
func (d *PageDict) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := d.AppendPage(schema, records, nil)
	return out, err
}

// dictScratch is the pooled per-page working set of AppendPage: the
// value→slot map, the first-appearance entry list, the per-row pointers,
// and the bit-pack buffer. One scratch serves one page encode; the pool
// keeps the steady-state encode loop allocation-free apart from the map's
// interned entry keys.
type dictScratch struct {
	idx     map[string]int
	entries [][]byte
	ptrs    []int
	bits    []byte
}

var dictScratchPool = sync.Pool{
	New: func() any { return &dictScratch{idx: make(map[string]int, 256)} },
}

// AppendPage implements PageAppender.
func (d *PageDict) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return dst, 0, err
	}
	if len(records) > maxPageRows {
		return dst, 0, fmt.Errorf("compress: %d records exceed page framing limit %d", len(records), maxPageRows)
	}
	cols := columnOffsets(schema)
	out := dst
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(records)))
	out = append(out, hdr[:]...)

	sc := dictScratchPool.Get().(*dictScratch)
	defer dictScratchPool.Put(sc)
	if cap(sc.ptrs) < len(records) {
		sc.ptrs = make([]int, len(records))
	}
	ptrs := sc.ptrs[:len(records)]

	var dictEntries int64
	for c := range cols {
		t := schema.Column(c).Type
		// First pass: build the per-page, per-column dictionary in
		// first-appearance order.
		clear(sc.idx)
		entries := sc.entries[:0]
		for i, rec := range records {
			v := rec[cols[c][0]:cols[c][1]]
			j, ok := sc.idx[string(v)]
			if !ok {
				j = len(entries)
				sc.idx[string(v)] = j
				entries = append(entries, v)
			}
			ptrs[i] = j
		}
		sc.entries = entries[:0]
		if len(entries) > maxPageRows {
			return dst, 0, fmt.Errorf("compress: column %d has %d distinct values on one page", c, len(entries))
		}
		dictEntries += int64(len(entries))
		// Emit dictionary.
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(entries)))
		out = append(out, hdr[:]...)
		for _, e := range entries {
			if d.EntryNS {
				sup := suppressColumn(t, e)
				out = putLen(out, len(sup), lenHeaderSize(t.FixedWidth()))
				out = append(out, sup...)
			} else {
				out = append(out, e...)
			}
		}
		// Emit pointers: byte-aligned by default (the paper's model),
		// bit-packed under the ablation flag.
		if d.BitPack {
			w := bitWidth(len(entries))
			bw := bitWriter{buf: sc.bits[:0]}
			for _, j := range ptrs {
				bw.write(uint64(j), w)
			}
			packed := bw.finish()
			out = append(out, packed...)
			sc.bits = packed
		} else {
			p := pointerSize(len(entries))
			for _, j := range ptrs {
				out = putPointer(out, j, p)
			}
		}
	}
	return out, dictEntries, nil
}

// SizePage implements PageSizer: per column a 2-byte entry count, the m
// distinct values as entries and one pointer per row — the paper's
// n·p + Σ Pg(v)·k — after the 2-byte row count.
func (d *PageDict) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	return d.sizeSuppressed(schema, records, nil)
}

// sizeSuppressed implements suppressedSizer; sp may be nil, and is read
// only when entries are null-suppressed.
func (d *PageDict) sizeSuppressed(schema *value.Schema, records [][]byte, sp *suppressedPage) (int, int64, error) {
	if len(records) > maxPageRows {
		return 0, 0, fmt.Errorf("compress: %d records exceed page framing limit %d", len(records), maxPageRows)
	}
	set := distinctSetPool.Get().(*distinctSet)
	defer distinctSetPool.Put(set)
	cols := columnOffsets(schema)
	n := 2
	var dictEntries int64
	for c := range cols {
		lo, hi := cols[c][0], cols[c][1]
		var m, entryBytes int
		if d.EntryNS {
			t := schema.Column(c).Type
			h := lenHeaderSize(t.FixedWidth())
			m = set.countPage(records, lo, hi, func(i int) { entryBytes += h + sp.len(t, c, i, records[i][lo:hi]) })
		} else {
			m = set.countPage(records, lo, hi, nil)
			entryBytes = m * (hi - lo)
		}
		dictEntries += int64(m)
		n += 2 + entryBytes
		if d.BitPack {
			n += (len(records)*int(bitWidth(m)) + 7) / 8
		} else {
			n += len(records) * pointerSize(m)
		}
	}
	return n, dictEntries, nil
}

// bitWidth returns ⌈log₂ m⌉ clamped to at least 1.
func bitWidth(m int) byte {
	w := byte(1)
	for 1<<w < m {
		w++
	}
	return w
}

// DecodePage implements PageCodec.
func (d *PageDict) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
	if len(data) < 2 {
		return nil, ErrCorrupt
	}
	rows := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	cols := columnOffsets(schema)
	records := make([][]byte, rows)
	for i := range records {
		records[i] = make([]byte, schema.RowWidth())
	}
	for c := range cols {
		t := schema.Column(c).Type
		w := t.FixedWidth()
		if len(data) < 2 {
			return nil, ErrCorrupt
		}
		m := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		entries := make([][]byte, m)
		for j := 0; j < m; j++ {
			if d.EntryNS {
				l, rest, err := getLen(data, lenHeaderSize(w))
				if err != nil {
					return nil, err
				}
				if l > w || len(rest) < l {
					return nil, ErrCorrupt
				}
				e := make([]byte, w)
				expandInto(t, rest[:l], e)
				entries[j] = e
				data = rest[l:]
			} else {
				if len(data) < w {
					return nil, ErrCorrupt
				}
				entries[j] = data[:w]
				data = data[w:]
			}
		}
		if d.BitPack {
			w := bitWidth(m)
			need := (rows*int(w) + 7) / 8
			if len(data) < need {
				return nil, ErrCorrupt
			}
			br := bitReader{data: data[:need]}
			for i := 0; i < rows; i++ {
				j := 0
				for b := byte(0); b < w; b++ {
					bit, ok := br.read()
					if !ok {
						return nil, ErrCorrupt
					}
					j = j<<1 | int(bit)
				}
				if j >= m {
					return nil, ErrCorrupt
				}
				copy(records[i][cols[c][0]:cols[c][1]], entries[j])
			}
			data = data[need:]
		} else {
			p := pointerSize(m)
			for i := 0; i < rows; i++ {
				j, rest, err := getPointer(data, p)
				if err != nil {
					return nil, err
				}
				if j >= m {
					return nil, ErrCorrupt
				}
				copy(records[i][cols[c][0]:cols[c][1]], entries[j])
				data = rest
			}
		}
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

func init() {
	Register("pagedict", func() Codec { return Paged{PC: &PageDict{}} })
	Register("pagedict+ns", func() Codec { return Paged{PC: &PageDict{EntryNS: true}} })
	Register("pagedict+bitpack", func() Codec { return Paged{PC: &PageDict{BitPack: true}} })
}
