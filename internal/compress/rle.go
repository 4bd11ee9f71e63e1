package compress

import (
	"encoding/binary"

	"samplecf/internal/value"
)

// RLE is per-page, per-column run-length encoding: consecutive equal values
// collapse into (count, value) pairs. Sorted leaf pages of low-cardinality
// indexes — where every distinct value forms one long run — are its best
// case; on unsorted or high-cardinality data it degenerates to NS plus a
// 2-byte run header per value.
//
// Encoded page layout:
//
//	[rows uint16]
//	per column: [runs uint16] then per run [count uint16][len h][bytes]
type RLE struct{}

// Name implements PageCodec.
func (RLE) Name() string { return "rle" }

// EncodePage implements PageCodec.
func (r RLE) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := r.AppendPage(schema, records, nil)
	return out, err
}

// AppendPage implements PageAppender. Runs are emitted as they close — no
// intermediate run list — with the per-column run count back-patched into
// its reserved header slot once the column is done.
func (RLE) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
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
	for c := range cols {
		t := schema.Column(c).Type
		h := lenHeaderSize(t.FixedWidth())
		// Reserve the run-count slot; patch it when the column closes.
		runsAt := len(out)
		out = append(out, 0, 0)
		nRuns := 0
		emit := func(val []byte, count int) {
			binary.LittleEndian.PutUint16(hdr[:], uint16(count))
			out = append(out, hdr[:]...)
			sup := suppressColumn(t, val)
			out = putLen(out, len(sup), h)
			out = append(out, sup...)
			nRuns++
		}
		var cur []byte
		count := 0
		for _, rec := range records {
			v := rec[cols[c][0]:cols[c][1]]
			if count > 0 && count < maxPageRows && string(cur) == string(v) {
				count++
				continue
			}
			if count > 0 {
				emit(cur, count)
			}
			cur, count = v, 1
		}
		if count > 0 {
			emit(cur, count)
		}
		binary.LittleEndian.PutUint16(out[runsAt:], uint16(nRuns))
	}
	return out, 0, nil
}

// SizePage implements PageSizer.
func (r RLE) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	return r.sizeSuppressed(schema, records, nil)
}

// sizeSuppressed implements suppressedSizer: per column a 2-byte run count,
// then per run a 2-byte count, a header and the run value suppressed. sp
// may be nil.
func (RLE) sizeSuppressed(schema *value.Schema, records [][]byte, sp *suppressedPage) (int, int64, error) {
	if len(records) > maxPageRows {
		return 0, 0, ErrCorrupt
	}
	cols := columnOffsets(schema)
	n := 2
	for c := range cols {
		t := schema.Column(c).Type
		h := lenHeaderSize(t.FixedWidth())
		lo, hi := cols[c][0], cols[c][1]
		n += 2
		run, count := 0, 0
		for i, rec := range records {
			if count > 0 && count < maxPageRows && string(records[run][lo:hi]) == string(rec[lo:hi]) {
				count++
				continue
			}
			run, count = i, 1
			n += 2 + h + sp.len(t, c, i, rec[lo:hi])
		}
	}
	return n, 0, nil
}

// DecodePage implements PageCodec.
func (RLE) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
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
		h := lenHeaderSize(w)
		if len(data) < 2 {
			return nil, ErrCorrupt
		}
		nRuns := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		row := 0
		for r := 0; r < nRuns; r++ {
			if len(data) < 2 {
				return nil, ErrCorrupt
			}
			count := int(binary.LittleEndian.Uint16(data))
			data = data[2:]
			l, rest, err := getLen(data, h)
			if err != nil {
				return nil, err
			}
			if l > w || len(rest) < l {
				return nil, ErrCorrupt
			}
			full := make([]byte, w)
			expandInto(t, rest[:l], full)
			data = rest[l:]
			for i := 0; i < count; i++ {
				if row >= rows {
					return nil, ErrCorrupt
				}
				copy(records[row][cols[c][0]:cols[c][1]], full)
				row++
			}
		}
		if row != rows {
			return nil, ErrCorrupt
		}
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

func init() {
	Register("rle", func() Codec { return Paged{PC: RLE{}} })
}
