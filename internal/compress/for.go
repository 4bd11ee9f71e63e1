package compress

import (
	"encoding/binary"

	"samplecf/internal/value"
)

// FrameOfRef is per-page frame-of-reference compression for integer
// columns: each column stores its page-minimum once and every row stores
// only the offset from it, in the fewest whole bytes that span the page's
// value range. Dense surrogate keys — the classic index key — collapse to
// 1-2 bytes per row. Character columns fall back to null suppression, so
// the codec is total over any schema (a requirement for SampleCF's
// agnosticism: codecs must accept whatever index they are pointed at).
//
// Encoded page layout:
//
//	[rows uint16]
//	per column: [tag uint8]  (0 = NS fallback, 1 = FOR)
//	  NS:  per row [len h][bytes]
//	  FOR: [base int64][width uint8][rows × width bytes of deltas]
type FrameOfRef struct{}

// Name implements PageCodec.
func (FrameOfRef) Name() string { return "for" }

// Column tags.
const (
	forTagNS  = 0
	forTagFOR = 1
)

// EncodePage implements PageCodec.
func (f FrameOfRef) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := f.AppendPage(schema, records, nil)
	return out, err
}

// AppendPage implements PageAppender.
func (FrameOfRef) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
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
		if !t.IsCharacter() {
			out = append(out, forTagFOR)
			out = encodeFORColumn(out, t, cols[c], records)
			continue
		}
		out = append(out, forTagNS)
		h := lenHeaderSize(t.FixedWidth())
		for _, rec := range records {
			sup := suppressColumn(t, rec[cols[c][0]:cols[c][1]])
			out = putLen(out, len(sup), h)
			out = append(out, sup...)
		}
	}
	return out, 0, nil
}

// SizePage implements PageSizer: per column a tag, then either the
// null-suppressed values or an 8-byte base, a width byte and one
// width-byte delta per row.
func (FrameOfRef) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	if len(records) > maxPageRows {
		return 0, 0, ErrCorrupt
	}
	cols := columnOffsets(schema)
	n := 2
	for c := range cols {
		t := schema.Column(c).Type
		if t.IsCharacter() {
			n += 1 + nsColumnSize(t, cols[c], records)
			continue
		}
		_, width := forFrame(t, cols[c], records)
		n += 1 + 9 + len(records)*width
	}
	return n, 0, nil
}

// forDecode reads one int column value of a record.
func forDecode(t value.Type, span [2]int, rec []byte) int64 {
	field := rec[span[0]:span[1]]
	if t.Kind == value.KindInt32 {
		return int64(value.DecodeInt32(field))
	}
	return value.DecodeInt64(field)
}

// forFrame returns an int column's frame over records: the base (the
// page minimum) and the whole-byte width of the largest offset from it.
func forFrame(t value.Type, span [2]int, records [][]byte) (base int64, width int) {
	if len(records) == 0 {
		return 0, 1
	}
	base = forDecode(t, span, records[0])
	top := base
	for _, rec := range records[1:] {
		v := forDecode(t, span, rec)
		base = min(base, v)
		top = max(top, v)
	}
	// Two's-complement wrap makes top−base the exact unsigned offset.
	maxDelta := uint64(top - base)
	width = 1
	for maxDelta >= 1<<(8*width) && width < 8 {
		width++
	}
	return base, width
}

// encodeFORColumn emits base + width + packed deltas for one int column.
func encodeFORColumn(out []byte, t value.Type, span [2]int, records [][]byte) []byte {
	base, width := forFrame(t, span, records)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(base))
	out = append(out, b8[:]...)
	out = append(out, byte(width))
	for _, rec := range records {
		d := uint64(forDecode(t, span, rec) - base)
		for i := 0; i < width; i++ {
			out = append(out, byte(d>>(8*i)))
		}
	}
	return out
}

// DecodePage implements PageCodec.
func (FrameOfRef) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
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
		if len(data) < 1 {
			return nil, ErrCorrupt
		}
		tag := data[0]
		data = data[1:]
		switch tag {
		case forTagNS:
			h := lenHeaderSize(t.FixedWidth())
			for i := 0; i < rows; i++ {
				l, rest, err := getLen(data, h)
				if err != nil {
					return nil, err
				}
				if l > t.FixedWidth() || len(rest) < l {
					return nil, ErrCorrupt
				}
				expandInto(t, rest[:l], records[i][cols[c][0]:cols[c][1]])
				data = rest[l:]
			}
		case forTagFOR:
			if t.IsCharacter() {
				return nil, ErrCorrupt // tag/schema mismatch
			}
			if len(data) < 9 {
				return nil, ErrCorrupt
			}
			base := int64(binary.LittleEndian.Uint64(data))
			width := int(data[8])
			data = data[9:]
			if width < 1 || width > 8 || len(data) < rows*width {
				return nil, ErrCorrupt
			}
			for i := 0; i < rows; i++ {
				var d uint64
				for b := 0; b < width; b++ {
					d |= uint64(data[b]) << (8 * b)
				}
				data = data[width:]
				v := base + int64(d)
				if t.Kind == value.KindInt32 {
					copy(records[i][cols[c][0]:cols[c][1]], value.IntValue(int32(v)))
				} else {
					copy(records[i][cols[c][0]:cols[c][1]], value.Int64Value(v))
				}
			}
		default:
			return nil, ErrCorrupt
		}
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

func init() {
	Register("for", func() Codec { return Paged{PC: FrameOfRef{}} })
}
