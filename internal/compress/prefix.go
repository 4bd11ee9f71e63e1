package compress

import (
	"encoding/binary"

	"samplecf/internal/value"
)

// Prefix implements per-page, per-column common-prefix compression, the
// first stage of SQL Server-style PAGE compression: an anchor value is
// stored once per column, and every row stores only how many leading bytes
// it shares with the anchor plus its null-suppressed remainder. Sorted index
// leaves — where neighboring keys share long prefixes — are its best case.
//
// Encoded page layout:
//
//	[rows uint16]
//	per column:
//	  [anchorLen h][anchor bytes]               (null-suppressed anchor)
//	  per row: [sharedLen h][remLen h][remainder bytes]
type Prefix struct{}

// Name implements PageCodec.
func (Prefix) Name() string { return "prefix" }

// EncodePage implements PageCodec.
func (p Prefix) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := p.AppendPage(schema, records, nil)
	return out, err
}

// AppendPage implements PageAppender.
func (Prefix) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
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
		// Anchor: the first row's suppressed value (real engines pick an
		// anchor heuristically; first-value is deterministic and close).
		var anchor []byte
		if len(records) > 0 {
			anchor = suppressColumn(t, records[0][cols[c][0]:cols[c][1]])
		}
		out = putLen(out, len(anchor), h)
		out = append(out, anchor...)
		for _, rec := range records {
			v := suppressColumn(t, rec[cols[c][0]:cols[c][1]])
			shared := commonPrefixLen(anchor, v)
			out = putLen(out, shared, h)
			out = putLen(out, len(v)-shared, h)
			out = append(out, v[shared:]...)
		}
	}
	return out, 0, nil
}

// SizePage implements PageSizer.
func (p Prefix) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	return p.sizeSuppressed(schema, records, nil)
}

// sizeSuppressed implements suppressedSizer; sp may be nil. Per column the
// page holds the anchor with its header, then per row two headers and the
// suppressed value less the prefix it shares with the anchor.
func (Prefix) sizeSuppressed(schema *value.Schema, records [][]byte, sp *suppressedPage) (int, int64, error) {
	if len(records) > maxPageRows {
		return 0, 0, ErrCorrupt
	}
	cols := columnOffsets(schema)
	n := 2
	for c := range cols {
		t := schema.Column(c).Type
		h := lenHeaderSize(t.FixedWidth())
		n += h + 2*h*len(records)
		if len(records) == 0 {
			continue
		}
		lo, hi := cols[c][0], cols[c][1]
		anchor := suppressedOf(t, records[0][lo:hi], sp.len(t, c, 0, records[0][lo:hi]))
		n += len(anchor)
		for i, rec := range records {
			v := suppressedOf(t, rec[lo:hi], sp.len(t, c, i, rec[lo:hi]))
			n += len(v) - commonPrefixLen(anchor, v)
		}
	}
	return n, 0, nil
}

// DecodePage implements PageCodec.
func (Prefix) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
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
		alen, rest, err := getLen(data, h)
		if err != nil {
			return nil, err
		}
		if alen > w || len(rest) < alen {
			return nil, ErrCorrupt
		}
		anchor := rest[:alen]
		data = rest[alen:]
		for i := 0; i < rows; i++ {
			shared, rest, err := getLen(data, h)
			if err != nil {
				return nil, err
			}
			remLen, rest, err := getLen(rest, h)
			if err != nil {
				return nil, err
			}
			if shared > len(anchor) || shared+remLen > w || len(rest) < remLen {
				return nil, ErrCorrupt
			}
			full := make([]byte, 0, shared+remLen)
			full = append(full, anchor[:shared]...)
			full = append(full, rest[:remLen]...)
			expandInto(t, full, records[i][cols[c][0]:cols[c][1]])
			data = rest[remLen:]
		}
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func init() {
	Register("prefix", func() Codec { return Paged{PC: Prefix{}} })
}
