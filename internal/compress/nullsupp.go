package compress

import (
	"samplecf/internal/value"
)

// NullSuppression is the paper's NS technique (§II-A, Fig. 1a): each column
// value is stored as its actual bytes plus a small length header, dropping
// the padding that fixed-width storage wastes. Columns are compressed
// independently, matching the paper's multi-column treatment.
//
// For a CHAR(k) column the encoded size of one value is exactly ℓ + h where
// ℓ is the value's actual length and h = lenHeaderSize(k), so the codec's
// measured CF equals the paper's analytical CF_NS = Σ(ℓᵢ+h)/(n·k).
type NullSuppression struct{}

// Name implements PageCodec.
func (NullSuppression) Name() string { return "nullsuppression" }

// EncodePage implements PageCodec.
func (ns NullSuppression) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	// Size hint: assume half the fixed width survives.
	out, _, err := ns.AppendPage(schema, records, make([]byte, 0, len(records)*schema.RowWidth()/2+16))
	return out, err
}

// AppendPage implements PageAppender.
func (NullSuppression) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return dst, 0, err
	}
	cols := columnOffsets(schema)
	out := dst
	for _, rec := range records {
		for c := range cols {
			t := schema.Column(c).Type
			stored := rec[cols[c][0]:cols[c][1]]
			sup := suppressColumn(t, stored)
			out = putLen(out, len(sup), lenHeaderSize(t.FixedWidth()))
			out = append(out, sup...)
		}
	}
	return out, 0, nil
}

// SizePage implements PageSizer: Σ (ℓ + h) over the page's values.
func (NullSuppression) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if err := checkRecords(schema, records); err != nil {
		return 0, 0, err
	}
	cols := columnOffsets(schema)
	n := 0
	for c := range cols {
		n += nsColumnSize(schema.Column(c).Type, cols[c], records)
	}
	return n, 0, nil
}

// sizeSuppressed implements suppressedSizer.
func (NullSuppression) sizeSuppressed(_ *value.Schema, _ [][]byte, sp *suppressedPage) (int, int64, error) {
	n := 0
	for _, b := range sp.nsBytes {
		n += b
	}
	return n, 0, nil
}

// nsColumnSize returns the null-suppressed size of one column over
// records: Σ (h + ℓ).
func nsColumnSize(t value.Type, span [2]int, records [][]byte) int {
	n := len(records) * lenHeaderSize(t.FixedWidth())
	for _, rec := range records {
		n += suppressedLen(t, rec[span[0]:span[1]])
	}
	return n
}

// DecodePage implements PageCodec. The record count is implied by input
// exhaustion (the page framing above this layer carries no explicit count
// for NS, mirroring row-compressed pages that are self-delimiting).
func (NullSuppression) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
	cols := columnOffsets(schema)
	var records [][]byte
	for len(data) > 0 {
		rec := make([]byte, schema.RowWidth())
		for c := range cols {
			t := schema.Column(c).Type
			h := lenHeaderSize(t.FixedWidth())
			l, rest, err := getLen(data, h)
			if err != nil {
				return nil, err
			}
			if l > t.FixedWidth() || len(rest) < l {
				return nil, ErrCorrupt
			}
			expandInto(t, rest[:l], rec[cols[c][0]:cols[c][1]])
			data = rest[l:]
		}
		records = append(records, rec)
	}
	return records, nil
}

// EncodedRecordSize returns the NS-encoded size of one record without
// materializing it: Σ over columns of (ℓ + h). Used by analytical paths.
func (NullSuppression) EncodedRecordSize(schema *value.Schema, rec []byte) int {
	cols := columnOffsets(schema)
	size := 0
	for c := range cols {
		t := schema.Column(c).Type
		sup := suppressColumn(t, rec[cols[c][0]:cols[c][1]])
		size += len(sup) + lenHeaderSize(t.FixedWidth())
	}
	return size
}

func init() {
	Register("nullsuppression", func() Codec { return Paged{PC: NullSuppression{}} })
}
