package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Row is one logical record: a slice of per-column payloads.
//
// Character payloads are the *unpadded* bytes (e.g. "abc" for a CHAR(20));
// integer payloads are exactly 4 or 8 bytes of big-endian two's complement.
// This representation keeps the null-suppressed ("actual") length of a value
// directly observable, which is the quantity the paper's NS analysis is
// about.
type Row [][]byte

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		out[i] = append([]byte(nil), v...)
	}
	return out
}

// IntValue returns the payload bytes for a 32-bit integer.
func IntValue(v int32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

// Int64Value returns the payload bytes for a 64-bit integer.
func Int64Value(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// StringValue returns the payload bytes for a character value.
func StringValue(s string) []byte { return []byte(s) }

// DecodeInt32 interprets a 4-byte payload as int32.
func DecodeInt32(b []byte) int32 { return int32(binary.BigEndian.Uint32(b)) }

// DecodeInt64 interprets an 8-byte payload as int64.
func DecodeInt64(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

// ValidateRow checks a row against the schema: column count, integer widths,
// and character lengths.
func ValidateRow(s *Schema, row Row) error {
	if len(row) != s.NumColumns() {
		return fmt.Errorf("value: row has %d columns, schema %s has %d", len(row), s, s.NumColumns())
	}
	for i, v := range row {
		if err := validateField(s.Column(i), v); err != nil {
			return err
		}
	}
	return nil
}

// validateField checks one payload against its column's type.
func validateField(c Column, v []byte) error {
	t := c.Type
	switch t.Kind {
	case KindChar, KindVarChar:
		if len(v) > t.Length {
			return fmt.Errorf("value: column %q: payload %d bytes exceeds %s", c.Name, len(v), t)
		}
	case KindInt32:
		if len(v) != 4 {
			return fmt.Errorf("value: column %q: INT payload must be 4 bytes, got %d", c.Name, len(v))
		}
	case KindInt64:
		if len(v) != 8 {
			return fmt.Errorf("value: column %q: BIGINT payload must be 8 bytes, got %d", c.Name, len(v))
		}
	}
	return nil
}

// AppendField validates payload v against column c and appends its
// fixed-width encoding (v padded to the type's width) to dst: EncodeRecord
// for one column, for writers that encode rows column by column without
// building a Row.
func AppendField(dst []byte, c Column, v []byte) ([]byte, error) {
	if err := validateField(c, v); err != nil {
		return dst, err
	}
	return appendPadded(dst, c.Type, v), nil
}

// appendPadded appends v and then pad bytes up to t's fixed width.
func appendPadded(dst []byte, t Type, v []byte) []byte {
	dst = append(dst, v...)
	for pad := t.FixedWidth() - len(v); pad > 0; pad-- {
		dst = append(dst, t.PadByte())
	}
	return dst
}

// EncodeRecord appends the fixed-width (uncompressed) encoding of row to dst
// and returns the extended slice. Every column is padded to its FixedWidth
// with the type's pad byte; the result is always exactly s.RowWidth() longer.
func EncodeRecord(s *Schema, row Row, dst []byte) ([]byte, error) {
	if err := ValidateRow(s, row); err != nil {
		return dst, err
	}
	for i, v := range row {
		dst = appendPadded(dst, s.Column(i).Type, v)
	}
	return dst, nil
}

// DecodeRecord parses a fixed-width record back into a Row, trimming the
// padding from character columns. The returned payloads alias rec for
// integers and are sub-slices for character data, each capped at its own
// field so an append to one never writes into the next; callers that need
// the data to outlive rec must Clone.
func DecodeRecord(s *Schema, rec []byte) (Row, error) {
	if len(rec) != s.RowWidth() {
		return nil, fmt.Errorf("value: record is %d bytes, schema %s requires %d", len(rec), s, s.RowWidth())
	}
	row := make(Row, s.NumColumns())
	off := 0
	for i := 0; i < s.NumColumns(); i++ {
		t := s.Column(i).Type
		w := t.FixedWidth()
		field := rec[off : off+w : off+w]
		off += w
		if t.IsCharacter() {
			row[i] = TrimPadding(t, field)
		} else {
			row[i] = field
		}
	}
	return row, nil
}

// TrimPadding strips trailing pad bytes from a stored character field,
// returning the null-suppressed payload. Integer fields are returned as-is.
func TrimPadding(t Type, stored []byte) []byte {
	if !t.IsCharacter() {
		return stored
	}
	return bytes.TrimRight(stored, string([]byte{t.PadByte()}))
}

// NullSuppressedLen returns the paper's ℓ for a payload: the number of bytes
// the value occupies once padding (blanks for CHAR, leading sign-extension
// bytes for integers) is suppressed. The result is at least 0 for character
// data and at least 1 for integers.
func NullSuppressedLen(t Type, payload []byte) int {
	switch t.Kind {
	case KindChar, KindVarChar:
		// Payloads are already unpadded, but be robust to padded input.
		return len(TrimPadding(t, payload))
	case KindInt32, KindInt64:
		return len(SuppressIntPadding(payload))
	default:
		return len(payload)
	}
}

// SuppressIntPadding strips the redundant leading sign-extension bytes of a
// big-endian two's complement integer, keeping at least one byte and keeping
// the sign recoverable: a byte is redundant if it equals the extension byte
// (0x00 / 0xFF) and the next byte has the same sign bit.
func SuppressIntPadding(be []byte) []byte {
	if len(be) == 0 {
		return be
	}
	ext := byte(0x00)
	if be[0]&0x80 != 0 {
		ext = 0xFF
	}
	i := 0
	for i < len(be)-1 && be[i] == ext && (be[i+1]&0x80 == ext&0x80) {
		i++
	}
	return be[i:]
}

// ExpandIntPadding is the inverse of SuppressIntPadding: it sign-extends a
// suppressed big-endian integer back to width bytes.
func ExpandIntPadding(suppressed []byte, width int) []byte {
	out := make([]byte, width)
	ext := byte(0x00)
	if len(suppressed) > 0 && suppressed[0]&0x80 != 0 {
		ext = 0xFF
	}
	n := len(suppressed)
	for i := 0; i < width-n; i++ {
		out[i] = ext
	}
	copy(out[width-n:], suppressed)
	return out
}

// EncodeKey appends an order-preserving key encoding of row to dst. For
// character columns the space/zero-padded form is used (so bytes.Compare
// matches SQL CHAR comparison); for integers the sign bit is flipped so that
// unsigned byte comparison matches signed integer order.
func EncodeKey(s *Schema, row Row, dst []byte) ([]byte, error) {
	if err := ValidateRow(s, row); err != nil {
		return dst, err
	}
	for i, v := range row {
		t := s.Column(i).Type
		switch t.Kind {
		case KindChar, KindVarChar:
			dst = append(dst, v...)
			for pad := t.FixedWidth() - len(v); pad > 0; pad-- {
				dst = append(dst, t.PadByte())
			}
		case KindInt32, KindInt64:
			start := len(dst)
			dst = append(dst, v...)
			dst[start] ^= 0x80 // flip sign bit for order preservation
		}
	}
	return dst, nil
}

// CompareValues compares two payloads of the same type with SQL semantics:
// CHAR comparison ignores trailing padding, integers compare numerically.
// The result is -1, 0, or +1.
func CompareValues(t Type, a, b []byte) int {
	switch t.Kind {
	case KindChar, KindVarChar:
		return comparePadded(TrimPadding(t, a), TrimPadding(t, b), t.PadByte())
	case KindInt32:
		av, bv := DecodeInt32(a), DecodeInt32(b)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	case KindInt64:
		av, bv := DecodeInt64(a), DecodeInt64(b)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	default:
		return bytes.Compare(a, b)
	}
}

// comparePadded compares two unpadded strings as if both were padded with pad
// to a common length.
func comparePadded(a, b []byte, pad byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if c := bytes.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	// The shorter value compares as if extended with pad bytes.
	for _, x := range a[n:] {
		if x != pad {
			if x < pad {
				return -1
			}
			return 1
		}
	}
	for _, x := range b[n:] {
		if x != pad {
			if x > pad {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CompareRows compares two rows column-by-column under the schema.
func CompareRows(s *Schema, a, b Row) int {
	for i := 0; i < s.NumColumns(); i++ {
		if c := CompareValues(s.Column(i).Type, a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}
