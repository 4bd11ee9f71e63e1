package compress

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"samplecf/internal/value"
)

// Fuzz targets: decoders must never panic and must reject or round-trip —
// silently "succeeding" with wrong output on valid input is caught by the
// re-encode check.

// fuzzSchema is a mixed schema exercising every type kind.
var fuzzSchema = value.MustSchema(
	value.Column{Name: "c", Type: value.Char(12)},
	value.Column{Name: "v", Type: value.VarChar(6)},
	value.Column{Name: "i", Type: value.Int32()},
	value.Column{Name: "b", Type: value.Int64()},
)

// fuzzDecode drives one codec's decoder with arbitrary bytes.
func fuzzDecode(f *testing.F, pc PageCodec) {
	// Seed with a valid encoding so the fuzzer starts near the format.
	rows := []value.Row{
		{value.StringValue("hello"), value.StringValue("ab"), value.IntValue(-7), value.Int64Value(1 << 40)},
		{value.StringValue(""), value.StringValue(""), value.IntValue(0), value.Int64Value(0)},
	}
	var recs [][]byte
	for _, r := range rows {
		rec, err := value.EncodeRecord(fuzzSchema, r, nil)
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, rec)
	}
	valid, err := pc.EncodePage(fuzzSchema, recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := pc.DecodePage(fuzzSchema, data)
		if err != nil {
			return // rejected: fine
		}
		// Accepted: every decoded record must be well-formed, and
		// re-encoding must succeed (internal consistency).
		for _, rec := range dec {
			if len(rec) != fuzzSchema.RowWidth() {
				t.Fatalf("decoded record of %d bytes, want %d", len(rec), fuzzSchema.RowWidth())
			}
		}
		re, err := pc.EncodePage(fuzzSchema, dec)
		if err != nil {
			t.Fatalf("re-encode of accepted decode failed: %v", err)
		}
		// And decoding the re-encoded bytes must reproduce the records.
		dec2, err := pc.DecodePage(fuzzSchema, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(dec2) != len(dec) {
			t.Fatalf("re-decode count %d vs %d", len(dec2), len(dec))
		}
		for i := range dec {
			if !bytes.Equal(dec[i], dec2[i]) {
				t.Fatalf("re-round-trip mismatch at %d", i)
			}
		}
	})
}

func FuzzNSDecode(f *testing.F)       { fuzzDecode(f, NullSuppression{}) }
func FuzzPageDictDecode(f *testing.F) { fuzzDecode(f, &PageDict{}) }
func FuzzBitpackDecode(f *testing.F)  { fuzzDecode(f, &PageDict{EntryNS: true, BitPack: true}) }
func FuzzPrefixDecode(f *testing.F)   { fuzzDecode(f, Prefix{}) }
func FuzzRLEDecode(f *testing.F)      { fuzzDecode(f, RLE{}) }
func FuzzHuffmanDecode(f *testing.F)  { fuzzDecode(f, Huffman{}) }
func FuzzFORDecode(f *testing.F)      { fuzzDecode(f, FrameOfRef{}) }
func FuzzPickBestDecode(f *testing.F) { fuzzDecode(f, NewPageCompression()) }

// sizerSchemas are the record layouts FuzzSizer draws pages in: every type
// kind, two-byte length headers (CHAR and VARCHAR of 256+), a narrow int
// column whose pages reach the 256/257-entry pointer-width boundary, and a
// fixed-width character column beside a wide int.
var sizerSchemas = []*value.Schema{
	fuzzSchema,
	value.MustSchema(
		value.Column{Name: "w", Type: value.Char(300)},
		value.Column{Name: "x", Type: value.VarChar(260)},
	),
	value.MustSchema(value.Column{Name: "i", Type: value.Int32()}),
	value.MustSchema(
		value.Column{Name: "c", Type: value.Char(3)},
		value.Column{Name: "b", Type: value.Int64()},
	),
}

// sizerCodecs returns every registered page codec, failing if one has no
// PageSizer: the estimation path would silently fall back to encoding.
func sizerCodecs(t testing.TB) []PageCodec {
	var out []PageCodec
	for _, name := range Names() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := codec.(Paged); ok {
			if _, ok := p.PC.(PageSizer); !ok {
				t.Fatalf("page codec %s has no PageSizer", name)
			}
			out = append(out, p.PC)
		}
	}
	return out
}

// sizerSeed encodes rows under schema sizerSchemas[sel&0x7F] into the raw
// record bytes FuzzSizer slices back into records.
func sizerSeed(f *testing.F, sel uint8, rows []value.Row) []byte {
	var data []byte
	for _, r := range rows {
		var err error
		if data, err = value.EncodeRecord(sizerSchemas[int(sel&0x7F)%len(sizerSchemas)], r, data); err != nil {
			f.Fatal(err)
		}
	}
	return data
}

// FuzzSizer is the differential proof of the estimation path: for every
// page codec with a PageSizer, SizePage must report exactly the length,
// dictionary entries and error presence of AppendPage on the same page.
// data is cut into records of the schema sizerSchemas[sel&0x7F] selects
// (a leftover tail becomes one short, malformed record when sel&0x80 is
// set); rpp splits them into pages, 0 meaning one page of every record.
func FuzzSizer(f *testing.F) {
	mixed := func(i int) value.Row {
		return value.Row{
			value.StringValue(fmt.Sprintf("k%d", i%7)),
			value.StringValue(strings.Repeat("v", i%7)),
			value.IntValue(int32(-3 * (i % 11))),
			value.Int64Value(int64(i%5) << (8 * (i % 8))),
		}
	}
	var mixedRows []value.Row
	for i := 0; i < 70; i++ {
		mixedRows = append(mixedRows, mixed(i))
	}
	mixedData := sizerSeed(f, 0, mixedRows)
	for rpp := 1; rpp <= 64; rpp++ {
		f.Add(uint8(0), uint8(rpp), mixedData)
	}
	// Empty, one-row and all-equal pages; a malformed tail.
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(0), sizerSeed(f, 0, mixedRows[:1]))
	f.Add(uint8(0), uint8(0), sizerSeed(f, 0, slices.Repeat(mixedRows[3:4], 40)))
	f.Add(uint8(0x80), uint8(4), append(sizerSeed(f, 0, mixedRows[:5]), 1, 2, 3))
	// Two-byte length headers: suppressed lengths below, at and past 256.
	var wide []value.Row
	for _, l := range []int{0, 5, 255, 256, 257, 300} {
		wide = append(wide, value.Row{
			value.StringValue(strings.Repeat("w", l)),
			value.StringValue(strings.Repeat("x", min(l, 260))),
		})
	}
	f.Add(uint8(1), uint8(0), sizerSeed(f, 1, wide))
	f.Add(uint8(1), uint8(2), sizerSeed(f, 1, wide))
	// Negative and extreme integers; a one-symbol Huffman stream (the value
	// 1 and its 1-byte header are the same byte).
	ints := func(vals ...int32) []value.Row {
		rows := make([]value.Row, len(vals))
		for i, v := range vals {
			rows[i] = value.Row{value.IntValue(v)}
		}
		return rows
	}
	f.Add(uint8(2), uint8(0), sizerSeed(f, 2, ints(-1, -128, -129, 1<<31-1, -1<<31, 0, 127, 128)))
	f.Add(uint8(2), uint8(0), sizerSeed(f, 2, ints(1, 1, 1, 1, 1, 1)))
	// All-distinct pages on both sides of the 1-to-2-byte pointer width.
	for _, m := range []int{255, 256, 257, 300} {
		vals := make([]int32, m)
		for i := range vals {
			vals[i] = int32(i*7919 - 5000)
		}
		f.Add(uint8(2), uint8(0), sizerSeed(f, 2, ints(vals...)))
	}
	f.Add(uint8(3), uint8(3), sizerSeed(f, 3, []value.Row{
		{value.StringValue("ab"), value.Int64Value(-1 << 62)},
		{value.StringValue("ab"), value.Int64Value(1<<63 - 1)},
		{value.StringValue(""), value.Int64Value(-1 << 63)},
		{value.StringValue("abc"), value.Int64Value(0)},
	}))
	// Key-sorted pages, where the distinct count hashes nothing on the
	// leading column; and rows that repeat adjacently in arrival order,
	// where it skips repeats and hashes from the first descent on.
	sorted := slices.Collect(slices.Chunk(mixedData, sizerSchemas[0].RowWidth()))
	slices.SortFunc(sorted, bytes.Compare)
	f.Add(uint8(0), uint8(16), bytes.Join(sorted, nil))
	var repeated []value.Row
	for _, r := range mixedRows[:24] {
		repeated = append(repeated, r, r, r)
	}
	f.Add(uint8(0), uint8(0), sizerSeed(f, 0, repeated))

	codecs := sizerCodecs(f)
	f.Fuzz(func(t *testing.T, sel, rpp uint8, data []byte) {
		schema := sizerSchemas[int(sel&0x7F)%len(sizerSchemas)]
		w := schema.RowWidth()
		var records [][]byte
		for len(data) >= w {
			records = append(records, data[:w:w])
			data = data[w:]
		}
		if sel&0x80 != 0 && len(data) > 0 {
			records = append(records, data)
		}
		pageRows := int(rpp)
		if pageRows == 0 {
			pageRows = max(len(records), 1)
		}
		for _, pc := range codecs {
			for start := 0; start == 0 || start < len(records); start += pageRows {
				page := records[start:min(start+pageRows, len(records))]
				size, entries, sizeErr := pc.(PageSizer).SizePage(schema, page)
				enc, encEntries, encErr := pc.(PageAppender).AppendPage(schema, page, nil)
				if (sizeErr != nil) != (encErr != nil) {
					t.Fatalf("%s, %d-row page: SizePage error %v, AppendPage error %v", pc.Name(), len(page), sizeErr, encErr)
				}
				if encErr != nil {
					continue
				}
				if size != len(enc) || entries != encEntries {
					t.Fatalf("%s, %d-row page: SizePage = (%d bytes, %d entries), AppendPage = (%d, %d)",
						pc.Name(), len(page), size, entries, len(enc), encEntries)
				}
			}
		}
	})
}
