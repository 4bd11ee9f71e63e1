package compress

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// mkRecords encodes rows under schema into fixed-width records.
func mkRecords(t testing.TB, schema *value.Schema, rows []value.Row) [][]byte {
	t.Helper()
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		rec, err := value.EncodeRecord(schema, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// charSchema is the paper's model: a single CHAR(k) column.
func charSchema(k int) *value.Schema {
	return value.MustSchema(value.Column{Name: "a", Type: value.Char(k)})
}

// randomRows generates rows over a mixed schema for property tests.
func randomRows(r *rng.RNG, schema *value.Schema, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		row := make(value.Row, schema.NumColumns())
		for c := 0; c < schema.NumColumns(); c++ {
			t := schema.Column(c).Type
			switch t.Kind {
			case value.KindChar, value.KindVarChar:
				l := r.Intn(t.Length + 1)
				b := make([]byte, l)
				for j := range b {
					b[j] = byte('a' + r.Intn(26))
				}
				row[c] = b
			case value.KindInt32:
				row[c] = value.IntValue(int32(r.Uint32()))
			case value.KindInt64:
				row[c] = value.Int64Value(int64(r.Uint64()))
			}
		}
		rows[i] = row
	}
	return rows
}

var pageCodecs = []PageCodec{
	NullSuppression{},
	&PageDict{},
	&PageDict{EntryNS: true},
	Prefix{},
	RLE{},
	NewPageCompression(),
}

func TestPageCodecsRoundTripMixedSchema(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "s", Type: value.Char(20)},
		value.Column{Name: "n", Type: value.Int32()},
		value.Column{Name: "v", Type: value.VarChar(12)},
		value.Column{Name: "b", Type: value.Int64()},
	)
	r := rng.New(42)
	rows := randomRows(r, schema, 200)
	recs := mkRecords(t, schema, rows)
	for _, pc := range pageCodecs {
		enc, err := pc.EncodePage(schema, recs)
		if err != nil {
			t.Fatalf("%s encode: %v", pc.Name(), err)
		}
		dec, err := pc.DecodePage(schema, enc)
		if err != nil {
			t.Fatalf("%s decode: %v", pc.Name(), err)
		}
		if len(dec) != len(recs) {
			t.Fatalf("%s: decoded %d records, want %d", pc.Name(), len(dec), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(dec[i], recs[i]) {
				t.Fatalf("%s: record %d mismatch\n got %x\nwant %x", pc.Name(), i, dec[i], recs[i])
			}
		}
	}
}

func TestPageCodecsEmptyPage(t *testing.T) {
	schema := charSchema(10)
	for _, pc := range pageCodecs {
		enc, err := pc.EncodePage(schema, nil)
		if err != nil {
			t.Fatalf("%s encode empty: %v", pc.Name(), err)
		}
		dec, err := pc.DecodePage(schema, enc)
		if err != nil {
			t.Fatalf("%s decode empty: %v", pc.Name(), err)
		}
		if len(dec) != 0 {
			t.Fatalf("%s: empty page decoded to %d records", pc.Name(), len(dec))
		}
	}
}

func TestPageCodecsRejectBadRecords(t *testing.T) {
	schema := charSchema(10)
	bad := [][]byte{make([]byte, 3)} // wrong width
	for _, pc := range pageCodecs {
		if _, err := pc.EncodePage(schema, bad); err == nil {
			t.Errorf("%s accepted wrong-width record", pc.Name())
		}
	}
}

func TestPageCodecsRejectCorruptPayloads(t *testing.T) {
	schema := charSchema(10)
	rows := []value.Row{{value.StringValue("hello")}, {value.StringValue("world")}}
	recs := mkRecords(t, schema, rows)
	for _, pc := range pageCodecs {
		enc, err := pc.EncodePage(schema, recs)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations must not panic; most must error. (Some truncations of
		// self-delimiting formats can silently decode fewer records, which
		// is acceptable; what matters is no panic and no wrong success with
		// full length.)
		for cut := 0; cut < len(enc); cut++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s panicked on truncated input: %v", pc.Name(), p)
					}
				}()
				_, _ = pc.DecodePage(schema, enc[:cut])
			}()
		}
	}
}

func TestNSEncodedSizeMatchesPaperFormula(t *testing.T) {
	// For CHAR(k), k < 256: encoded record size must be exactly ℓ + 1.
	k := 20
	schema := charSchema(k)
	ns := NullSuppression{}
	for _, s := range []string{"", "a", "abc", "abcdefghij", strings.Repeat("x", 20)} {
		rec, err := value.EncodeRecord(schema, value.Row{value.StringValue(s)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := len(s) + 1
		if got := ns.EncodedRecordSize(schema, rec); got != want {
			t.Errorf("EncodedRecordSize(%q) = %d, want %d", s, got, want)
		}
		enc, err := ns.EncodePage(schema, [][]byte{rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != want {
			t.Errorf("EncodePage(%q) = %d bytes, want %d", s, len(enc), want)
		}
	}
}

func TestNSFigure1Example(t *testing.T) {
	// Paper Fig 1a: CHAR(20) value "abc" stores 3 bytes plus its length.
	schema := charSchema(20)
	rec, err := value.EncodeRecord(schema, value.Row{value.StringValue("abc")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NullSuppression{}.EncodePage(schema, [][]byte{rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 4 { // 1 length byte + "abc"
		t.Fatalf("Fig 1a example encodes to %d bytes, want 4", len(enc))
	}
	if len(rec) != 20 {
		t.Fatalf("uncompressed is %d bytes, want 20", len(rec))
	}
}

func TestPageDictSizeFormula(t *testing.T) {
	// r rows, m distinct values, CHAR(k): size = 2 + (2 + m*k + r*p).
	k := 16
	schema := charSchema(k)
	const r = 100
	const m = 7
	rows := make([]value.Row, r)
	for i := range rows {
		rows[i] = value.Row{value.StringValue(fmt.Sprintf("val-%d", i%m))}
	}
	recs := mkRecords(t, schema, rows)
	enc, entries, err := (&PageDict{}).AppendPage(schema, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pointerSize(m)
	want := 2 + 2 + m*k + r*p
	if len(enc) != want {
		t.Fatalf("dict page size = %d, want %d", len(enc), want)
	}
	if entries != m {
		t.Fatalf("AppendPage dictionary entries = %d, want %d", entries, m)
	}
}

func TestPageDictFigure1Example(t *testing.T) {
	// Paper Fig 1b: 4 copies of "abcdefghij" collapse to one dictionary
	// entry plus 4 pointers.
	schema := charSchema(10)
	rows := make([]value.Row, 4)
	for i := range rows {
		rows[i] = value.Row{value.StringValue("abcdefghij")}
	}
	recs := mkRecords(t, schema, rows)
	enc, err := (&PageDict{}).EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	// 2 rows hdr + 2 dict hdr + 10 entry + 4×1 pointers = 18 < 40 raw.
	if len(enc) != 18 {
		t.Fatalf("Fig 1b example = %d bytes, want 18", len(enc))
	}
}

func TestRLECompressesSortedRuns(t *testing.T) {
	schema := charSchema(12)
	var rows []value.Row
	for v := 0; v < 5; v++ {
		for i := 0; i < 50; i++ {
			rows = append(rows, value.Row{value.StringValue(fmt.Sprintf("run-%d", v))})
		}
	}
	recs := mkRecords(t, schema, rows)
	enc, err := RLE{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	// 5 runs: 2 + 2 + 5*(2 + 1 + 5) = 44 bytes vs 3000 raw.
	if len(enc) >= 100 {
		t.Fatalf("RLE on 5 runs = %d bytes, expected tiny", len(enc))
	}
	dec, err := RLE{}.DecodePage(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(dec[i], recs[i]) {
			t.Fatalf("RLE round trip mismatch at %d", i)
		}
	}
}

func TestPrefixCompressesSharedPrefixes(t *testing.T) {
	schema := charSchema(24)
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{value.StringValue(fmt.Sprintf("customer-name-%05d", i))})
	}
	recs := mkRecords(t, schema, rows)
	enc, err := Prefix{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	nsEnc, err := NullSuppression{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(nsEnc) {
		t.Fatalf("prefix (%d) not smaller than NS (%d) on shared-prefix data", len(enc), len(nsEnc))
	}
}

func TestPickBestSelectsSmallest(t *testing.T) {
	schema := charSchema(16)
	// Heavy duplication: dictionary or RLE should win over NS.
	rows := make([]value.Row, 200)
	for i := range rows {
		rows[i] = value.Row{value.StringValue("constant-value")}
	}
	recs := mkRecords(t, schema, rows)
	pb := NewPageCompression()
	enc, err := pb.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	nsEnc, err := NullSuppression{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(nsEnc) {
		t.Fatalf("pickbest (%d) not better than NS (%d)", len(enc), len(nsEnc))
	}
	dec, err := pb.DecodePage(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs) || !bytes.Equal(dec[0], recs[0]) {
		t.Fatal("pickbest round trip failed")
	}
}

func TestGlobalDictSessionFormula(t *testing.T) {
	// n rows, d distinct, CHAR(k), fixed p: size ≈ n·p + d·k (+12 framing).
	k := 20
	schema := charSchema(k)
	const n = 1000
	const d = 50
	g := GlobalDict{PointerBytes: 4}
	sess, err := g.NewSession(schema)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < n; i++ {
		rec, err := value.EncodeRecord(schema, value.Row{value.StringValue(fmt.Sprintf("v%02d", i%d))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	// Feed as two pages to exercise cross-page state.
	if err := sess.AddPage(recs[:400]); err != nil {
		t.Fatal(err)
	}
	if err := sess.AddPage(recs[400:]); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n*4+d*k) + 8 // + rows header + entries header
	if res.CompressedBytes != want {
		t.Fatalf("global dict size = %d, want %d", res.CompressedBytes, want)
	}
	if res.DictEntries != d {
		t.Fatalf("DictEntries = %d, want %d", res.DictEntries, d)
	}
	if res.UncompressedBytes != int64(n*k) {
		t.Fatalf("UncompressedBytes = %d", res.UncompressedBytes)
	}
	// CF must equal p/k + d/n analytically (up to framing).
	cf := res.CF()
	analytic := 4.0/float64(k) + float64(d)/float64(n)
	if diff := cf - analytic; diff < 0 || diff > 0.001 {
		t.Fatalf("CF = %v, analytic %v", cf, analytic)
	}
	// Round trip.
	dec, err := DecodeGlobal(g, schema, res.Encoded[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != n || !bytes.Equal(dec[0], recs[0]) || !bytes.Equal(dec[n-1], recs[n-1]) {
		t.Fatal("global dict round trip failed")
	}
}

func TestGlobalDictAutoPointer(t *testing.T) {
	schema := charSchema(8)
	g := GlobalDict{} // auto pointer sizing
	sess, err := g.NewSession(schema)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 300; i++ {
		rec, _ := value.EncodeRecord(schema, value.Row{value.StringValue(fmt.Sprintf("%03d", i))}, nil)
		recs = append(recs, rec)
	}
	if err := sess.AddPage(recs); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// 300 distinct entries → 2-byte pointers.
	want := int64(300*2+300*8) + 8
	if res.CompressedBytes != want {
		t.Fatalf("auto-p size = %d, want %d", res.CompressedBytes, want)
	}
	dec, err := DecodeGlobal(g, schema, res.Encoded[0])
	if err != nil || len(dec) != 300 {
		t.Fatalf("round trip: %d records, %v", len(dec), err)
	}
}

func TestPagedSessionAggregates(t *testing.T) {
	schema := charSchema(10)
	codec := Paged{PC: NullSuppression{}}
	sess, err := codec.NewSession(schema)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := value.EncodeRecord(schema, value.Row{value.StringValue("abc")}, nil)
	for p := 0; p < 3; p++ {
		if err := sess.AddPage([][]byte{rec, rec}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 3 || res.Rows != 6 {
		t.Fatalf("pages=%d rows=%d", res.Pages, res.Rows)
	}
	if res.UncompressedBytes != 60 {
		t.Fatalf("uncompressed = %d", res.UncompressedBytes)
	}
	if res.CompressedBytes != 6*4 { // each "abc" → 4 bytes
		t.Fatalf("compressed = %d", res.CompressedBytes)
	}
	if cf := res.CF(); cf != 0.4 {
		t.Fatalf("CF = %v, want 0.4", cf)
	}
	if _, err := sess.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
	if err := sess.AddPage(nil); err == nil {
		t.Fatal("AddPage after finish accepted")
	}
}

func TestResultCFEmpty(t *testing.T) {
	if cf := (Result{}).CF(); cf != 1 {
		t.Fatalf("empty CF = %v, want 1", cf)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"nullsuppression", "pagedict", "pagedict+ns", "prefix", "rle", "page", "globaldict", "globaldict-p4"} {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if c.Name() == "" {
			t.Fatalf("codec %q has empty name", name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d codecs: %v", len(names), names)
	}
}

// TestCodecNamesAllocateNothing pins Name, which recordMeasure calls on
// every measurement, to zero allocations for every registered codec and
// every in-range GlobalDict pointer width.
func TestCodecNamesAllocateNothing(t *testing.T) {
	codecs := []Codec{}
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	for p := 0; p <= 8; p++ {
		codecs = append(codecs, GlobalDict{PointerBytes: p})
	}
	codecs = append(codecs, Paged{PC: &PageDict{EntryNS: true, BitPack: true}})
	for _, c := range codecs {
		if allocs := testing.AllocsPerRun(100, func() { _ = c.Name() }); allocs != 0 {
			t.Errorf("%s: Name allocates %v times per call", c.Name(), allocs)
		}
	}
	for p, want := range map[int]string{0: "globaldict", 4: "globaldict(p=4)", 8: "globaldict(p=8)", 9: "globaldict(p=9)"} {
		if got := (GlobalDict{PointerBytes: p}).Name(); got != want {
			t.Errorf("GlobalDict{PointerBytes: %d}.Name() = %q, want %q", p, got, want)
		}
	}
	if got := (&PageDict{EntryNS: true, BitPack: true}).Name(); got != "pagedict+ns+bitpack" {
		t.Errorf("PageDict{EntryNS, BitPack}.Name() = %q", got)
	}
}

// TestPropertyAllCodecsRoundTrip fuzzes random pages through every codec.
func TestPropertyAllCodecsRoundTrip(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "s", Type: value.Char(12)},
		value.Column{Name: "n", Type: value.Int32()},
	)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		// Skewed rows: duplicates likely, lengths vary.
		n := r.Intn(150)
		rows := make([]value.Row, n)
		for i := range rows {
			v := fmt.Sprintf("%0*d", 1+r.Intn(10), r.Intn(20))
			rows[i] = value.Row{value.StringValue(v), value.IntValue(int32(r.Intn(1000) - 500))}
		}
		recs := make([][]byte, n)
		for i, row := range rows {
			rec, err := value.EncodeRecord(schema, row, nil)
			if err != nil {
				return false
			}
			recs[i] = rec
		}
		for _, pc := range pageCodecs {
			enc, err := pc.EncodePage(schema, recs)
			if err != nil {
				t.Logf("%s encode: %v", pc.Name(), err)
				return false
			}
			dec, err := pc.DecodePage(schema, enc)
			if err != nil {
				t.Logf("%s decode: %v", pc.Name(), err)
				return false
			}
			if len(dec) != len(recs) {
				t.Logf("%s count: %d vs %d", pc.Name(), len(dec), len(recs))
				return false
			}
			for i := range recs {
				if !bytes.Equal(dec[i], recs[i]) {
					t.Logf("%s record %d mismatch", pc.Name(), i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMeasureRecords(t *testing.T) {
	schema := charSchema(20)
	ar := value.NewRecordArena(schema, 500)
	for i := 0; i < 500; i++ {
		if err := ar.Append(value.Row{value.StringValue("abc")}); err != nil {
			t.Fatal(err)
		}
	}
	codec, err := Lookup("nullsuppression")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureResample(schema, codec, ar.Full(), nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 5 || res.Rows != 500 {
		t.Fatalf("pages=%d rows=%d", res.Pages, res.Rows)
	}
	// Every row is "abc" in CHAR(20): CF = 4/20 exactly.
	if cf := res.CF(); cf != 0.2 {
		t.Fatalf("CF = %v, want 0.2", cf)
	}
	if _, err := MeasureResample(schema, codec, ar.Full(), nil, 0); err == nil {
		t.Fatal("rowsPerPage=0 accepted")
	}
}

func TestRowsPerPage(t *testing.T) {
	schema := charSchema(20)
	n := RowsPerPage(schema, 8192)
	if n != (8192-24)/24 {
		t.Fatalf("RowsPerPage = %d", n)
	}
	// Degenerate: record wider than page still returns 1.
	wide := charSchema(4000)
	if RowsPerPage(wide, 512) != 1 {
		t.Fatal("wide rows per page != 1")
	}
}

func TestPointerSizeBoundaries(t *testing.T) {
	cases := []struct{ m, want int }{
		{1, 1}, {256, 1}, {257, 2}, {1 << 16, 2}, {1<<16 + 1, 3}, {1 << 24, 3}, {1<<24 + 1, 4},
	}
	for _, c := range cases {
		if got := pointerSize(c.m); got != c.want {
			t.Errorf("pointerSize(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestLenHeaderSize(t *testing.T) {
	if lenHeaderSize(255) != 1 || lenHeaderSize(20) != 1 {
		t.Error("small k should use 1 header byte")
	}
	if lenHeaderSize(256) != 2 || lenHeaderSize(4000) != 2 {
		t.Error("large k should use 2 header bytes")
	}
}

func BenchmarkNSEncode(b *testing.B) {
	benchmarkEncode(b, NullSuppression{})
}

func BenchmarkPageDictEncode(b *testing.B) {
	benchmarkEncode(b, &PageDict{})
}

func BenchmarkPageCompressionEncode(b *testing.B) {
	benchmarkEncode(b, NewPageCompression())
}

func benchmarkEncode(b *testing.B, pc PageCodec) {
	schema := charSchema(20)
	r := rng.New(1)
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = value.Row{value.StringValue(fmt.Sprintf("value-%d", r.Intn(40)))}
	}
	recs := make([][]byte, len(rows))
	for i, row := range rows {
		rec, err := value.EncodeRecord(schema, row, nil)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
	}
	b.SetBytes(int64(len(recs)) * int64(schema.RowWidth()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.EncodePage(schema, recs); err != nil {
			b.Fatal(err)
		}
	}
}
