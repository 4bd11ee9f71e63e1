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

// extraCodecs are the extension codecs beyond the paper's NS/dictionary
// pair; all must satisfy the same round-trip contract.
var extraCodecs = []PageCodec{
	Huffman{},
	FrameOfRef{},
	&PageDict{BitPack: true},
	&PageDict{EntryNS: true, BitPack: true},
}

func TestExtraCodecsRoundTrip(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "s", Type: value.Char(20)},
		value.Column{Name: "n", Type: value.Int32()},
		value.Column{Name: "b", Type: value.Int64()},
	)
	r := rng.New(77)
	rows := randomRows(r, schema, 150)
	recs := mkRecords(t, schema, rows)
	for _, pc := range extraCodecs {
		enc, err := pc.EncodePage(schema, recs)
		if err != nil {
			t.Fatalf("%s encode: %v", pc.Name(), err)
		}
		dec, err := pc.DecodePage(schema, enc)
		if err != nil {
			t.Fatalf("%s decode: %v", pc.Name(), err)
		}
		if len(dec) != len(recs) {
			t.Fatalf("%s: %d records, want %d", pc.Name(), len(dec), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(dec[i], recs[i]) {
				t.Fatalf("%s: record %d mismatch", pc.Name(), i)
			}
		}
	}
}

func TestExtraCodecsEmptyAndTruncation(t *testing.T) {
	schema := charSchema(10)
	rec, _ := value.EncodeRecord(schema, value.Row{value.StringValue("abcde")}, nil)
	for _, pc := range extraCodecs {
		if enc, err := pc.EncodePage(schema, nil); err != nil {
			t.Errorf("%s empty encode: %v", pc.Name(), err)
		} else if dec, err := pc.DecodePage(schema, enc); err != nil || len(dec) != 0 {
			t.Errorf("%s empty round trip: %d records, %v", pc.Name(), len(dec), err)
		}
		enc, err := pc.EncodePage(schema, [][]byte{rec, rec})
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s panicked on truncation at %d: %v", pc.Name(), cut, p)
					}
				}()
				_, _ = pc.DecodePage(schema, enc[:cut])
			}()
		}
	}
}

func TestHuffmanCompressesSkewedText(t *testing.T) {
	// Low-entropy content (few letters, repeated) must shrink well below NS.
	schema := charSchema(30)
	var recs [][]byte
	for i := 0; i < 200; i++ {
		s := strings.Repeat("ab", 10+(i%5))
		rec, err := value.EncodeRecord(schema, value.Row{value.StringValue(s)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	huff, err := Huffman{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NullSuppression{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(huff) >= len(ns) {
		t.Fatalf("huffman (%d) not smaller than NS (%d) on 1-bit/char text", len(huff), len(ns))
	}
}

func TestHuffmanSingleSymbolAlphabet(t *testing.T) {
	// Degenerate histogram: every stream byte identical.
	schema := charSchema(8)
	rec, _ := value.EncodeRecord(schema, value.Row{value.StringValue("aaaa")}, nil)
	recs := [][]byte{rec, rec, rec}
	enc, err := Huffman{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Huffman{}.DecodePage(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || !bytes.Equal(dec[0], rec) {
		t.Fatal("single-symbol round trip failed")
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	// Property: canonical codes from any histogram are prefix-free.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var freq [256]int64
		nsyms := 1 + r.Intn(40)
		for i := 0; i < nsyms; i++ {
			freq[r.Intn(256)] = int64(1 + r.Intn(1000))
		}
		lens := huffmanCodeLengths(freq[:])
		codes := canonicalCodes(lens)
		type cl struct {
			bits uint64
			l    byte
		}
		var used []cl
		for s := 0; s < 256; s++ {
			if lens[s] == 0 {
				continue
			}
			used = append(used, cl{codes[s].bits, codes[s].len})
		}
		for i := 0; i < len(used); i++ {
			for j := 0; j < len(used); j++ {
				if i == j {
					continue
				}
				a, b := used[i], used[j]
				if a.l > b.l {
					continue
				}
				// a must not be a prefix of b.
				if b.bits>>(b.l-a.l) == a.bits {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFrameOfRefDenseKeys(t *testing.T) {
	// Dense int64 surrogate keys: 8 bytes/row must drop to ~2 + framing.
	schema := value.MustSchema(value.Column{Name: "id", Type: value.Int64()})
	var recs [][]byte
	const n = 500
	for i := 0; i < n; i++ {
		rec, _ := value.EncodeRecord(schema, value.Row{value.Int64Value(int64(9_000_000 + i))}, nil)
		recs = append(recs, rec)
	}
	enc, err := FrameOfRef{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	// 2 rows hdr + 1 tag + 8 base + 1 width + n×2 deltas.
	want := 2 + 1 + 8 + 1 + n*2
	if len(enc) != want {
		t.Fatalf("FOR page = %d bytes, want %d", len(enc), want)
	}
	dec, err := FrameOfRef{}.DecodePage(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !bytes.Equal(dec[i], recs[i]) {
			t.Fatalf("FOR round trip mismatch at %d", i)
		}
	}
}

func TestFrameOfRefNegativeAndExtremes(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "v", Type: value.Int32()})
	vals := []int32{-1 << 31, -1, 0, 1, 1<<31 - 1}
	var recs [][]byte
	for _, v := range vals {
		rec, _ := value.EncodeRecord(schema, value.Row{value.IntValue(v)}, nil)
		recs = append(recs, rec)
	}
	enc, err := FrameOfRef{}.EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := FrameOfRef{}.DecodePage(schema, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := value.DecodeInt32(dec[i]); got != v {
			t.Fatalf("extreme %d: got %d", v, got)
		}
	}
}

func TestBitPackedDictSmallerThanByteAligned(t *testing.T) {
	// 5 distinct values → 3-bit pointers vs 1 byte: pointers shrink ~2.6×.
	schema := charSchema(16)
	var recs [][]byte
	for i := 0; i < 400; i++ {
		rec, _ := value.EncodeRecord(schema, value.Row{value.StringValue(fmt.Sprintf("v%d", i%5))}, nil)
		recs = append(recs, rec)
	}
	byteAligned, err := (&PageDict{}).EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := (&PageDict{BitPack: true}).EncodePage(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(byteAligned) {
		t.Fatalf("bitpack (%d) not smaller than byte-aligned (%d)", len(packed), len(byteAligned))
	}
	// 400 pointers × 3 bits = 150 bytes vs 400 bytes.
	saved := len(byteAligned) - len(packed)
	if saved != 400-150 {
		t.Fatalf("saved %d bytes, want 250", saved)
	}
}

func TestBitWidthBoundaries(t *testing.T) {
	cases := []struct {
		m    int
		want byte
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9},
	}
	for _, c := range cases {
		if got := bitWidth(c.m); got != c.want {
			t.Errorf("bitWidth(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestNewCodecsRegistered(t *testing.T) {
	for _, name := range []string{"huffman", "for", "pagedict+bitpack"} {
		c, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if c.Name() == "" {
			t.Errorf("%q: empty name", name)
		}
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	benchmarkEncode(b, Huffman{})
}

func BenchmarkFOREncode(b *testing.B) {
	schema := value.MustSchema(value.Column{Name: "id", Type: value.Int64()})
	var recs [][]byte
	for i := 0; i < 300; i++ {
		rec, _ := value.EncodeRecord(schema, value.Row{value.Int64Value(int64(i))}, nil)
		recs = append(recs, rec)
	}
	b.SetBytes(int64(len(recs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FrameOfRef{}).EncodePage(schema, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHuffmanRejectsUltraWideRows(t *testing.T) {
	// 17 CHAR(4000) columns at full length exceed the 64 KiB row framing.
	// A row counts its 2-byte column headers: 16 full columns, 17 headers
	// and a last column of 1501 bytes make exactly 65535 bytes, the limit.
	// The sizer must draw the line where the encoder does.
	cols := make([]value.Column, 17)
	for i := range cols {
		cols[i] = value.Column{Name: fmt.Sprintf("c%d", i), Type: value.Char(4000)}
	}
	schema := value.MustSchema(cols...)
	for _, tc := range []struct {
		last int
		ok   bool
	}{{1501, true}, {1502, false}, {4000, false}} {
		row := make(value.Row, 17)
		for i := range row {
			row[i] = bytes.Repeat([]byte{'x'}, 4000)
		}
		row[16] = row[16][:tc.last]
		rec, err := value.EncodeRecord(schema, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Huffman{}).EncodePage(schema, [][]byte{rec}); (err == nil) != tc.ok {
			t.Errorf("last column %d bytes: EncodePage error %v, want ok=%v", tc.last, err, tc.ok)
		}
		if _, _, err := (Huffman{}).SizePage(schema, [][]byte{rec}); (err == nil) != tc.ok {
			t.Errorf("last column %d bytes: SizePage error %v, want ok=%v", tc.last, err, tc.ok)
		}
	}
}

// TestHuffmanBitsMatchesCodeLengths: the two-queue merge total must equal
// Σ f·len of the code huffmanCodeLengths builds, on random histograms and
// on Fibonacci ones, whose Huffman trees are as deep as their totals allow
// — just below the merge-safe bound and past it, where lengths clamp.
func TestHuffmanBitsMatchesCodeLengths(t *testing.T) {
	codeBits := func(freq *[256]int64) int64 {
		lens := huffmanCodeLengths(freq[:])
		var bits int64
		for s, f := range freq {
			bits += f * int64(lens[s])
		}
		return bits
	}
	var hists [][256]int64
	g := rng.New(9)
	for k := 0; k < 200; k++ {
		var freq [256]int64
		for s := range g.Intn(257) {
			freq[g.Intn(256)] += int64(1 + g.Intn(1+s*s))
		}
		hists = append(hists, freq)
	}
	// k Fibonacci weights total Fib(k+2)-1 and build a tree of depth k-1:
	// 32 stay under the merge-safe bound, 33 pass it unclamped, 34 and 40
	// clamp at maxCodeLen.
	for _, syms := range []int{32, 33, 34, 40} {
		var freq [256]int64
		a, b := int64(1), int64(1)
		for s := 0; s < syms; s++ {
			freq[s] = a
			a, b = b, a+b
		}
		hists = append(hists, freq)
	}
	for i := range hists {
		if got, want := huffmanBits(&hists[i]), codeBits(&hists[i]); got != want {
			t.Errorf("histogram %d: huffmanBits = %d, code lengths give %d", i, got, want)
		}
	}
}
