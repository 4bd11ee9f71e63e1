package sampling

import (
	"bytes"
	"fmt"
	"testing"

	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// strataKeyOf derives a record's whole-row index key for directory builds.
func strataKeyOf(t testing.TB, schema *value.Schema) func(buf, rec []byte) []byte {
	t.Helper()
	all := make([]int, schema.NumColumns())
	for i := range all {
		all[i] = i
	}
	p, err := value.NewProjection(schema, all)
	if err != nil {
		t.Fatal(err)
	}
	return p.AppendKey
}

func TestKeyStrataStratumOf(t *testing.T) {
	ks, err := NewKeyStrata([][]byte{{0x20}, {0x40}, {0x60}})
	if err != nil {
		t.Fatal(err)
	}
	if ks.NumStrata() != 4 {
		t.Fatalf("NumStrata = %d, want 4", ks.NumStrata())
	}
	cases := []struct {
		key  []byte
		want int
	}{
		{[]byte{0x00}, 0}, {[]byte{0x1f}, 0},
		{[]byte{0x20}, 1}, {[]byte{0x3f, 0xff}, 1},
		{[]byte{0x40}, 2}, {[]byte{0x60}, 3}, {[]byte{0xff}, 3},
	}
	for _, c := range cases {
		if got := ks.StratumOf(c.key); got != c.want {
			t.Errorf("StratumOf(% x) = %d, want %d", c.key, got, c.want)
		}
	}
	if _, err := NewKeyStrata([][]byte{{0x40}, {0x40}}); err == nil {
		t.Error("duplicate boundaries accepted")
	}
	if _, err := NewKeyStrata([][]byte{{0x40}, {0x20}}); err == nil {
		t.Error("descending boundaries accepted")
	}
}

func TestEquiDepthBoundaries(t *testing.T) {
	// 100 sorted distinct keys: boundaries at ranks 25/50/75.
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%03d", i))
	}
	bounds := EquiDepthBoundaries(len(keys), 4, func(i int) []byte { return keys[i] })
	if len(bounds) != 3 {
		t.Fatalf("got %d boundaries, want 3", len(bounds))
	}
	for i, want := range []string{"k025", "k050", "k075"} {
		if string(bounds[i]) != want {
			t.Errorf("boundary %d = %q, want %q", i, bounds[i], want)
		}
	}
	// All-equal keys support no cut points at all.
	if b := EquiDepthBoundaries(100, 8, func(int) []byte { return []byte("same") }); len(b) != 0 {
		t.Errorf("constant domain produced %d boundaries, want 0", len(b))
	}
	// A dominant head value swallows candidate cuts without breaking ascent.
	skew := func(i int) []byte {
		if i < 90 {
			return []byte("aaa")
		}
		return []byte(fmt.Sprintf("z%02d", i-90))
	}
	b := EquiDepthBoundaries(100, 4, skew)
	if ks, err := NewKeyStrata(b); err != nil {
		t.Fatalf("skewed boundaries not strictly ascending: %v", err)
	} else if ks.NumStrata() > 4 {
		t.Fatalf("skewed domain yielded %d strata, want ≤ 4", ks.NumStrata())
	}
}

// TestStrataDirectorySingleStratumIdentity pins the degenerate contract:
// one stratum's directory is the identity over [0,n) and its WR draw with
// the base seed is byte-identical to UniformWRInto.
func TestStrataDirectorySingleStratumIdentity(t *testing.T) {
	src, schema := resumableRows(t, 3000)
	ks, err := NewKeyStrata(nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := BuildStrataDirectory(src, schema, ks, strataKeyOf(t, schema))
	if err != nil {
		t.Fatal(err)
	}
	if got := dir.Counts(); len(got) != 1 || got[0] != 3000 {
		t.Fatalf("Counts = %v, want [3000]", got)
	}
	const seed, r = 7, 500
	plain := value.NewRecordArena(schema, r)
	if err := UniformWRInto(src, r, rng.New(seed), plain); err != nil {
		t.Fatal(err)
	}
	strat := value.NewRecordArena(schema, r)
	if err := dir.WRInto(src, 0, r, rng.New(StreamSeed(seed, 0)), strat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Recs(), strat.Recs()) || !bytes.Equal(plain.Keys(), strat.Keys()) {
		t.Error("single-stratum WR draw differs from UniformWRInto")
	}
	// Resumable rounds too: stratum stream round k == package-level round k.
	plainExt := value.NewRecordArena(schema, r)
	stratExt := value.NewRecordArena(schema, r)
	for round, sz := range []int64{100, 200} {
		if err := ExtendWRInto(src, plainExt, sz, seed, round); err != nil {
			t.Fatal(err)
		}
		if err := dir.ExtendWRInto(src, 0, stratExt, sz, StreamSeed(seed, 0), round); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plainExt.Recs(), stratExt.Recs()) {
		t.Error("single-stratum resumable rounds differ from ExtendWRInto")
	}
}

// TestStrataDirectoryPartition checks every row lands in exactly the
// stratum its key selects and per-stratum draws stay in-stratum.
func TestStrataDirectoryPartition(t *testing.T) {
	src, schema := resumableRows(t, 2000)
	// Boundaries on the encoded keys at rows 500/1000/1500 (row-%06d keys
	// sort in row order).
	var bounds [][]byte
	for _, i := range []int64{500, 1000, 1500} {
		row, err := src.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		k, err := value.EncodeKey(schema, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, k)
	}
	ks, err := NewKeyStrata(bounds)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := BuildStrataDirectory(src, schema, ks, strataKeyOf(t, schema))
	if err != nil {
		t.Fatal(err)
	}
	counts := dir.Counts()
	want := []int64{500, 500, 500, 500}
	for h := range want {
		if counts[h] != want[h] {
			t.Errorf("stratum %d count = %d, want %d", h, counts[h], want[h])
		}
	}
	if dir.NumRows() != 2000 {
		t.Errorf("NumRows = %d, want 2000", dir.NumRows())
	}
	// Drawn rows of stratum h must all carry keys in stratum h's range.
	for h := 0; h < dir.NumStrata(); h++ {
		ar := value.NewRecordArena(schema, 64)
		if err := dir.ExtendWRInto(src, h, ar, 64, StreamSeed(9, h), 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ar.Len(); i++ {
			if got := ks.StratumOf(ar.Key(i)); got != h {
				t.Fatalf("stratum %d draw produced a key of stratum %d", h, got)
			}
		}
	}
}

// TestStrataDirectoryWORExtend checks per-stratum WOR rounds stay distinct,
// in-stratum, and resumable across rounds.
func TestStrataDirectoryWORExtend(t *testing.T) {
	src, schema := resumableRows(t, 1000)
	mid, err := src.Row(500)
	if err != nil {
		t.Fatal(err)
	}
	midKey, err := value.EncodeKey(schema, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := NewKeyStrata([][]byte{midKey})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := BuildStrataDirectory(src, schema, ks, strataKeyOf(t, schema))
	if err != nil {
		t.Fatal(err)
	}
	chosen := make(map[int64]struct{})
	seen := make(map[int64]struct{})
	for round := 0; round < 3; round++ {
		idx, err := dir.WORExtend(1, 50, StreamSeed(3, 1), round, chosen)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range idx {
			if g < 500 || g >= 1000 {
				t.Fatalf("round %d drew global row %d outside stratum 1", round, g)
			}
			if _, dup := seen[g]; dup {
				t.Fatalf("round %d redrew row %d", round, g)
			}
			seen[g] = struct{}{}
		}
	}
	if len(seen) != 150 {
		t.Fatalf("drew %d distinct rows, want 150", len(seen))
	}
}

func TestAllocate(t *testing.T) {
	// Proportional: matches exact shares with largest-remainder rounding.
	got := Allocate(100, []int64{600, 300, 100}, nil)
	if got[0] != 60 || got[1] != 30 || got[2] != 10 {
		t.Errorf("proportional allocation = %v, want [60 30 10]", got)
	}
	// Min-1 floor: tiny totals still cover every non-empty stratum.
	got = Allocate(2, []int64{10, 10, 10, 0}, nil)
	for h, c := range []int64{10, 10, 10, 0} {
		if c > 0 && got[h] == 0 {
			t.Errorf("stratum %d allocated 0 rows", h)
		}
		if c == 0 && got[h] != 0 {
			t.Errorf("empty stratum %d allocated %d rows", h, got[h])
		}
	}
	// Neyman: rows follow N_h·σ_h, not N_h.
	got = NeymanAllocate(100, []int64{500, 500}, []float64{0.01, 0.03})
	if got[0] != 25 || got[1] != 75 {
		t.Errorf("Neyman allocation = %v, want [25 75]", got)
	}
	// All-zero sigmas fall back to proportional.
	got = NeymanAllocate(100, []int64{750, 250}, []float64{0, 0})
	if got[0] != 75 || got[1] != 25 {
		t.Errorf("zero-sigma Neyman allocation = %v, want [75 25]", got)
	}
	var total int64
	for _, c := range NeymanAllocate(97, []int64{11, 700, 289}, []float64{0.4, 0.001, 0.2}) {
		total += c
	}
	if total != 97 {
		t.Errorf("Neyman allocation totals %d, want 97", total)
	}
}

// TestRowsDrawnMetricUnified is the regression for the metric-site fix: the
// resumable extension paths (ExtendWRInto, WORExtendIndices, and
// Backing.ExtendInto through it) must observe the rows-drawn counter on the
// obs.Default() registry exactly like the one-shot draws always have.
func TestRowsDrawnMetricUnified(t *testing.T) {
	src, schema := resumableRows(t, 400)
	read := func() float64 {
		v, ok := obs.Default().Value("samplecf_sampling_rows_drawn_total")
		if !ok {
			t.Fatal("rows-drawn counter not registered on obs.Default()")
		}
		return v
	}

	before := read()
	ar := value.NewRecordArena(schema, 32)
	if err := ExtendWRInto(src, ar, 32, 5, 1); err != nil {
		t.Fatal(err)
	}
	if got := read() - before; got < 32 {
		t.Errorf("ExtendWRInto advanced rows-drawn by %v, want ≥ 32", got)
	}

	before = read()
	if _, err := WORExtendIndices(400, 16, 5, 0, make(map[int64]struct{})); err != nil {
		t.Fatal(err)
	}
	if got := read() - before; got < 16 {
		t.Errorf("WORExtendIndices advanced rows-drawn by %v, want ≥ 16", got)
	}

	b, err := NewBacking(schema, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		row, err := src.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(uint64(i), row); err != nil {
			t.Fatal(err)
		}
	}
	before = read()
	out := value.NewRecordArena(schema, 8)
	if err := b.ExtendInto(out, 8, 5, 0, make(map[int64]struct{})); err != nil {
		t.Fatal(err)
	}
	if got := read() - before; got < 8 {
		t.Errorf("Backing.ExtendInto advanced rows-drawn by %v, want ≥ 8", got)
	}

	// The rebuild counter's single site: Backing.Reset, regardless of what
	// triggered the rebuild.
	rb := func() float64 {
		v, _ := obs.Default().Value("samplecf_reservoir_rebuilds_total")
		return v
	}
	before = rb()
	b.Reset(99)
	if got := rb() - before; got != 1 {
		t.Errorf("Reset advanced rebuild counter by %v, want 1", got)
	}
}
