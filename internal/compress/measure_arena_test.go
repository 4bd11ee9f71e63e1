package compress

import (
	"bytes"
	"slices"
	"testing"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// measureTestArena builds an arena of pseudo-random rows plus a shuffled
// permutation over them.
func measureTestArena(t *testing.T, n int) (*value.Schema, *value.RecordArena, []int32) {
	t.Helper()
	schema := value.MustSchema(
		value.Column{Name: "s", Type: value.Char(12)},
		value.Column{Name: "i", Type: value.Int32()},
	)
	g := rng.New(42)
	ar := value.NewRecordArena(schema, n)
	for i := 0; i < n; i++ {
		payload := []byte("v")
		for l := g.Intn(10); l > 0; l-- {
			payload = append(payload, byte('a'+g.Intn(4)))
		}
		row := value.Row{payload, value.IntValue(int32(g.Intn(50)))}
		if err := ar.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	g.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return schema, ar, perm
}

// permRecords materializes the [][]byte view an encoding session consumes,
// in perm order.
func permRecords(ar *value.RecordArena, perm []int32) [][]byte {
	recs := make([][]byte, len(perm))
	for i, pi := range perm {
		recs[i] = ar.Rec(int(pi))
	}
	return recs
}

// encodeSession measures records page by page through a codec session,
// keeping every encoding: the round-trip route, free of any sizer.
func encodeSession(t *testing.T, schema *value.Schema, codec Codec, recs [][]byte, rpp int) Result {
	t.Helper()
	sess, err := codec.NewSession(schema)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(recs); start += rpp {
		if err := sess.AddPage(recs[start:min(start+rpp, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTally reports a mismatch between two measurements' size tallies.
func sameTally(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.CompressedBytes != want.CompressedBytes ||
		got.UncompressedBytes != want.UncompressedBytes ||
		got.Rows != want.Rows || got.Pages != want.Pages ||
		got.DictEntries != want.DictEntries {
		t.Errorf("%s = {comp=%d uncomp=%d rows=%d pages=%d dict=%d}, want {%d %d %d %d %d}", what,
			got.CompressedBytes, got.UncompressedBytes, got.Rows, got.Pages, got.DictEntries,
			want.CompressedBytes, want.UncompressedBytes, want.Rows, want.Pages, want.DictEntries)
	}
}

// TestMeasureArenaMatchesMeasureRecords: for every registered codec, the
// arena routes — sized (MeasureArena), encoded (EncodeArena) and sized as a
// resample (MeasureResample) — must all report exactly the sizes an
// encoding session reports when it is fed the same records page by page.
func TestMeasureArenaMatchesMeasureRecords(t *testing.T) {
	schema, ar, perm := measureTestArena(t, 700)
	recs := permRecords(ar, perm)
	const rpp = 64
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			codec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeSession(t, schema, codec, recs, rpp)
			for _, route := range arenaRoutes {
				got, err := route.measure(schema, codec, ar.Full(), perm, rpp)
				if err != nil {
					t.Fatal(err)
				}
				if got.Encoded != nil {
					t.Errorf("%s retained encodings", route.name)
				}
				sameTally(t, route.name, got, want)
			}
		})
	}
}

// arenaRoutes are the three ways to measure an arena window in perm order.
var arenaRoutes = []struct {
	name    string
	measure func(*value.Schema, Codec, value.Window, []int32, int) (Result, error)
}{{"MeasureArena", MeasureArena}, {"EncodeArena", EncodeArena}, {"MeasureResample", MeasureResample}}

// TestMeasureResampleRepeatsAndOmits: a bootstrap resample's perm names
// some rows several times and others not at all. For every codec —
// globaldict and globaldict-p4, whose size-only route counts distinct
// values over the rows perm names, included — every route must size such
// a perm exactly as an encoding session sizes its records, in draw order
// and in key order.
func TestMeasureResampleRepeatsAndOmits(t *testing.T) {
	schema, ar, _ := measureTestArena(t, 700)
	g := rng.New(7)
	drawn := make([]int32, ar.Len())
	for i := range drawn {
		drawn[i] = int32(g.Intn(ar.Len()))
	}
	sorted := slices.Clone(drawn)
	slices.SortStableFunc(sorted, func(a, b int32) int { return bytes.Compare(ar.Key(int(a)), ar.Key(int(b))) })
	const rpp = 64
	for _, name := range Names() {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, perm := range [][]int32{drawn, sorted} {
			want := encodeSession(t, schema, codec, permRecords(ar, perm), rpp)
			for _, route := range arenaRoutes {
				got, err := route.measure(schema, codec, ar.Full(), perm, rpp)
				if err != nil {
					t.Fatal(err)
				}
				sameTally(t, name+" "+route.name, got, want)
			}
		}
	}
}

// TestMeasureResampleNotTallied: the compress counters count measured
// indexes, so sizing a resample leaves them where they were.
func TestMeasureResampleNotTallied(t *testing.T) {
	schema, ar, perm := measureTestArena(t, 200)
	for _, name := range []string{"pagedict", "globaldict"} {
		codec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pages := measurePages.With(familyOf(name))
		before := pages.Value()
		if _, err := MeasureResample(schema, codec, ar.Full(), perm, 16); err != nil {
			t.Fatal(err)
		}
		if got := pages.Value(); got != before {
			t.Errorf("%s: MeasureResample moved the page counter by %d", name, got-before)
		}
		if _, err := MeasureArena(schema, codec, ar.Full(), perm, 16); err != nil {
			t.Fatal(err)
		}
		if got := pages.Value(); got != before+13 {
			t.Errorf("%s: MeasureArena moved the page counter by %d, want 13", name, got-before)
		}
	}
}

// TestMeasureArenaParallelMatchesSequential drives the worker fan-out
// directly (GOMAXPROCS-independent) and requires byte-identical tallies,
// on the sizing and the encoding route, including the non-even last chunk
// and a single-page arena.
func TestMeasureArenaParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 63, 64, 700, 1337} {
		schema, ar, perm := measureTestArena(t, n)
		const rpp = 64
		pages := (n + rpp - 1) / rpp
		for _, pcName := range []string{"nullsuppression", "rle", "prefix", "pagedict+ns", "page", "for", "huffman"} {
			codec, err := Lookup(pcName)
			if err != nil {
				t.Fatal(err)
			}
			pc := codec.(Paged).PC
			for _, tally := range []pageTally{pageSize, encodedSize} {
				seq, err := measureArenaSequential(schema, pc, tally, ar.Full(), perm, rpp)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8} {
					w := workers
					if w > pages {
						w = pages
					}
					if w < 1 {
						w = 1
					}
					par, err := measureArenaParallel(schema, pc, tally, ar.Full(), perm, rpp, pages, w)
					if err != nil {
						t.Fatal(err)
					}
					if par.CompressedBytes != seq.CompressedBytes || par.UncompressedBytes != seq.UncompressedBytes ||
						par.Rows != seq.Rows || par.Pages != seq.Pages || par.DictEntries != seq.DictEntries {
						t.Errorf("n=%d %s workers=%d: parallel %+v != sequential %+v", n, pcName, workers, par, seq)
					}
				}
			}
		}
	}
}

// TestMeasureArenaErrors covers argument validation.
func TestMeasureArenaErrors(t *testing.T) {
	schema, ar, perm := measureTestArena(t, 10)
	codec, err := Lookup("nullsuppression")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureArena(schema, codec, ar.Full(), perm, 0); err == nil {
		t.Error("rowsPerPage 0 accepted")
	}
	if _, err := MeasureArena(schema, codec, ar.Full(), perm[:5], 4); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := MeasureArena(schema, codec, ar.Full(), nil, 4); err != nil {
		t.Errorf("nil permutation rejected: %v", err)
	}
}
