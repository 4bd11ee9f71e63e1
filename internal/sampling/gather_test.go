package sampling_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/distrib"
	"samplecf/internal/faults"
	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// rowsOnly hides a source's record store, forcing every draw and scan onto
// the Row + encode path.
type rowsOnly struct{ sampling.RowSource }

// gatherSpec is a small mixed-type table: character columns of different
// widths plus both integer widths, so key derivation's sign flips are
// exercised at several record offsets.
func gatherSpec(t *testing.T, layout workload.Layout) workload.Spec {
	t.Helper()
	str := func(k int, d int64, seed uint64) workload.ColumnGen {
		g, err := workload.NewStringColumn(value.Char(k), distrib.NewZipf(d, 0.8), distrib.NewUniformLen(1, k), seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	i32, err := workload.NewIntColumn(value.Int32(), distrib.NewUniform(400), -200)
	if err != nil {
		t.Fatal(err)
	}
	i64, err := workload.NewIntColumn(value.Int64(), distrib.NewUniform(1000), -500)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Spec{Name: "g", N: 3000, Seed: 11, Layout: layout, Cols: []workload.SpecColumn{
		{Name: "city", Gen: str(12, 60, 1)},
		{Name: "qty", Gen: i32},
		{Name: "note", Gen: str(20, 900, 2)},
		{Name: "amount", Gen: i64},
	}}
}

// gatherSources returns the record-store sources under test — a shuffled
// and a clustered workload table, and a live db table's snapshot — and
// their shared schema.
func gatherSources(t *testing.T) (map[string]sampling.RecordSource, *value.Schema) {
	t.Helper()
	shuffled, err := workload.Generate(gatherSpec(t, workload.LayoutShuffled))
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := workload.Generate(gatherSpec(t, workload.LayoutClustered))
	if err != nil {
		t.Fatal(err)
	}
	live, err := db.New(0).CreateTable("live", shuffled.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < shuffled.NumRows(); i++ {
		row, err := shuffled.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := live.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]sampling.RecordSource{"shuffled": shuffled, "clustered": clustered, "snapshot": snap}
	return srcs, shuffled.Schema()
}

// sameArena fails unless two arenas hold identical records and keys.
func sameArena(t *testing.T, what string, gathered, rowPath *value.RecordArena) {
	t.Helper()
	if gathered.Len() == 0 || gathered.Len() != rowPath.Len() {
		t.Fatalf("%s: gathered %d rows, Row path %d", what, gathered.Len(), rowPath.Len())
	}
	if !bytes.Equal(gathered.Recs(), rowPath.Recs()) {
		t.Fatalf("%s: records differ between the gather and Row paths", what)
	}
	if !bytes.Equal(gathered.Keys(), rowPath.Keys()) {
		t.Fatalf("%s: keys differ between the gather and Row paths", what)
	}
}

// drawBoth runs one draw shape against src and against its Row-only view
// and requires byte-identical arenas.
func drawBoth(t *testing.T, what string, schema *value.Schema, src sampling.RecordSource,
	draw func(src sampling.RowSource, ar *value.RecordArena) error) {
	t.Helper()
	gathered := value.NewRecordArena(schema, 0)
	if err := draw(src, gathered); err != nil {
		t.Fatalf("%s (gather): %v", what, err)
	}
	rowPath := value.NewRecordArena(schema, 0)
	if err := draw(rowsOnly{src}, rowPath); err != nil {
		t.Fatalf("%s (Row path): %v", what, err)
	}
	sameArena(t, what, gathered, rowPath)
}

// stratumBounds cuts the city column's key domain at three quantiles of a
// pilot sample.
func stratumBounds(t *testing.T, src sampling.RowSource, schema *value.Schema) [][]byte {
	t.Helper()
	bounds, err := core.PilotBoundaries(src, schema, []string{"city"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 2 {
		t.Fatalf("pilot gave %d boundaries, want several", len(bounds))
	}
	return bounds
}

// TestGatherMatchesRowPath is the byte-identity contract of record stores:
// for the same source and seed, every draw shape yields the same records
// and keys whether rows are gathered from the store or fetched with Row
// and encoded.
func TestGatherMatchesRowPath(t *testing.T) {
	srcs, schema := gatherSources(t)
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			drawBoth(t, "UniformWRInto", schema, src, func(s sampling.RowSource, ar *value.RecordArena) error {
				return sampling.UniformWRInto(s, 700, rng.New(5), ar)
			})
			drawBoth(t, "ExtendWRInto rounds", schema, src, func(s sampling.RowSource, ar *value.RecordArena) error {
				for round, extra := range []int64{100, 250, 400} {
					if err := sampling.ExtendWRInto(s, ar, extra, 9, round); err != nil {
						return err
					}
				}
				return nil
			})
			dir, err := core.StratifyTable(src, schema, []string{"city"}, stratumBounds(t, src, schema))
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h < dir.NumStrata(); h++ {
				if dir.Counts()[h] == 0 {
					continue
				}
				drawBoth(t, "stratum WRInto", schema, src, func(s sampling.RowSource, ar *value.RecordArena) error {
					return dir.WRInto(s, h, 300, rng.New(sampling.StreamSeed(3, h)), ar)
				})
				drawBoth(t, "stratum ExtendWRInto", schema, src, func(s sampling.RowSource, ar *value.RecordArena) error {
					return dir.ExtendWRInto(s, h, ar, 200, sampling.StreamSeed(3, h), 1)
				})
			}
		})
	}
}

// stratumRows lists stratum h's row indices in ascending order: a WOR draw
// of the whole stratum returns every index exactly once.
func stratumRows(t *testing.T, dir *sampling.StrataDirectory, h int) []int64 {
	t.Helper()
	rows, err := dir.WORExtend(h, dir.Counts()[h], 1, 0, make(map[int64]struct{}))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(rows)
	return rows
}

// referenceStrata buckets src's rows the slow way: decode each row,
// encode its projected key with value.EncodeKey, and search the bounds.
func referenceStrata(t *testing.T, src sampling.RowSource, schema *value.Schema, cols []string, bounds [][]byte) [][]int64 {
	t.Helper()
	keySchema, err := schema.Project(cols...)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := sampling.NewKeyStrata(bounds)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, ks.NumStrata())
	for i := int64(0); i < src.NumRows(); i++ {
		row, err := src.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		krow := make(value.Row, len(cols))
		for c, name := range cols {
			pos, _ := schema.ColumnIndex(name)
			krow[c] = row[pos]
		}
		key, err := value.EncodeKey(keySchema, krow, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := ks.StratumOf(key)
		out[h] = append(out[h], i)
	}
	return out
}

// TestStratifyTableRecordsMatchRows requires the directories built from a
// record store and from decoded rows to bucket every row exactly as an
// EncodeKey reference does, for single- and multi-column keys with
// negative integers.
func TestStratifyTableRecordsMatchRows(t *testing.T) {
	srcs, schema := gatherSources(t)
	for name, src := range srcs {
		for _, cols := range [][]string{{"city"}, {"qty", "city"}, {"amount", "note"}} {
			bounds, err := core.PilotBoundaries(src, schema, cols, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceStrata(t, src, schema, cols, bounds)
			for path, s := range map[string]sampling.RowSource{"records": src, "rows": rowsOnly{src}} {
				dir, err := core.StratifyTable(s, schema, cols, bounds)
				if err != nil {
					t.Fatal(err)
				}
				for h := range want {
					if got := stratumRows(t, dir, h); !slices.Equal(got, want[h]) {
						t.Fatalf("%s %v from %s: stratum %d holds %d rows, reference %d",
							name, cols, path, h, len(got), len(want[h]))
					}
				}
			}
		}
	}
}

// TestSortByColumnRebuildsStore pins the re-layout contract: a sort builds
// a new record store (readers holding the old one keep their bytes), bumps
// the epoch, and leaves rows in column order.
func TestSortByColumnRebuildsStore(t *testing.T) {
	tab, err := workload.Generate(gatherSpec(t, workload.LayoutShuffled))
	if err != nil {
		t.Fatal(err)
	}
	before, epoch := tab.Records(), tab.Epoch()
	kept := bytes.Clone(before)
	tab.SortByColumn(1)
	if tab.Epoch() <= epoch {
		t.Fatalf("epoch %d after sort, was %d", tab.Epoch(), epoch)
	}
	if &tab.Records()[0] == &before[0] {
		t.Fatal("sort rewrote the record store in place")
	}
	if !bytes.Equal(before, kept) {
		t.Fatal("the previous record store changed under its readers")
	}
	typ := tab.Schema().Column(1).Type
	prev, err := tab.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < tab.NumRows(); i++ {
		row, err := tab.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if value.CompareValues(typ, prev[1], row[1]) > 0 {
			t.Fatalf("row %d is out of qty order after SortByColumn", i)
		}
		prev = row
	}
}

// TestGatherObservesDrawFaultAndCounter checks the gather path keeps the
// draw's side channels: an armed sampling.draw fault fails the draw before
// any row moves, and a successful draw adds its rows to the rows-drawn
// counter.
func TestGatherObservesDrawFaultAndCounter(t *testing.T) {
	srcs, schema := gatherSources(t)
	src := srcs["shuffled"]
	if err := faults.Arm("sampling.draw:err@1+", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	ar := value.NewRecordArena(schema, 0)
	err := sampling.UniformWRInto(src, 50, rng.New(1), ar)
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != "sampling.draw" {
		t.Fatalf("armed draw fault: got %v, want an injected sampling.draw error", err)
	}
	if err := sampling.ExtendWRInto(src, ar, 50, 1, 0); !errors.As(err, &inj) {
		t.Fatalf("armed draw fault on an extension round: got %v", err)
	}
	if ar.Len() != 0 {
		t.Fatalf("a failed draw appended %d rows", ar.Len())
	}
	faults.Disarm()

	counter := func() uint64 {
		v, ok := obs.Default().Value("samplecf_sampling_rows_drawn_total")
		if !ok {
			t.Fatal("rows-drawn counter not registered")
		}
		return uint64(v)
	}
	before := counter()
	if err := sampling.UniformWRInto(src, 50, rng.New(1), ar); err != nil {
		t.Fatal(err)
	}
	if got := counter() - before; got < 50 {
		t.Fatalf("rows-drawn counter rose by %d, want at least 50", got)
	}
}
