package samplecf_test

import (
	"testing"

	"samplecf"
	"samplecf/internal/compress"
	"samplecf/internal/rng"
	"samplecf/internal/sortkeys"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// ordersTable is a 50k-row table with the columns of the benchmark's
// 1M-row orders table: uniform and skewed strings, a long-tailed customer
// key with bimodal lengths, and a narrow int.
func ordersTable(t testing.TB) *samplecf.Table {
	t.Helper()
	col := func(name string, gen workload.ColumnGen, err error) samplecf.TableColumn {
		if err != nil {
			t.Fatal(err)
		}
		return samplecf.TableColumn{Name: name, Gen: gen}
	}
	region, err := samplecf.NewStringColumn(samplecf.Char(24), samplecf.Uniform(50), samplecf.UniformLen(4, 12), 1)
	regionCol := col("region", region, err)
	product, err := samplecf.NewStringColumn(samplecf.Char(40), samplecf.Zipf(8000, 0.7), samplecf.UniformLen(10, 30), 2)
	productCol := col("product", product, err)
	customer, err := samplecf.NewStringColumn(samplecf.Char(32), samplecf.Zipf(200_000, 0.9), samplecf.BimodalLen(6, 28, 0.7), 3)
	customerCol := col("customer", customer, err)
	qty, err := samplecf.NewIntColumn(samplecf.Int32(), samplecf.Uniform(500), 0)
	qtyCol := col("qty", qty, err)
	tab, err := samplecf.Generate(samplecf.TableSpec{
		Name: "orders", N: 50_000, Seed: 7,
		Cols: []samplecf.TableColumn{regionCol, productCol, customerCol, qtyCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sortedSample draws r rows of tab with replacement, projects them onto
// cols and returns them as an arena with its index-order permutation: the
// input the estimator hands compress.MeasureArena.
func sortedSample(t testing.TB, tab *samplecf.Table, cols []string, r int, seed uint64) (*value.Schema, *value.RecordArena, []int32) {
	t.Helper()
	schema := tab.Schema()
	keySchema, err := schema.Project(cols...)
	if err != nil {
		t.Fatal(err)
	}
	ar := value.NewRecordArena(keySchema, r)
	g := rng.New(seed)
	for k := 0; k < r; k++ {
		row, err := tab.Row(int64(g.Intn(int(tab.NumRows()))))
		if err != nil {
			t.Fatal(err)
		}
		key := make(value.Row, len(cols))
		for i, name := range cols {
			pos, _ := schema.ColumnIndex(name)
			key[i] = row[pos]
		}
		if err := ar.Append(key); err != nil {
			t.Fatal(err)
		}
	}
	perm := make([]int32, r)
	for i := range perm {
		perm[i] = int32(i)
	}
	sortkeys.Sort(ar.Keys(), ar.RowWidth(), ar.RowWidth(), perm)
	return keySchema, ar, perm
}

// TestMeasureArenaMatchesEncoders pins the estimation path to the
// encoders: for all eleven codecs, on samples of the golden table and of
// an orders-like table, MeasureArena's sizers must report exactly the
// tally EncodeArena gets by encoding every page (and GlobalDict by
// running its session).
func TestMeasureArenaMatchesEncoders(t *testing.T) {
	names := compress.Names()
	if len(names) != 11 {
		t.Fatalf("registered codecs %v, want 11", names)
	}
	for _, src := range []struct {
		name    string
		tab     *samplecf.Table
		colsets [][]string
	}{
		{"golden", goldenTable(t), [][]string{{"region"}, {"product"}, {"qty"}, {"region", "product", "qty"}}},
		{"orders", ordersTable(t), [][]string{{"region"}, {"customer"}, {"region", "product"}, {"customer", "qty"}}},
	} {
		for ci, cols := range src.colsets {
			keySchema, ar, perm := sortedSample(t, src.tab, cols, 10_000, uint64(ci+1))
			for _, pageSize := range []int{8192, 2048} {
				rpp := compress.RowsPerPage(keySchema, pageSize)
				for _, name := range names {
					codec, err := compress.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					got, err := compress.MeasureArena(keySchema, codec, ar.Full(), perm, rpp)
					if err != nil {
						t.Fatal(err)
					}
					want, err := compress.EncodeArena(keySchema, codec, ar.Full(), perm, rpp)
					if err != nil {
						t.Fatal(err)
					}
					if got.CompressedBytes != want.CompressedBytes || got.DictEntries != want.DictEntries ||
						got.UncompressedBytes != want.UncompressedBytes || got.Rows != want.Rows ||
						got.Pages != want.Pages || got.Encoded != nil {
						t.Errorf("%s %v page %d %s: MeasureArena %+v, EncodeArena %+v",
							src.name, cols, pageSize, name, got, want)
					}
				}
			}
		}
	}
}
