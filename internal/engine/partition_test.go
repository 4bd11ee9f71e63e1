package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/obs"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// rowsDrawnNow reads the process-wide rows-drawn counter of the sampling
// package: every uniform draw, pilot and routed stream row.
func rowsDrawnNow(t testing.TB) int64 {
	t.Helper()
	v, ok := obs.Default().Value("samplecf_sampling_rows_drawn_total")
	if !ok {
		t.Fatal("rows-drawn counter not registered")
	}
	return int64(v)
}

// drawnBy runs ask and returns the rows it drew.
func drawnBy(t testing.TB, ask func() Result) int64 {
	t.Helper()
	before := rowsDrawnNow(t)
	if res := ask(); res.Err != nil {
		t.Fatal(res.Err)
	}
	return rowsDrawnNow(t) - before
}

// partitionAt returns the resident partition of tab at epoch.
func partitionAt(t testing.TB, e *Engine, tab catalog.Table, epoch uint64, cols []string, strata int) *core.Partition {
	t.Helper()
	ent, ok := e.partitions.Get(partKey{cutKey{tab.InstanceID(), strings.Join(cols, "\x00"), strata}, epoch}, nil)
	if !ok || ent.val == nil {
		t.Fatalf("no partition of %s resident at epoch %d", tab.Name(), epoch)
	}
	return ent.val
}

func sumCounts(p *core.Partition) int64 {
	var m int64
	for _, c := range p.Counts() {
		m += c
	}
	return m
}

// weightPilot is core's weight-pilot size m: a partition weighed by the
// pilot counts this many rows, and each build of one draws them.
const weightPilot = 8192

// TestPartitionSurvivesWrites pins what a write costs a stratified ask on
// a live table: the cut points survive it, the weights are recounted from
// the maintained reservoir at the new epoch, and no storage pilot runs —
// the ask draws only its routed rows. Tables without a reservoir still
// weigh by the 8,192-row pilot once per epoch, and a table that outgrows
// its cuts by more than a factor of two is cut again.
func TestPartitionSurvivesWrites(t *testing.T) {
	ctx := context.Background()
	city := []string{"city"}
	t.Run("reservoir", func(t *testing.T) {
		st := liveShardedTable(t, db.New(0), "psw", 4, 5000)
		e := New(Config{Workers: 2})
		defer e.Close()
		ask := func(c string) func() Result {
			return func() Result {
				return e.Estimate(ctx, Request{Table: st, KeyColumns: city, Codec: codec(t, c),
					SampleRows: 2000, Seed: 3, Strata: 8})
			}
		}
		drawnBy(t, ask("nullsuppression"))
		before := partitionAt(t, e, st.Shard(0), st.EpochVector()[0], city, 8)
		for i := 0; i < 16; i++ {
			if _, err := st.Insert(value.Row{value.StringValue("city-ins"), value.IntValue(int32(i))}); err != nil {
				t.Fatal(err)
			}
		}
		builds := e.Stats().StrataDirBuilds
		afterWrite := drawnBy(t, ask("nullsuppression"))
		if got := e.Stats().StrataDirBuilds - builds; got != 1 {
			t.Errorf("the write cost %d partition builds, want 1 (shard 0 only)", got)
		}
		routedOnly := drawnBy(t, ask("rle")) // same epoch: the partition is resident
		if afterWrite != routedOnly || afterWrite >= weightPilot {
			t.Errorf("ask after a write drew %d rows, the routed rows alone are %d", afterWrite, routedOnly)
		}
		shard0 := st.ShardTable(0)
		after := partitionAt(t, e, shard0, st.EpochVector()[0], city, 8)
		if after == before {
			t.Fatal("shard 0's partition was not rebuilt at its new epoch")
		}
		b0, b1 := before.Cuts().Boundaries(), after.Cuts().Boundaries()
		if len(b1) != 7 || len(b0) != len(b1) || &b0[0] != &b1[0] {
			t.Fatalf("shard 0 was cut again: %d cut points before the insert, %d after", len(b0), len(b1))
		}
		s, ok := shard0.MaintainedSample(1)
		if !ok || s.Epoch != st.EpochVector()[0] {
			t.Fatal("shard 0 serves no reservoir at its epoch")
		}
		proj, err := core.ProjectSample(s.Arena, city)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := sampling.NewKeyStrata(b1)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, ks.NumStrata())
		for i := 0; i < proj.Len(); i++ {
			want[ks.StratumOf(proj.Key(i))]++
		}
		if fmt.Sprint(after.Counts()) != fmt.Sprint(want) {
			t.Errorf("shard 0's weights %v, a direct count of its reservoir %v", after.Counts(), want)
		}
	})

	// pilotOncePerEpoch asks tab twice per epoch (two codecs, so the second
	// ask misses the result cache but shares the partition) and returns
	// the rows the first ask drew beyond the second's routed rows.
	pilotOncePerEpoch := func(t *testing.T, e *Engine, tab Table, cols []string) int64 {
		ask := func(c string) func() Result {
			return func() Result {
				return e.Estimate(ctx, Request{Table: tab, KeyColumns: cols, Codec: codec(t, c),
					SampleRows: 600, Seed: 9, Strata: 8})
			}
		}
		first := drawnBy(t, ask("nullsuppression"))
		return first - drawnBy(t, ask("rle"))
	}
	t.Run("workload-table", func(t *testing.T) {
		tab := testTable(t, "psw-workload", 6000, 41)
		e := New(Config{Workers: 2})
		defer e.Close()
		if extra := pilotOncePerEpoch(t, e, tab, []string{"a"}); extra != 1024+weightPilot {
			t.Errorf("first ask drew %d rows beyond the routed ones, want the 1,024-row cut pilot and the %d-row weight pilot", extra, weightPilot)
		}
		if m := sumCounts(partitionAt(t, e, tab, tab.Epoch(), []string{"a"}, 8)); m != weightPilot {
			t.Errorf("workload table weighed by %d rows, want the %d-row pilot", m, weightPilot)
		}
	})
	t.Run("no-reservoir", func(t *testing.T) {
		tab := liveTable(t, db.New(0, db.WithSampleTarget(0)), "psw-nores", 6000)
		e := New(Config{Workers: 2})
		defer e.Close()
		if extra := pilotOncePerEpoch(t, e, tab, city); extra != 1024+weightPilot {
			t.Errorf("first ask drew %d rows beyond the routed ones, want 1,024 + %d", extra, weightPilot)
		}
		cuts := partitionAt(t, e, tab, tab.Epoch(), city, 8).Cuts()
		if _, err := tab.Insert(value.Row{value.StringValue("city-ins"), value.IntValue(-1)}); err != nil {
			t.Fatal(err)
		}
		if extra := pilotOncePerEpoch(t, e, tab, city); extra != weightPilot {
			t.Errorf("first ask after a write drew %d rows beyond the routed ones, want only the %d-row weight pilot", extra, weightPilot)
		}
		p := partitionAt(t, e, tab, tab.Epoch(), city, 8)
		if p.Cuts() != cuts || sumCounts(p) != weightPilot {
			t.Errorf("after a write: cuts kept %v, weighed by %d rows; want the same cuts and the %d-row pilot",
				p.Cuts() == cuts, sumCounts(p), weightPilot)
		}
	})
	t.Run("recut-on-growth", func(t *testing.T) {
		tab := liveTable(t, db.New(0), "psw-grow", 10)
		e := New(Config{Workers: 2})
		defer e.Close()
		seq := []string{"seq"}
		ask := func() Result {
			return e.Estimate(ctx, Request{Table: tab, KeyColumns: seq, Codec: codec(t, "nullsuppression"),
				SampleRows: 64, Seed: 2, Strata: 16})
		}
		drawnBy(t, ask)
		if n := len(partitionAt(t, e, tab, tab.Epoch(), seq, 16).Cuts().Boundaries()); n > 9 {
			t.Fatalf("a 10-row table cut into %d strata", n+1)
		}
		for i := 10; i < 10_000; i++ {
			if _, err := tab.Insert(value.Row{value.StringValue("city-00"), value.IntValue(int32(i))}); err != nil {
				t.Fatal(err)
			}
		}
		drawnBy(t, ask)
		if n := len(partitionAt(t, e, tab, tab.Epoch(), seq, 16).Cuts().Boundaries()); n != 15 {
			t.Errorf("grown to 10k rows, the table is cut into %d strata, want 16", n+1)
		}
	})
}

// TestReservoirWeightsUnbiased holds the cut points fixed while inserts
// and deletes interleave on a live table, and checks every partition the
// engine weighs from the maintained reservoir against a full scan: each
// ŵ_h lies within 4·√(w_h(1−w_h)/m) of the exact share w_h, for each of
// 20 tables (each seeds its reservoir by its instance). The deletes shift
// whole key ranges between checks, so weights counted from a reservoir
// snapshot taken before them fail.
func TestReservoirWeightsUnbiased(t *testing.T) {
	ctx := context.Background()
	schema, err := value.NewSchema(value.Column{Name: "k", Type: value.Int32()})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"k"}
	cutAt := []int32{25, 50, 75}
	ar := value.NewRecordArena(schema, len(cutAt))
	for _, k := range cutAt {
		if err := ar.Append(value.Row{value.IntValue(k)}); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := core.ProjectSample(ar, cols)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([][]byte, len(cutAt))
	for i := range bounds {
		bounds[i] = append([]byte(nil), keys.Key(i)...)
	}
	cuts, err := core.NewCuts(schema, cols, bounds)
	if err != nil {
		t.Fatal(err)
	}
	stratumOf := func(k int32) int {
		h := 0
		for h < len(cutAt) && k >= cutAt[h] {
			h++
		}
		return h
	}

	d := db.New(0)
	for trial := 0; trial < 20; trial++ {
		tab, err := d.CreateTable(fmt.Sprintf("rw%d", trial), schema)
		if err != nil {
			t.Fatal(err)
		}
		insert := func(n int, lo, hi int32) {
			for i := 0; i < n; i++ {
				if _, err := tab.Insert(value.Row{value.IntValue(lo + int32(i)%(hi-lo))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		del := func(lo, hi int32) {
			for k := lo; k < hi; k++ {
				if _, err := tab.DeleteWhere("k", value.IntValue(k), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		e := New(Config{Workers: 1})
		key := cutKey{inst: tab.InstanceID(), columns: "k", strata: len(cutAt) + 1}
		check := func(step string) {
			t.Helper()
			fixed := &built[*core.Cuts]{rows: tab.NumRows()}
			fixed.once.Do(func() { fixed.val = cuts })
			e.cuts.Put(key, fixed, func(resident *built[*core.Cuts]) bool { return resident.val == cuts })
			if _, err := e.tableArms(ctx, tab, tab.Epoch(), cols, key.strata, 1); err != nil {
				t.Fatal(err)
			}
			p := partitionAt(t, e, tab, tab.Epoch(), cols, key.strata)
			if p.Cuts() != cuts {
				t.Fatalf("trial %d %s: the cut points were replaced", trial, step)
			}
			exact := make([]float64, len(cutAt)+1)
			err := tab.Scan(func(_ int64, row value.Row) error {
				exact[stratumOf(value.DecodeInt32(row[0]))]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			m := float64(sumCounts(p))
			for h, mh := range p.Counts() {
				w := exact[h] / float64(tab.NumRows())
				if got, tol := float64(mh)/m, 4*math.Sqrt(w*(1-w)/m); math.Abs(got-w) > tol {
					t.Errorf("trial %d %s: stratum %d weight %.4f, exact share %.4f (tolerance %.4f, m=%d)",
						trial, step, h, got, w, tol, int(m))
				}
			}
		}
		insert(3000, 0, 100)
		check("filled")
		del(0, 12)
		check("deleted keys 0-11")
		insert(1500, 50, 100)
		check("inserted keys 50-99")
		del(12, 20)
		check("deleted keys 12-19")
		insert(500, 0, 100)
		check("inserted keys 0-99")
		e.Close()
	}
}
