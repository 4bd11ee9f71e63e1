package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/distrib"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// testTable builds a small synthetic table with a skewed string column and
// a uniform int column.
func testTable(t testing.TB, name string, n int64, seed uint64) *workload.Table {
	t.Helper()
	sc, err := workload.NewStringColumn(value.Char(20), distrib.NewZipf(200, 0.5), distrib.NewUniformLen(4, 16), seed)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := workload.NewIntColumn(value.Int32(), distrib.NewUniform(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := workload.Generate(workload.Spec{
		Name: name, N: n, Seed: seed,
		Cols: []workload.SpecColumn{{Name: "a", Gen: sc}, {Name: "b", Gen: ic}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func codec(t testing.TB, name string) compress.Codec {
	t.Helper()
	c, err := compress.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchMatchesOneShot is the golden equivalence test: for the same
// (table, columns, codec, fraction, seed), the engine's batch path must
// reproduce core.SampleCF bit-for-bit — shared samples and shared index
// builds are an optimization, not a semantic change.
func TestBatchMatchesOneShot(t *testing.T) {
	tab := testTable(t, "golden", 4000, 7)
	e := New(Config{Workers: 4})
	defer e.Close()

	var reqs []Request
	type spec struct {
		cols  []string
		codec string
	}
	specs := []spec{
		{[]string{"a"}, "nullsuppression"},
		{[]string{"a"}, "pagedict+ns"},
		{[]string{"b"}, "nullsuppression"},
		{[]string{"a", "b"}, "rle"},
		{nil, "prefix"},
	}
	for _, s := range specs {
		reqs = append(reqs, Request{
			Table: tab, KeyColumns: s.cols, Codec: codec(t, s.codec),
			Fraction: 0.05, Seed: 42,
		})
	}
	got := e.WhatIf(context.Background(), reqs)
	for i, s := range specs {
		if got[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, got[i].Err)
		}
		want, err := core.SampleCF(tab, tab.Schema(), core.Options{
			Fraction: 0.05, Codec: codec(t, s.codec), KeyColumns: s.cols, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := got[i].Estimate
		if g.CF != want.CF {
			t.Errorf("item %d (%v/%s): batch CF %v != one-shot CF %v", i, s.cols, s.codec, g.CF, want.CF)
		}
		if g.SampleRows != want.SampleRows || g.SampleDistinct != want.SampleDistinct {
			t.Errorf("item %d: sample shape (%d,%d) != (%d,%d)",
				i, g.SampleRows, g.SampleDistinct, want.SampleRows, want.SampleDistinct)
		}
		if g.Result.CompressedBytes != want.Result.CompressedBytes ||
			g.Result.UncompressedBytes != want.Result.UncompressedBytes {
			t.Errorf("item %d: result bytes differ: %+v vs %+v", i, g.Result, want.Result)
		}
	}
}

// TestSampleSharing checks the batch draws one sample per (table, size,
// seed) and one index build per column set.
func TestSampleSharing(t *testing.T) {
	tab := testTable(t, "shared", 2000, 3)
	e := New(Config{Workers: 4, CacheEntries: -1})
	defer e.Close()

	var reqs []Request
	colsets := [][]string{{"a"}, {"b"}}
	codecs := []string{"nullsuppression", "rle", "prefix"}
	for _, cs := range colsets {
		for _, cn := range codecs {
			reqs = append(reqs, Request{Table: tab, KeyColumns: cs, Codec: codec(t, cn), Fraction: 0.1, Seed: 9})
		}
	}
	res := e.WhatIf(context.Background(), reqs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if !r.SharedSample {
			t.Errorf("item %d: expected SharedSample", i)
		}
	}
	st := e.Stats()
	if st.SamplesDrawn != 1 {
		t.Errorf("SamplesDrawn = %d, want 1 (one (table,size,seed) group)", st.SamplesDrawn)
	}
	if st.IndexesPrepared != uint64(len(colsets)) {
		t.Errorf("IndexesPrepared = %d, want %d (one per column set)", st.IndexesPrepared, len(colsets))
	}
	if st.Evaluated != uint64(len(reqs)) {
		t.Errorf("Evaluated = %d, want %d", st.Evaluated, len(reqs))
	}
}

// TestKeyChainSortsOnce checks that a batch sorts each key chain once: {a}
// is a byte prefix of {a,b} (a and b are adjacent, in schema order), so the
// {a} index is a view of the {a,b} sort and counts as no build, while {b}
// starts a chain of its own and {b,a} — not a run of the schema — is
// projected and sorted alone. Every estimate must still equal the one-shot
// estimator's, which sorts each column set by itself.
func TestKeyChainSortsOnce(t *testing.T) {
	tab := testTable(t, "chains", 3000, 11)
	for _, tc := range []struct {
		colsets  [][]string
		prepared uint64
	}{
		{[][]string{{"a"}, {"a", "b"}}, 1},
		{[][]string{{"a", "b"}, {"a"}, {"b"}, {"b", "a"}}, 3},
		{[][]string{{"a"}, nil, {"a", "b"}}, 1},
	} {
		e := New(Config{Workers: 4, CacheEntries: -1})
		var reqs []Request
		for _, cs := range tc.colsets {
			for _, cn := range []string{"nullsuppression", "pagedict", "rle", "globaldict"} {
				reqs = append(reqs, Request{Table: tab, KeyColumns: cs, Codec: codec(t, cn), Fraction: 0.1, Seed: 5})
			}
		}
		res := e.WhatIf(context.Background(), reqs)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%v item %d: %v", tc.colsets, i, r.Err)
			}
			want, err := core.SampleCF(tab, tab.Schema(), core.Options{
				Fraction: 0.1, Codec: reqs[i].Codec, KeyColumns: reqs[i].KeyColumns, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			g := r.Estimate
			if g.CF != want.CF || !reflect.DeepEqual(g.Result, want.Result) || !reflect.DeepEqual(g.Profile, want.Profile) {
				t.Errorf("%v item %d (%v/%s): batch %+v (d'=%d), one-shot %+v (d'=%d)", tc.colsets, i,
					reqs[i].KeyColumns, reqs[i].Codec.Name(), g.Result, g.SampleDistinct, want.Result, want.SampleDistinct)
			}
		}
		if st := e.Stats(); st.IndexesPrepared != tc.prepared {
			t.Errorf("%v: IndexesPrepared = %d, want %d", tc.colsets, st.IndexesPrepared, tc.prepared)
		}
		e.Close()
	}
}

// TestCacheAccounting checks hit/miss/entry counters across repeated and
// distinct requests, and that a cached result round-trips the estimate.
func TestCacheAccounting(t *testing.T) {
	tab := testTable(t, "cached", 2000, 5)
	e := New(Config{Workers: 2, CacheEntries: 8})
	defer e.Close()
	req := Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1}

	first := e.Estimate(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Error("first call must miss")
	}
	second := e.Estimate(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Error("second call must hit")
	}
	if second.Estimate.CF != first.Estimate.CF {
		t.Errorf("cached CF %v != computed CF %v", second.Estimate.CF, first.Estimate.CF)
	}
	// A different seed is a different key.
	req.Seed = 2
	third := e.Estimate(context.Background(), req)
	if third.Err != nil || third.CacheHit {
		t.Errorf("distinct seed must miss (err %v, hit %v)", third.Err, third.CacheHit)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2", st.CacheEntries)
	}
}

// TestCacheEviction checks the LRU bound holds and evictions are counted.
func TestCacheEviction(t *testing.T) {
	tab := testTable(t, "evict", 1000, 11)
	e := New(Config{Workers: 2, CacheEntries: 4})
	defer e.Close()
	for seed := uint64(0); seed < 10; seed++ {
		r := e.Estimate(context.Background(), Request{
			Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"),
			Fraction: 0.02, Seed: seed,
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := e.Stats()
	if st.CacheEntries != 4 {
		t.Errorf("CacheEntries = %d, want capacity 4", st.CacheEntries)
	}
	if st.Evictions != 6 {
		t.Errorf("Evictions = %d, want 6", st.Evictions)
	}
}

// TestFingerprintInvalidation checks that mutating table content changes
// the cache key — same name and shape, different rows must not hit.
func TestFingerprintInvalidation(t *testing.T) {
	tabA := testTable(t, "same-name", 1000, 1)
	tabB := testTable(t, "same-name", 1000, 2) // different content
	e := New(Config{Workers: 2})
	defer e.Close()
	ra := e.Estimate(context.Background(), Request{Table: tabA, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 3})
	rb := e.Estimate(context.Background(), Request{Table: tabB, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 3})
	if ra.Err != nil || rb.Err != nil {
		t.Fatal(ra.Err, rb.Err)
	}
	if rb.CacheHit {
		t.Error("different table content must not share cache entries")
	}
}

// TestErrorIsolation checks a bad candidate fails alone: the rest of its
// batch still estimates.
func TestErrorIsolation(t *testing.T) {
	tab := testTable(t, "isolated", 1000, 13)
	e := New(Config{Workers: 2})
	defer e.Close()
	res := e.WhatIf(context.Background(), []Request{
		{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
		{Table: tab, KeyColumns: []string{"no_such_column"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
		{Table: tab, Codec: nil, Fraction: 0.05, Seed: 1},
		{Table: tab, KeyColumns: []string{"b"}, Codec: codec(t, "rle"), Fraction: 0.05, Seed: 1},
	})
	if res[0].Err != nil || res[3].Err != nil {
		t.Errorf("good candidates failed: %v, %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil {
		t.Error("unknown column must fail")
	}
	if res[2].Err == nil {
		t.Error("nil codec must fail")
	}
}

// TestDeadlineExpiry checks items not started before the context deadline
// fail with the context error and do not hang the batch.
func TestDeadlineExpiry(t *testing.T) {
	tab := testTable(t, "deadline", 2000, 17)
	e := New(Config{Workers: 1, CacheEntries: -1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: every item must carry the context error
	res := e.WhatIf(ctx, []Request{
		{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
		{Table: tab, KeyColumns: []string{"b"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
	})
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("item %d: expected context error", i)
		}
	}

	// A generous deadline lets everything finish.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	ok := e.WhatIf(ctx2, []Request{
		{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
	})
	if ok[0].Err != nil {
		t.Errorf("unexpired deadline: %v", ok[0].Err)
	}
}

// TestConcurrentWhatIf hammers one engine from many goroutines — the test
// the race detector cares about: shared cache, shared counters, shared
// sample groups inside each batch.
func TestConcurrentWhatIf(t *testing.T) {
	tab := testTable(t, "conc", 3000, 19)
	e := New(Config{Workers: 4, CacheEntries: 32})
	defer e.Close()

	var wg sync.WaitGroup
	const callers = 8
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				reqs := []Request{
					{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.02, Seed: uint64(g % 4)},
					{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "rle"), Fraction: 0.02, Seed: uint64(g % 4)},
					{Table: tab, KeyColumns: []string{"b"}, Codec: codec(t, "prefix"), Fraction: 0.02, Seed: uint64(g % 4)},
				}
				for i, r := range e.WhatIf(context.Background(), reqs) {
					if r.Err != nil {
						errs[g] = fmt.Errorf("caller %d item %d: %w", g, i, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Hits+st.Misses != callers*3*3 {
		t.Errorf("lookup count %d, want %d", st.Hits+st.Misses, callers*3*3)
	}
	if st.Hits == 0 {
		t.Error("repeated identical requests should produce cache hits")
	}
}

// TestCloseRejectsNewWork checks post-Close batches fail cleanly instead of
// hanging or panicking.
func TestCloseRejectsNewWork(t *testing.T) {
	tab := testTable(t, "closed", 500, 23)
	e := New(Config{Workers: 2, CacheEntries: -1})
	e.Close()
	res := e.WhatIf(context.Background(), []Request{
		{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "nullsuppression"), Fraction: 0.05, Seed: 1},
	})
	if res[0].Err == nil {
		t.Error("expected error after Close")
	}
}

// TestEstimateVirtualTable checks generator-backed tables work through the
// engine (the constant-memory path for huge tables).
func TestEstimateVirtualTable(t *testing.T) {
	sc, err := workload.NewStringColumn(value.Char(12), distrib.NewUniform(100), distrib.NewConstantLen(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := workload.NewVirtual(workload.Spec{
		Name: "virt", N: 100_000, Seed: 2,
		Cols: []workload.SpecColumn{{Name: "a", Gen: sc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2})
	defer e.Close()
	r := e.Estimate(context.Background(), Request{Table: vt, Codec: codec(t, "nullsuppression"), Fraction: 0.01, Seed: 4})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Estimate.CF <= 0 || r.Estimate.CF > 1.5 {
		t.Errorf("implausible CF %v", r.Estimate.CF)
	}
}
