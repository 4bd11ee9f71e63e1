package sampling

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"samplecf/internal/obs"
	"samplecf/internal/rng"
	"samplecf/internal/stats"
	"samplecf/internal/value"
)

// strataKeyOf derives a record's whole-row index key for routing.
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

// rowBounds returns the encoded keys of rows idx as stratum boundaries
// (row-%06d keys sort in row order).
func rowBounds(t *testing.T, src RowSource, schema *value.Schema, idx ...int64) *KeyStrata {
	t.Helper()
	var bounds [][]byte
	for _, i := range idx {
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
	return ks
}

// newRouter starts a router over src's whole-row keys.
func newRouter(t *testing.T, src RowSource, schema *value.Schema, ks *KeyStrata, seed uint64) *Router {
	t.Helper()
	r, err := NewRouter(src, schema, ks, strataKeyOf(t, schema), seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// streamRows reads the rows-drawn counter, which counts every routed
// stream row.
func streamRows(t *testing.T) int64 {
	t.Helper()
	v, ok := obs.Default().Value("samplecf_sampling_rows_drawn_total")
	if !ok {
		t.Fatal("rows-drawn counter not registered")
	}
	return int64(v)
}

// rowIndex recovers a resumableRows row's index from its record.
func rowIndex(t *testing.T, rec []byte) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(rec), "row-%06d", &i); err != nil {
		t.Fatalf("record %q: %v", rec, err)
	}
	return i
}

// TestStrataDirectorySingleStratumIdentity pins the degenerate contract:
// a one-stratum router's stream is UniformWRInto's draw at the same seed,
// and its takes, whatever their sizes, concatenate to that one draw.
func TestStrataDirectorySingleStratumIdentity(t *testing.T) {
	src, schema := resumableRows(t, 3000)
	ks, err := NewKeyStrata(nil)
	if err != nil {
		t.Fatal(err)
	}
	const seed, r = 7, 500
	plain := value.NewRecordArena(schema, r)
	if err := UniformWRInto(src, r, rng.New(seed), plain); err != nil {
		t.Fatal(err)
	}
	routed := value.NewRecordArena(schema, r)
	rt := newRouter(t, src, schema, ks, seed)
	before := streamRows(t)
	for _, sz := range []int64{100, 150, 250} {
		if err := rt.ExtendInto(0, routed, sz, sz); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plain.Recs(), routed.Recs()) || !bytes.Equal(plain.Keys(), routed.Keys()) {
		t.Error("single-stratum routed takes differ from UniformWRInto")
	}
	if got := streamRows(t) - before; got != r {
		t.Errorf("single-stratum router drew %d stream rows for %d taken", got, r)
	}
}

// TestStrataDirectoryPartition checks every routed row lands in the
// stratum its key selects, and a pilot's tally splits near the strata's
// true shares.
func TestStrataDirectoryPartition(t *testing.T) {
	src, schema := resumableRows(t, 2000)
	ks := rowBounds(t, src, schema, 500, 1000, 1500)
	rt := newRouter(t, src, schema, ks, 9)
	for h := 0; h < ks.NumStrata(); h++ {
		ar := value.NewRecordArena(schema, 64)
		if err := rt.ExtendInto(h, ar, 64, 1<<20); err != nil {
			t.Fatal(err)
		}
		if ar.Len() != 64 {
			t.Fatalf("stratum %d: took %d rows, want 64", h, ar.Len())
		}
		for i := 0; i < ar.Len(); i++ {
			if got := ks.StratumOf(ar.Key(i)); got != h {
				t.Fatalf("stratum %d take produced a key of stratum %d", h, got)
			}
			if lo, idx := 500*h, rowIndex(t, ar.Rec(i)); idx < lo || idx >= lo+500 {
				t.Fatalf("stratum %d take produced row %d", h, idx)
			}
		}
	}
	counts, err := newRouter(t, src, schema, ks, 3).Tally(8000)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for h, c := range counts {
		total += c
		// Binomial(8000, 1/4): σ ≈ 39; 6σ keeps the check deterministic
		// in practice without hiding a misrouted stratum.
		if c < 2000-240 || c > 2000+240 {
			t.Errorf("stratum %d tallied %d of 8000, want about 2000", h, c)
		}
	}
	if total != 8000 {
		t.Errorf("tally covers %d rows, want 8000", total)
	}
}

// TestStrataDirectoryWORExtend checks a stratum's takes are resumable and
// independent of serving order: the rows a stratum receives depend only
// on the stream and its own takes, never on which other strata drew the
// stream further, and a take whose gather fails leaves its rows queued,
// so the retry returns them.
func TestStrataDirectoryWORExtend(t *testing.T) {
	src, schema := resumableRows(t, 1000)
	ks := rowBounds(t, src, schema, 500)
	take := func(rt *Router, h int, sizes ...int64) *value.RecordArena {
		t.Helper()
		ar := value.NewRecordArena(schema, 0)
		for _, sz := range sizes {
			if err := rt.ExtendInto(h, ar, sz, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		return ar
	}
	a := newRouter(t, src, schema, ks, 3)
	a1 := take(a, 1, 50, 50, 50)
	a0 := take(a, 0, 150)
	b := newRouter(t, src, schema, ks, 3)
	b0 := take(b, 0, 100, 50)
	b1 := take(b, 1, 150)
	if !bytes.Equal(a0.Recs(), b0.Recs()) || !bytes.Equal(a1.Recs(), b1.Recs()) {
		t.Error("a stratum's rows depend on the order the strata were served in")
	}

	// A failed gather consumes nothing.
	flaky := &failingSource{RowSource: src}
	c := newRouter(t, flaky, schema, ks, 3)
	take(c, 1, 150) // routes about 150 stratum-0 rows on the way
	flaky.fail = true
	if err := c.ExtendInto(0, value.NewRecordArena(schema, 0), 100, 1<<20); err == nil {
		t.Fatal("a failing row fetch did not fail the take")
	}
	flaky.fail = false
	if got := take(c, 0, 150); !bytes.Equal(got.Recs(), a0.Recs()) {
		t.Error("the retry after a failed take returned different rows")
	}
}

// failingSource fails every Row call while fail is set.
type failingSource struct {
	RowSource
	fail bool
}

func (f *failingSource) Row(i int64) (value.Row, error) {
	if f.fail {
		return nil, fmt.Errorf("row %d unavailable", i)
	}
	return f.RowSource.Row(i)
}

// faultAtSource fails its at-th Row call (counting from 1), once: with
// an error, or with a panic when panics is set.
type faultAtSource struct {
	RowSource
	at, calls int
	panics    bool
}

func (f *faultAtSource) Row(i int64) (value.Row, error) {
	f.calls++
	if f.calls == f.at {
		if f.panics {
			panic(fmt.Sprintf("row %d unreadable", i))
		}
		return nil, fmt.Errorf("row %d unavailable", i)
	}
	return f.RowSource.Row(i)
}

// TestRoutedFailedRouteRetries checks that a row fetch failing part-way
// through routing — by an error or a panic — leaves the router as it was:
// the lock is free, the stream rewinds, and the retried take and every
// later one return the rows a fault-free router returns.
func TestRoutedFailedRouteRetries(t *testing.T) {
	src, schema := resumableRows(t, 1000)
	ks := rowBounds(t, src, schema, 500)
	takes := func(rt *Router) ([][]byte, error) {
		var out [][]byte
		for _, h := range []int{0, 1, 0} {
			ar := value.NewRecordArena(schema, 0)
			if err := rt.ExtendInto(h, ar, 60, 1<<20); err != nil {
				return nil, err
			}
			out = append(out, ar.Recs())
		}
		return out, nil
	}
	want, err := takes(newRouter(t, src, schema, ks, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panics=%v", panics), func(t *testing.T) {
			flaky := &faultAtSource{RowSource: src, at: 40, panics: panics}
			rt := newRouter(t, flaky, schema, ks, 3)
			func() {
				defer func() {
					if r := recover(); (r != nil) != panics {
						t.Fatalf("recovered %v, want a panic: %v", r, panics)
					}
				}()
				if err := rt.ExtendInto(0, value.NewRecordArena(schema, 0), 60, 1<<20); err == nil && !panics {
					t.Fatal("a failing row fetch did not fail the take")
				}
			}()
			type result struct {
				recs [][]byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				recs, err := takes(rt)
				done <- result{recs, err}
			}()
			select {
			case got := <-done:
				if got.err != nil {
					t.Fatalf("the retried take failed: %v", got.err)
				}
				for i := range want {
					if !bytes.Equal(got.recs[i], want[i]) {
						t.Errorf("take %d after the failed one returned different rows", i)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the router stayed locked after the failed take")
			}
		})
	}
}

// TestRoutedStratumUniformChiSquared is the property test of routing:
// rows routed to one stratum are uniform over that stratum. Row counts
// of a long take from the middle stratum are tested against the uniform
// expectation with Pearson's chi-squared (via internal/stats).
func TestRoutedStratumUniformChiSquared(t *testing.T) {
	src, schema := resumableRows(t, 1200)
	ks := rowBounds(t, src, schema, 400, 800)
	const take = 40_000
	ar := value.NewRecordArena(schema, take)
	if err := newRouter(t, src, schema, ks, 17).ExtendInto(1, ar, take, 1<<30); err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 400)
	for i := 0; i < ar.Len(); i++ {
		idx := rowIndex(t, ar.Rec(i))
		if idx < 400 || idx >= 800 {
			t.Fatalf("stratum 1 take produced row %d", idx)
		}
		counts[idx-400]++
	}
	x2, df := stats.ChiSquaredUniform(counts)
	if p := stats.ChiSquaredPValue(x2, df); p < 1e-3 {
		t.Fatalf("routed rows not uniform over their stratum: X² = %.1f (df %d), p = %g", x2, df, p)
	}
}

// TestRoutedTakeCapHolds checks the stream cap: a take from a near-empty
// stratum searches at most maxScan stream rows, returns the rows it found
// when the cap cuts it short, and fails with a clear error when it found
// none.
func TestRoutedTakeCapHolds(t *testing.T) {
	src, schema := resumableRows(t, 2000)
	ks := rowBounds(t, src, schema, 1990) // stratum 1: 10 of 2000 rows
	rt := newRouter(t, src, schema, ks, 5)
	ar := value.NewRecordArena(schema, 0)
	const maxScan = 1000 // about 5 stratum-1 rows expected
	before := streamRows(t)
	if err := rt.ExtendInto(1, ar, 100, maxScan); err != nil {
		t.Fatal(err)
	}
	if got := streamRows(t) - before; got != maxScan {
		t.Errorf("capped take drew %d stream rows, want %d", got, maxScan)
	}
	if ar.Len() == 0 || ar.Len() >= 100 {
		t.Errorf("capped take returned %d rows, want a short nonzero take", ar.Len())
	}
	err := rt.ExtendInto(1, ar, 5, 1)
	if got := streamRows(t) - before; got > maxScan+1 {
		t.Errorf("a one-row cap drew %d stream rows in total, want at most %d", got, maxScan+1)
	}
	if err != nil && !strings.Contains(err.Error(), "no row in 1 stream draws") {
		t.Errorf("empty capped take: %v", err)
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
	// Exact total: remainders go to the largest fractional parts, so the
	// allocation sums to the total whenever it covers every stratum.
	got = Allocate(10, []int64{1, 1, 1}, nil)
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("allocation %v does not sum to 10", got)
	}
	// A single stratum takes everything.
	got = Allocate(500, []int64{999}, nil)
	if got[0] != 500 {
		t.Errorf("single stratum allocated %d, want 500", got[0])
	}
	// Neyman: rows follow N_h·σ_h, not N_h.
	var a Allocator
	got = a.Neyman(100, []int64{500, 500}, []float64{0.01, 0.03})
	if got[0] != 25 || got[1] != 75 {
		t.Errorf("Neyman allocation = %v, want [25 75]", got)
	}
	// All-zero sigmas fall back to proportional.
	got = a.Neyman(100, []int64{750, 250}, []float64{0, 0})
	if got[0] != 75 || got[1] != 25 {
		t.Errorf("zero-sigma Neyman allocation = %v, want [75 25]", got)
	}
	var total int64
	for _, c := range a.Neyman(97, []int64{11, 700, 289}, []float64{0.4, 0.001, 0.2}) {
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
