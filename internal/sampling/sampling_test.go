package sampling

import (
	"fmt"
	"math"
	"testing"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// intRows builds n single-column rows holding int32 row numbers.
func intRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.IntValue(int32(i))}
	}
	return rows
}

func rowID(r value.Row) int { return int(value.DecodeInt32(r[0])) }

// intSchema is the schema of intRows.
var intSchema = value.MustSchema(value.Column{Name: "id", Type: value.Int32()})

// uniformWR draws r rows of src with UniformWRInto and decodes them back.
func uniformWR(src RowSource, r int64, g *rng.RNG) ([]value.Row, error) {
	return drawRows(UniformWRInto, src, r, g)
}

// uniformWOR draws r rows of src with UniformWORInto and decodes them back.
func uniformWOR(src RowSource, r int64, g *rng.RNG) ([]value.Row, error) {
	return drawRows(UniformWORInto, src, r, g)
}

// drawRows runs one arena draw over intRows and decodes the sample.
func drawRows(draw func(RowSource, int64, *rng.RNG, *value.RecordArena) error,
	src RowSource, r int64, g *rng.RNG) ([]value.Row, error) {
	ar := value.NewRecordArena(intSchema, int(max(r, 0)))
	if err := draw(src, r, g, ar); err != nil {
		return nil, err
	}
	rows := make([]value.Row, ar.Len())
	for i := range rows {
		var err error
		if rows[i], err = ar.Row(i); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func TestUniformWRSizeAndRange(t *testing.T) {
	src := SliceSource(intRows(100))
	g := rng.New(1)
	s, err := uniformWR(src, 500, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 500 {
		t.Fatalf("sample size %d", len(s))
	}
	for _, row := range s {
		if id := rowID(row); id < 0 || id >= 100 {
			t.Fatalf("sampled id %d out of range", id)
		}
	}
	// With replacement and r > n, duplicates are certain.
	seen := map[int]int{}
	for _, row := range s {
		seen[rowID(row)]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("WR sample of 500 from 100 has no duplicates")
	}
}

func TestUniformWRUniformity(t *testing.T) {
	const n = 20
	src := SliceSource(intRows(n))
	g := rng.New(2)
	counts := make([]int, n)
	const draws = 40000
	s, err := uniformWR(src, draws, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s {
		counts[rowID(row)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("row %d drawn %d times, want ≈%.0f", i, c, want)
		}
	}
}

func TestUniformWREmptySource(t *testing.T) {
	if _, err := uniformWR(SliceSource(nil), 5, rng.New(1)); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestUniformWORDistinct(t *testing.T) {
	const n = 200
	src := SliceSource(intRows(n))
	g := rng.New(3)
	s, err := uniformWOR(src, 50, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 50 {
		t.Fatalf("size %d", len(s))
	}
	seen := map[int]bool{}
	for _, row := range s {
		id := rowID(row)
		if seen[id] {
			t.Fatalf("duplicate id %d in WOR sample", id)
		}
		seen[id] = true
	}
	// Full sample = permutation of everything.
	full, err := uniformWOR(src, n, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n {
		t.Fatalf("full WOR size %d", len(full))
	}
	seen = map[int]bool{}
	for _, row := range full {
		seen[rowID(row)] = true
	}
	if len(seen) != n {
		t.Fatalf("full WOR covered %d of %d", len(seen), n)
	}
	if _, err := uniformWOR(src, n+1, g); err == nil {
		t.Fatal("r > n accepted")
	}
}

func TestUniformWORInclusionProbability(t *testing.T) {
	// Each row must appear with probability r/n.
	const n = 30
	const r = 10
	const trials = 6000
	src := SliceSource(intRows(n))
	g := rng.New(4)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s, err := uniformWOR(src, r, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range s {
			counts[rowID(row)]++
		}
	}
	want := float64(trials) * r / n
	sd := math.Sqrt(want * (1 - float64(r)/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*sd {
			t.Errorf("row %d included %d times, want ≈%.0f", i, c, want)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	const n = 50000
	g := rng.New(5)
	s, err := Bernoulli(NewSliceStream(intRows(n)), 0.1, g)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 * n
	if math.Abs(float64(len(s))-want) > 5*math.Sqrt(want) {
		t.Fatalf("bernoulli sample size %d, want ≈%.0f", len(s), want)
	}
	if _, err := Bernoulli(NewSliceStream(nil), 1.5, g); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestReservoirAlgorithms(t *testing.T) {
	const n = 5000
	const r = 100
	for name, fn := range map[string]func(Stream, int, *rng.RNG) ([]value.Row, error){
		"R": ReservoirR,
		"X": ReservoirX,
	} {
		t.Run(name, func(t *testing.T) {
			g := rng.New(6)
			s, err := fn(NewSliceStream(intRows(n)), r, g)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) != r {
				t.Fatalf("reservoir size %d", len(s))
			}
			seen := map[int]bool{}
			for _, row := range s {
				id := rowID(row)
				if id < 0 || id >= n || seen[id] {
					t.Fatalf("bad or duplicate id %d", id)
				}
				seen[id] = true
			}
			// Short stream: reservoir returns everything.
			short, err := fn(NewSliceStream(intRows(10)), r, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if len(short) != 10 {
				t.Fatalf("short stream reservoir %d", len(short))
			}
			if _, err := fn(NewSliceStream(nil), 0, rng.New(8)); err == nil {
				t.Fatal("r=0 accepted")
			}
		})
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Every row should land in the reservoir with probability r/n.
	const n = 40
	const r = 10
	const trials = 8000
	for name, fn := range map[string]func(Stream, int, *rng.RNG) ([]value.Row, error){
		"R": ReservoirR,
		"X": ReservoirX,
	} {
		t.Run(name, func(t *testing.T) {
			g := rng.New(9)
			counts := make([]int, n)
			for trial := 0; trial < trials; trial++ {
				s, err := fn(NewSliceStream(intRows(n)), r, g)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range s {
					counts[rowID(row)]++
				}
			}
			want := float64(trials) * r / n
			sd := math.Sqrt(want * (1 - float64(r)/n))
			for i, c := range counts {
				if math.Abs(float64(c)-want) > 5*sd {
					t.Errorf("row %d in reservoir %d times, want ≈%.0f", i, c, want)
				}
			}
		})
	}
}

// pageSliceSource groups rows into fixed-size pages.
type pageSliceSource struct {
	rows    []value.Row
	perPage int
}

func (p pageSliceSource) NumPages() int {
	return (len(p.rows) + p.perPage - 1) / p.perPage
}

func (p pageSliceSource) PageRows(i int) ([]value.Row, error) {
	start := i * p.perPage
	if start >= len(p.rows) {
		return nil, fmt.Errorf("page %d out of range", i)
	}
	end := start + p.perPage
	if end > len(p.rows) {
		end = len(p.rows)
	}
	return p.rows[start:end], nil
}

func TestBlockSample(t *testing.T) {
	ps := pageSliceSource{rows: intRows(1000), perPage: 50}
	g := rng.New(10)
	s, err := BlockSample(ps, 4, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 200 {
		t.Fatalf("block sample size %d, want 200", len(s))
	}
	// Rows arrive in whole-page groups: ids within a group are consecutive.
	pagesSeen := map[int]bool{}
	for i := 0; i < len(s); i += 50 {
		base := rowID(s[i])
		if base%50 != 0 {
			t.Fatalf("group at %d starts mid-page (id %d)", i, base)
		}
		for j := 0; j < 50; j++ {
			if rowID(s[i+j]) != base+j {
				t.Fatalf("group at %d not contiguous", i)
			}
		}
		if pagesSeen[base/50] {
			t.Fatalf("page %d sampled twice", base/50)
		}
		pagesSeen[base/50] = true
	}
	if _, err := BlockSample(ps, 21, g); err == nil {
		t.Fatal("too many pages accepted")
	}
}

func TestSampleSize(t *testing.T) {
	cases := []struct {
		n    int64
		f    float64
		want int64
	}{
		{100, 0.01, 1},
		{1000, 0.01, 10},
		{1000, 0.0001, 1}, // clamped to 1
		{0, 0.5, 0},
		{1000, 0, 0},
		{100_000_000, 0.01, 1_000_000}, // Example 1
	}
	for _, c := range cases {
		if got := SampleSize(c.n, c.f); got != c.want {
			t.Errorf("SampleSize(%d,%v) = %d, want %d", c.n, c.f, got, c.want)
		}
	}
}

func TestSliceSourceBounds(t *testing.T) {
	src := SliceSource(intRows(3))
	if _, err := src.Row(3); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := src.Row(-1); err == nil {
		t.Fatal("negative accepted")
	}
}

func BenchmarkUniformWR(b *testing.B) {
	src := SliceSource(intRows(1_000_000))
	g := rng.New(1)
	ar := value.NewRecordArena(intSchema, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		if err := UniformWRInto(src, 1000, g, ar); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReservoirX(b *testing.B) {
	rows := intRows(100_000)
	g := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReservoirX(NewSliceStream(rows), 1000, g); err != nil {
			b.Fatal(err)
		}
	}
}
