package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"samplecf/internal/distinct"
	"samplecf/internal/distrib"
	"samplecf/internal/rng"
	"samplecf/internal/sortkeys"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// stdSorter replays the pre-radix prepare stage's comparison sort (the old
// arenaSorter): the baseline BenchmarkPrepareSort measures the radix path
// against, kept here so the before/after pair stays in BENCH_engine.json.
type stdSorter struct {
	keys []byte
	w    int
	perm []int32
}

func (s *stdSorter) Len() int { return len(s.perm) }
func (s *stdSorter) Less(i, j int) bool {
	a := int(s.perm[i]) * s.w
	b := int(s.perm[j]) * s.w
	return bytes.Compare(s.keys[a:a+s.w], s.keys[b:b+s.w]) < 0
}
func (s *stdSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// benchKeyArena builds an r-row single-CHAR(width)-column arena with d
// distinct values, the prepare stage's input shape.
func benchKeyArena(b *testing.B, r int, width int, d int64, seed uint64) *value.RecordArena {
	b.Helper()
	schema, err := value.NewSchema(value.Column{Name: "k", Type: value.Char(width)})
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(seed)
	vals := make([][]byte, d)
	for i := range vals {
		v := make([]byte, 1+g.Intn(width))
		for j := range v {
			v[j] = byte('a' + g.Intn(26))
		}
		vals[i] = v
	}
	ar := value.NewRecordArena(schema, r)
	row := make(value.Row, 1)
	for i := 0; i < r; i++ {
		row[0] = vals[g.Intn(int(d))]
		if err := ar.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	return ar
}

// BenchmarkPrepareSort measures the prepare stage's sort+profile over the
// sample-size × key-width × duplication matrix, radix (sortkeys fused
// sort+profile) against the sort.Sort-plus-profiling-pass baseline it
// replaced. The acceptance bar is ≥2× ns/op at r=100k.
func BenchmarkPrepareSort(b *testing.B) {
	for _, r := range []int{1_000, 10_000, 100_000} {
		for _, shape := range []struct {
			name  string
			width int
		}{{"narrow", 8}, {"wide", 64}} {
			for _, dup := range []struct {
				name string
				d    func(r int) int64
			}{
				{"dup-heavy", func(r int) int64 { return int64(r / 64) }},
				{"unique", func(r int) int64 { return int64(r) }},
			} {
				d := dup.d(r)
				if d < 1 {
					d = 1
				}
				ar := benchKeyArena(b, r, shape.width, d, uint64(r)+uint64(shape.width))
				ident := make([]int32, r)
				for i := range ident {
					ident[i] = int32(i)
				}
				perm := make([]int32, r)
				prefix := fmt.Sprintf("r=%dk/%s/%s", r/1000, shape.name, dup.name)
				b.Run(prefix+"/stdsort", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(perm, ident)
						sort.Sort(&stdSorter{keys: ar.Keys(), w: ar.RowWidth(), perm: perm})
						benchFreqs = sortkeys.ProfileSorted(ar.Keys(), ar.RowWidth(), ar.RowWidth(), perm)
					}
				})
				b.Run(prefix+"/radix", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(perm, ident)
						benchFreqs = sortkeys.SortProfile(ar.Keys(), ar.RowWidth(), ar.RowWidth(), perm)
					}
				})
			}
		}
	}
}

// benchFreqs sinks profile results so the compiler cannot elide the pass.
var benchFreqs []distinct.FreqCount

// BenchmarkTrueCFParallel measures the sharded ground-truth computation
// (parallel scan+encode, radix sort, page compression) against the same
// pipeline pinned to one worker. On multi-core hosts the workers=max/
// workers=1 ratio is the sharding win; the acceptance bar is ≥3× at
// GOMAXPROCS ≥ 4.
func BenchmarkTrueCFParallel(b *testing.B) {
	tab := genTable(b, 200_000, 20_000, distrib.NewUniformLen(2, 18), 42)
	codec := mustCodec(b, "nullsuppression")
	scanMax := workgroup.Limit(int(tab.NumRows()) / trueCFShardRows)
	// Fixed sub-names (not the resolved width) so benchjson -diff matches
	// entries across hosts with different core counts; the realized scan
	// width is reported as a metric instead. workers=0 is the production
	// path: each stage sizes its own fan-out.
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			width := cfg.workers
			if width == 0 {
				width = scanMax
			}
			b.ReportMetric(float64(width), "workers")
			for i := 0; i < b.N; i++ {
				if _, err := trueCF(tab, nil, codec, 0, cfg.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
