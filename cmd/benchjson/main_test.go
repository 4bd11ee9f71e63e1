package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, doc document) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func allocs(n int64) *int64 { return &n }

// TestDiffAllocsExact pins the zero-alloc gate: a 1% allocs/op growth is
// far under the 25% threshold, but any growth at all fails a benchmark
// matched by -allocs-exact.
func TestDiffAllocsExact(t *testing.T) {
	base := writeBaseline(t, document{Results: []result{
		{Name: "BenchmarkEstimateSampleSizes/r=1000-8", NsPerOp: 1000, AllocsPerOp: allocs(100)},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, AllocsPerOp: allocs(100)},
	}})
	fresh := &document{Results: []result{
		{Name: "BenchmarkEstimateSampleSizes/r=1000-8", NsPerOp: 1000, AllocsPerOp: allocs(101)},
		{Name: "BenchmarkOther-8", NsPerOp: 1000, AllocsPerOp: allocs(101)},
	}}

	var out strings.Builder
	regressed, err := diff(&out, base, fresh, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("1%% allocs growth regressed without -allocs-exact:\n%s", out.String())
	}

	out.Reset()
	regressed, err = diff(&out, base, fresh, 0.25, regexp.MustCompile("BenchmarkEstimateSampleSizes"))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("allocs growth on matched benchmark did not regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ALLOCS-EXACT") {
		t.Fatalf("report missing ALLOCS-EXACT marker:\n%s", out.String())
	}
	if strings.Count(out.String(), "ALLOCS-EXACT") != 1 {
		t.Fatalf("unmatched benchmark also flagged:\n%s", out.String())
	}
}

// TestDiffAllocsExactUnchanged checks equal allocs/op pass the exact gate.
func TestDiffAllocsExactUnchanged(t *testing.T) {
	base := writeBaseline(t, document{Results: []result{
		{Name: "BenchmarkEstimateSampleSizes/r=1000-8", NsPerOp: 1000, AllocsPerOp: allocs(0)},
	}})
	fresh := &document{Results: []result{
		{Name: "BenchmarkEstimateSampleSizes/r=1000-16", NsPerOp: 1100, AllocsPerOp: allocs(0)},
	}}
	var out strings.Builder
	regressed, err := diff(&out, base, fresh, 0.25, regexp.MustCompile("BenchmarkEstimateSampleSizes"))
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("unchanged allocs regressed:\n%s", out.String())
	}
}

// TestParseBenchLine covers the custom-metric and -benchmem columns.
func TestParseBenchLine(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(
		"goos: linux\npkg: samplecf/internal/engine\n" +
			"BenchmarkX-8  100  250.5 ns/op  64 B/op  2 allocs/op  12.5 rows/est\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("parsed %d results", len(doc.Results))
	}
	r := doc.Results[0]
	if r.NsPerOp != 250.5 || *r.BytesPerOp != 64 || *r.AllocsPerOp != 2 || r.Extra["rows/est"] != 12.5 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Package != "samplecf/internal/engine" {
		t.Fatalf("package %q", r.Package)
	}
}

// TestParseFoldsRepeatedRuns: the lines `go test -count 3` prints for one
// benchmark fold into one entry — median ns/op and custom metrics, the
// largest B/op and allocs/op, summed iterations — and a benchmark run once
// beside them is left alone.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(
		"pkg: samplecf\n" +
			"BenchmarkEstimate/page  100  300 ns/op  64 B/op  16 allocs/op  2.0 rows/est\n" +
			"BenchmarkOnce  10  5 ns/op\n" +
			"BenchmarkEstimate/page  120  100 ns/op  80 B/op  17 allocs/op  4.0 rows/est\n" +
			"BenchmarkEstimate/page  110  200 ns/op  64 B/op  16 allocs/op  9.0 rows/est\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(doc.Results), doc.Results)
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkEstimate/page" || r.Iterations != 330 || r.NsPerOp != 200 ||
		*r.BytesPerOp != 80 || *r.AllocsPerOp != 17 || r.Extra["rows/est"] != 4 {
		t.Errorf("folded %+v (B/op %d, allocs/op %d), want 330 iterations, 200 ns/op, 80 B/op, 17 allocs/op, 4 rows/est",
			r, *r.BytesPerOp, *r.AllocsPerOp)
	}
	if once := doc.Results[1]; once.Name != "BenchmarkOnce" || once.Iterations != 10 || once.NsPerOp != 5 {
		t.Errorf("single run changed: %+v", once)
	}
}

// TestParseProcs covers the parallelism annotations: the per-result procs
// parsed from go test's "-N" name suffix (1 when a -cpu 1 run omits it)
// and the document-level GOMAXPROCS of the recording machine.
func TestParseProcs(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(
		"BenchmarkA-8  100  250.5 ns/op\n" +
			"BenchmarkB  100  99.5 ns/op\n" +
			"BenchmarkC/sub=2-16  100  10.0 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("parsed %d results", len(doc.Results))
	}
	for i, want := range []int{8, 1, 16} {
		if got := doc.Results[i].Procs; got != want {
			t.Errorf("result %d (%s): procs = %d, want %d", i, doc.Results[i].Name, got, want)
		}
	}
	if doc.GoMaxProcs < 1 {
		t.Errorf("document gomaxprocs = %d, want >= 1", doc.GoMaxProcs)
	}
}

// TestParseProcsNumberedSubBenchmark covers a sub-benchmark whose own name
// ends in "-N": at GOMAXPROCS=1 the ending is part of the name, and only a
// suffix shared by the whole family is the procs suffix.
func TestParseProcsNumberedSubBenchmark(t *testing.T) {
	cases := []struct {
		name      string
		input     string
		wantProcs []int
		wantKeys  []string
	}{{
		name: "no procs suffix",
		input: "pkg: samplecf/internal/engine\n" +
			"BenchmarkHotShardCacheHit/unsharded  100  540688 ns/op\n" +
			"BenchmarkHotShardCacheHit/sharded-4  100  157561 ns/op\n",
		wantProcs: []int{1, 1},
		wantKeys:  []string{"BenchmarkHotShardCacheHit/unsharded", "BenchmarkHotShardCacheHit/sharded-4"},
	}, {
		name: "procs suffix",
		input: "pkg: samplecf/internal/engine\n" +
			"BenchmarkHotShardCacheHit/unsharded-2  100  540688 ns/op\n" +
			"BenchmarkHotShardCacheHit/sharded-4-2  100  157561 ns/op\n",
		wantProcs: []int{2, 2},
		wantKeys:  []string{"BenchmarkHotShardCacheHit/unsharded", "BenchmarkHotShardCacheHit/sharded-4"},
	}, {
		name: "top-level names beside a numbered family",
		input: "pkg: samplecf/internal/engine\n" +
			"BenchmarkCacheHit-2  100  10.0 ns/op\n" +
			"BenchmarkHotShardCacheHit/unsharded  100  540688 ns/op\n" +
			"BenchmarkHotShardCacheHit/sharded-4  100  157561 ns/op\n",
		wantProcs: []int{2, 1, 1},
		wantKeys:  []string{"BenchmarkCacheHit", "BenchmarkHotShardCacheHit/unsharded", "BenchmarkHotShardCacheHit/sharded-4"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := parse(bufio.NewScanner(strings.NewReader(tc.input)))
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Results) != len(tc.wantProcs) {
				t.Fatalf("parsed %d results, want %d", len(doc.Results), len(tc.wantProcs))
			}
			for i, r := range doc.Results {
				if r.Procs != tc.wantProcs[i] {
					t.Errorf("%s: procs = %d, want %d", r.Name, r.Procs, tc.wantProcs[i])
				}
				if got := normalizeName(r); got != tc.wantKeys[i] {
					t.Errorf("%s: key %q, want %q", r.Name, got, tc.wantKeys[i])
				}
			}
		})
	}
}
