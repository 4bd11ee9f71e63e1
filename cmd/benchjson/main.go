// Command benchjson converts `go test -bench` text output on stdin into
// a JSON document on stdout, so benchmark results can be archived as
// machine-readable artifacts (see `make bench`, which writes
// BENCH_engine.json) and diffed across commits to track the perf
// trajectory of the hot paths.
//
//	go test -bench . -benchmem -run '^$' ./... | benchjson > BENCH.json
//
// With -diff, the fresh run on stdin is compared against a committed
// baseline instead of re-emitted: every benchmark present in both gets a
// ns/op and allocs/op delta report on stdout, and the exit status is 1 if
// any regresses by more than -threshold (default 25%). `make bench-diff`
// wires this against BENCH_engine.json; CI runs it as a non-blocking
// report step (single-iteration CI runs are too noisy to gate merges on).
//
//	go test -bench . -benchmem -run '^$' ./... | benchjson -diff BENCH_engine.json
//
// -allocs-exact REGEX tightens the allocation gate for matching benchmarks:
// any allocs/op growth at all fails, regardless of -threshold. `make
// bench-diff` applies it to BenchmarkEstimateSampleSizes and
// BenchmarkEstimate, whose allocation counts are a contract of the
// estimation hot path.
//
// Repeated lines of one benchmark (`go test -count N`) fold into one entry:
// the median ns/op and custom metrics, the largest B/op and allocs/op, and
// the summed iterations. A median over a few runs damps the single-run
// noise a shared box adds to ns/op; the maximum keeps the allocation gate
// from passing on a lucky run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Procs is the GOMAXPROCS the benchmark ran under, parsed from the
	// "-N" name suffix go test appends (1 when absent; see markProcs).
	// Name keeps the suffix as printed. Concurrency benchmarks mean
	// nothing without it — a regression report comparing a -cpu 1 run
	// against a -cpu 8 baseline is comparing different machines.
	Procs int `json:"procs"`
	// BytesPerOp/AllocsPerOp are present with -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom metrics (b.ReportMetric), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// document is the full output.
type document struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GoMaxProcs records the recording machine's GOMAXPROCS (benchjson runs
	// in the same pipeline, on the same box, as the `go test -bench` whose
	// output it parses), so an archived baseline names the parallelism
	// environment it was measured in.
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Results    []result `json:"results"`
}

func main() {
	var (
		diffPath    = flag.String("diff", "", "baseline JSON to compare the fresh run against (report mode)")
		threshold   = flag.Float64("threshold", 0.25, "relative ns/op or allocs/op growth that counts as a regression in -diff mode")
		allocsExact = flag.String("allocs-exact", "", "regexp of benchmarks whose allocs/op must not grow AT ALL in -diff mode (zero-alloc guarantees; the ns/op threshold still applies)")
	)
	flag.Parse()

	var exactRe *regexp.Regexp
	if *allocsExact != "" {
		re, err := regexp.Compile(*allocsExact)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -allocs-exact: %v\n", err)
			os.Exit(1)
		}
		exactRe = re
	}

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *diffPath != "" {
		regressed, err := diff(os.Stdout, *diffPath, doc, *threshold, exactRe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// trailingNumber matches a "-N" name ending: go test's GOMAXPROCS suffix,
// or part of a sub-benchmark's own name ("sharded-4").
var trailingNumber = regexp.MustCompile(`-(\d+)$`)

// normalizeName is the name a result is matched on across runs: the
// benchmark name without its GOMAXPROCS suffix, so baselines recorded on
// machines with different core counts still line up. Documents that carry
// no procs (0) fall back to stripping any trailing "-N".
func normalizeName(r result) string {
	switch {
	case r.Procs > 1:
		return strings.TrimSuffix(r.Name, "-"+strconv.Itoa(r.Procs))
	case r.Procs == 1:
		return r.Name
	default:
		return trailingNumber.ReplaceAllString(r.Name, "")
	}
}

// markProcs sets each result's Procs from its name. go test appends
// "-N" to every line it prints for a run at GOMAXPROCS N ≠ 1, and a
// top-level benchmark name cannot itself contain "-", so a trailing "-N"
// there is always the suffix. A sub-benchmark's own name may end in "-N",
// though, so there the ending counts as the suffix only when every line of
// the same family (top-level benchmark, same package) ends in the same
// "-N": "BenchmarkHotShardCacheHit/sharded-4" beside an "unsharded"
// sibling ran at procs 1. (Under a multi-value -cpu list a sub-benchmark
// family mixes endings and is recorded at procs 1.)
func markProcs(results []result) {
	type family struct{ pkg, name string }
	familyOf := func(r result) family {
		top, _, _ := strings.Cut(r.Name, "/")
		return family{r.Package, trailingNumber.ReplaceAllString(top, "")}
	}
	ending := func(r result) string {
		if m := trailingNumber.FindStringSubmatch(r.Name); m != nil {
			return m[1]
		}
		return ""
	}
	// shared maps a family to the ending all its lines agree on ("" when
	// they disagree or carry none).
	shared := make(map[family]string)
	seen := make(map[family]bool)
	for _, r := range results {
		f, e := familyOf(r), ending(r)
		if !seen[f] {
			seen[f], shared[f] = true, e
		} else if shared[f] != e {
			shared[f] = ""
		}
	}
	for i := range results {
		r := &results[i]
		r.Procs = 1
		e := ending(*r)
		if e == "" || (strings.Contains(r.Name, "/") && shared[familyOf(*r)] != e) {
			continue
		}
		if p, err := strconv.Atoi(e); err == nil && p > 0 {
			r.Procs = p
		}
	}
}

// diff compares the fresh results against the baseline document at path and
// reports per-benchmark deltas. It returns true when any benchmark's ns/op
// or allocs/op grew by more than threshold, or — for benchmarks matching
// exactRe — when allocs/op grew at all (the zero-alloc contract).
func diff(w io.Writer, path string, fresh *document, threshold float64, exactRe *regexp.Regexp) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	baseBy := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseBy[normalizeName(r)] = r
	}

	type line struct {
		name      string
		text      string
		regressed bool
	}
	var lines []line
	regressed := false
	for _, cur := range fresh.Results {
		name := normalizeName(cur)
		old, ok := baseBy[name]
		if !ok {
			lines = append(lines, line{name: name, text: fmt.Sprintf("%-55s NEW  %12.0f ns/op", name, cur.NsPerOp)})
			continue
		}
		nsDelta := relDelta(old.NsPerOp, cur.NsPerOp)
		text := fmt.Sprintf("%-55s ns/op %12.0f -> %12.0f (%+6.1f%%)", name, old.NsPerOp, cur.NsPerOp, 100*nsDelta)
		bad := nsDelta > threshold
		if old.AllocsPerOp != nil && cur.AllocsPerOp != nil {
			aDelta := relDelta(float64(*old.AllocsPerOp), float64(*cur.AllocsPerOp))
			text += fmt.Sprintf("  allocs %8d -> %8d (%+6.1f%%)", *old.AllocsPerOp, *cur.AllocsPerOp, 100*aDelta)
			bad = bad || aDelta > threshold
			if exactRe != nil && exactRe.MatchString(name) && *cur.AllocsPerOp > *old.AllocsPerOp {
				text += "  ALLOCS-EXACT"
				bad = true
			}
		}
		if bad {
			text += "  REGRESSION"
			regressed = true
		}
		lines = append(lines, line{name: name, text: text, regressed: bad})
	}
	slices.SortFunc(lines, func(a, b line) int { return strings.Compare(a.name, b.name) })
	for _, l := range lines {
		fmt.Fprintln(w, l.text)
	}
	if regressed {
		fmt.Fprintf(w, "\nFAIL: at least one benchmark regressed >%.0f%% vs %s\n", 100*threshold, path)
	} else {
		fmt.Fprintf(w, "\nOK: no benchmark regressed >%.0f%% vs %s\n", 100*threshold, path)
	}
	return regressed, nil
}

// relDelta returns (new-old)/old, treating a zero baseline as no change.
func relDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// parse consumes go test -bench output line by line.
func parse(sc *bufio.Scanner) (*document, error) {
	doc := &document{GoMaxProcs: runtime.GOMAXPROCS(0), Results: []result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			r.Package = pkg
			doc.Results = append(doc.Results, r)
		}
	}
	doc.Results = fold(doc.Results)
	markProcs(doc.Results)
	return doc, sc.Err()
}

// fold merges the repeated results of each benchmark (same package and
// name, as `go test -count N` prints them) into one, in first-appearance
// order: median ns/op and custom metrics, maximum B/op and allocs/op,
// summed iterations.
func fold(results []result) []result {
	type key struct{ pkg, name string }
	groups := make(map[key][]result)
	var order []key
	for _, r := range results {
		k := key{r.Package, r.Name}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]result, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		r := runs[0]
		if len(runs) > 1 {
			r.Iterations = 0
			ns := make([]float64, len(runs))
			for i, run := range runs {
				r.Iterations += run.Iterations
				ns[i] = run.NsPerOp
				r.BytesPerOp = maxPtr(r.BytesPerOp, run.BytesPerOp)
				r.AllocsPerOp = maxPtr(r.AllocsPerOp, run.AllocsPerOp)
			}
			r.NsPerOp = median(ns)
			if r.Extra != nil {
				extra := make(map[string]float64, len(r.Extra))
				for unit := range r.Extra {
					vals := make([]float64, 0, len(runs))
					for _, run := range runs {
						if v, ok := run.Extra[unit]; ok {
							vals = append(vals, v)
						}
					}
					extra[unit] = median(vals)
				}
				r.Extra = extra
			}
		}
		out = append(out, r)
	}
	return out
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count). vals is reordered.
func median(vals []float64) float64 {
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// maxPtr returns the larger of two optional counts.
func maxPtr(a, b *int64) *int64 {
	if a == nil || (b != nil && *b > *a) {
		return b
	}
	return a
}

// parseBenchLine parses one "BenchmarkX-8  N  V unit  [V unit ...]" line.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	// The remainder alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := int64(v)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			r.AllocsPerOp = &a
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}
