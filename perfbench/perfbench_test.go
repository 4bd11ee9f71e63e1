package main

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samplecf/internal/compress"
	"samplecf/internal/obs"
)

// stallServer answers every op after a short pause, except the one with
// index stallAt, which it holds for stall.
type stallServer struct {
	n       atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (f *stallServer) do(context.Context, *op) (int, []byte, string, error) {
	d := time.Millisecond
	if f.n.Add(1)-1 == f.stallAt {
		d = f.stall
	}
	time.Sleep(d)
	return 200, nil, "total;dur=1.0", nil
}

// TestOpenLoopChargesStallToLaterRequests pins the coordinated-omission
// fix: one stalled request on the only connection must raise the latency
// of the requests scheduled behind it, because each is timed from its
// intended send time, not from when the connection freed up.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	ops := make([]*op, 200)
	for i := range ops {
		ops[i] = &op{kind: opEstimate}
	}
	srv := &stallServer{stallAt: 20, stall: 300 * time.Millisecond}
	out, lag := openLoop(context.Background(), srv, ops, 200, 1)

	var intended, sent []float64
	for i := range out {
		intended = append(intended, out[i].latencyMs())
		sent = append(sent, ms(out[i].done.Sub(out[i].sent)))
	}
	q := quantileOf(intended, 99)
	if q.value < 100 {
		t.Errorf("p%.1f from intended send time = %.1fms, want ≥100ms after a 300ms stall", q.used, q.value)
	}
	// Timed from the actual send, only the stalled request is slow: the
	// omission the intended-time clock exists to avoid.
	if qs := quantileOf(sent, 99); qs.value >= 100 {
		t.Errorf("p%.1f from actual send = %.1fms, want the stall hidden (<100ms)", qs.used, qs.value)
	}
	if l := quantileOf(lag, 99).value; l > 50 {
		t.Errorf("dispatcher lag p99 = %.1fms: the generator itself fell behind", l)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 2000, want: 99, got: 99},
		{n: 1000, want: 99, got: 99},
		{n: 300, want: 99, got: 100 * (1 - 10.0/300)},
		{n: 300, want: 50, got: 50},
		{n: 20, want: 50, got: 50},
		{n: 15, want: 50, got: 100 * (1 - 10.0/15)},
		{n: 10, want: 99, got: 0},
	} {
		if got := supportedPct(tc.n, tc.want); math.Abs(got-tc.got) > 1e-9 {
			t.Errorf("supportedPct(%d, %g) = %g, want %g", tc.n, tc.want, got, tc.got)
		}
	}
	// The reported value keeps ≥10 samples strictly beyond it.
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q := quantileOf(xs, 99)
	beyond := 0
	for _, x := range xs {
		if x > q.value {
			beyond++
		}
	}
	if beyond < minBeyond || q.n != 300 {
		t.Errorf("p%g = %g leaves %d samples beyond it of %d", q.used, q.value, beyond, q.n)
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("total;dur=41.2, compress;dur=19.7, sort;desc=\"x\";dur=12.9")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"total": 41.2, "compress": 19.7, "sort": 12.9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if m, err := parseServerTiming(""); err != nil || len(m) != 0 {
		t.Errorf("empty header: %v, %v", m, err)
	}
	for _, bad := range []string{"total;dur=abc", ";dur=1"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("parseServerTiming(%q) accepted a malformed header", bad)
		}
	}
}

const expoBefore = `# HELP samplecf_http_rejected_total Requests rejected with 503.
# TYPE samplecf_http_rejected_total counter
samplecf_http_rejected_total 3
# TYPE samplecf_http_requests_total counter
samplecf_http_requests_total{route="estimate"} 10
samplecf_http_requests_total{route="tables"} 2
# TYPE samplecf_engine_stage_duration_seconds histogram
samplecf_engine_stage_duration_seconds_bucket{stage="draw",le="+Inf"} 7
`

const expoAfter = `# HELP samplecf_http_rejected_total Requests rejected with 503.
# TYPE samplecf_http_rejected_total counter
samplecf_http_rejected_total 5
samplecf_http_requests_total{route="estimate"} 42 1700000000000
samplecf_http_requests_total{route="tables"} 2
samplecf_engine_coalesced_waits_total 4
samplecf_engine_stage_duration_seconds_bucket{stage="draw",le="+Inf"} 9
`

func TestCounterDeltas(t *testing.T) {
	before, err := parseExposition(strings.NewReader(expoBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(expoAfter))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"samplecf_http_rejected_total":                                          2,
		`samplecf_http_requests_total{route="estimate"}`:                        32,
		`samplecf_http_requests_total{route="tables"}`:                          0,
		"samplecf_engine_coalesced_waits_total":                                 4, // registered mid-run
		`samplecf_engine_stage_duration_seconds_bucket{stage="draw",le="+Inf"}`: 2,
		"samplecf_never_registered_total":                                       0,
	} {
		if got := counterDelta(before, after, series); got != want {
			t.Errorf("delta(%s) = %g, want %g", series, got, want)
		}
	}
	if _, err := parseExposition(strings.NewReader("samplecf_x_total\n")); err == nil {
		t.Error("a series without a value was accepted")
	}
}

func TestMetricNameHygiene(t *testing.T) {
	for codec, want := range map[string]string{
		"pagedict+ns":      "pagedict-ns",
		"pagedict+bitpack": "pagedict-bitpack",
		"globaldict-p4":    "globaldict-p4",
	} {
		if got := codecMetricName(codec); got != want {
			t.Errorf("codecMetricName(%q) = %q, want %q", codec, got, want)
		}
	}
	var ms metricSet
	if err := ms.add("compress.pagedict+ns.mb_per_s", 1, "MB/s", ""); err == nil {
		t.Error("a name with '+' was accepted")
	}
	if err := ms.add("read p50", 1, "ms", ""); err == nil {
		t.Error("a name with a space was accepted")
	}
	if err := ms.add("read_p50_ms", 1, "ms", ""); err != nil {
		t.Fatal(err)
	}
	if err := ms.add("read_p50_ms", 2, "ms", ""); err == nil {
		t.Error("a duplicate name was accepted")
	}
	for _, c := range compress.Names() {
		if err := ms.add("compress."+codecMetricName(c)+".mb_per_s", 1, "MB/s", ""); err != nil {
			t.Errorf("registered codec %q: %v", c, err)
		}
	}
}

// TestSelfTimes pins the per-layer attribution: a span's self time is its
// duration minus the union of its children's intervals.
func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanInfo{
		{Name: "engine", Parent: -1, Start: 0, Dur: 100},
		{Name: "draw", Parent: 0, Start: 10, Dur: 20},
		{Name: "sort", Parent: 0, Start: 30, Dur: 20},
		{Name: "compress", Parent: 0, Start: 40, Dur: 30}, // overlaps sort by 10
		{Name: "db.insert", Parent: -1, Start: 200, Dur: 5},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"engine": 40, "sampling": 20, "sortkeys": 20, "compress": 30, "db": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}
