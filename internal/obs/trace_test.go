package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStartSpanUntracedIsNoop(t *testing.T) {
	ctx := context.Background()
	got, end := StartSpan(ctx, "draw")
	if got != ctx {
		t.Fatalf("untraced StartSpan returned a new context")
	}
	end.End() // must not panic
	if TraceFrom(ctx) != nil {
		t.Fatalf("TraceFrom on plain context non-nil")
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("estimate")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatalf("TraceFrom lost the trace")
	}

	ctx1, e1 := StartSpan(ctx, "draw")
	_, e2 := StartSpan(ctx1, "encode")
	time.Sleep(time.Millisecond)
	e2.End()
	e1.End()
	_, e3 := StartSpan(ctx, "sort")
	e3.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "draw" || spans[0].Parent != -1 {
		t.Fatalf("span 0 = %+v, want root draw", spans[0])
	}
	if spans[1].Name != "encode" || spans[1].Parent != 0 {
		t.Fatalf("span 1 = %+v, want encode child of 0", spans[1])
	}
	if spans[2].Name != "sort" || spans[2].Parent != -1 {
		t.Fatalf("span 2 = %+v, want root sort", spans[2])
	}
	if spans[0].Dur < spans[1].Dur {
		t.Fatalf("parent draw (%v) shorter than child encode (%v)", spans[0].Dur, spans[1].Dur)
	}
	if tr.Total() < spans[0].Dur {
		t.Fatalf("total %v shorter than draw %v", tr.Total(), spans[0].Dur)
	}
}

// TestRecordSpan checks a measured stage lands as a child of the current
// span with the given start and duration, and is a no-op untraced.
func TestRecordSpan(t *testing.T) {
	RecordSpan(context.Background(), "sort", time.Now(), time.Second) // must not panic
	tr := NewTrace("estimate")
	ctx, end := StartSpan(WithTrace(context.Background(), tr), "rounds")
	start := time.Now()
	RecordSpan(ctx, "sort", start, 3*time.Millisecond)
	end.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s := spans[1]
	if s.Name != "sort" || s.Parent != 0 || s.Dur != 3*time.Millisecond || s.Start < spans[0].Start {
		t.Fatalf("recorded span = %+v, want sort child of rounds lasting 3ms", s)
	}
}

func TestStageTotalsSortedDesc(t *testing.T) {
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	_, e := StartSpan(ctx, "fast")
	e.End()
	_, e = StartSpan(ctx, "slow")
	time.Sleep(2 * time.Millisecond)
	e.End()
	_, e = StartSpan(ctx, "fast")
	e.End()
	tr.Finish()

	totals := tr.StageTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d totals, want 2", len(totals))
	}
	if totals[0].Name != "slow" {
		t.Fatalf("longest stage = %q, want slow", totals[0].Name)
	}
}

func TestTraceJSONSchema(t *testing.T) {
	tr := NewTrace("whatif")
	ctx := WithTrace(context.Background(), tr)
	_, e := StartSpan(ctx, "draw")
	e.End()
	tr.Finish()

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name    string `json:"name"`
		TotalNs int64  `json:"total_ns"`
		Spans   []struct {
			Name    string `json:"name"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			DurNs   int64  `json:"dur_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON malformed: %v\n%s", err, raw)
	}
	if doc.Name != "whatif" || doc.TotalNs <= 0 || len(doc.Spans) != 1 {
		t.Fatalf("trace doc = %+v", doc)
	}
	if doc.Spans[0].Name != "draw" || doc.Spans[0].Parent != -1 || doc.Spans[0].DurNs < 0 {
		t.Fatalf("span doc = %+v", doc.Spans[0])
	}
}

func TestWriteTreeAndServerTiming(t *testing.T) {
	tr := NewTrace("estimate")
	ctx := WithTrace(context.Background(), tr)
	ctx1, e1 := StartSpan(ctx, "draw")
	_, e2 := StartSpan(ctx1, "encode rows") // space must sanitize in header
	e2.End()
	e1.End()
	tr.Finish()

	var sb strings.Builder
	tr.WriteTree(&sb)
	out := sb.String()
	for _, want := range []string{"estimate", "└─ draw", "└─ encode rows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}

	hdr := tr.ServerTimingHeader(3)
	if !strings.HasPrefix(hdr, "total;dur=") {
		t.Fatalf("header %q missing total", hdr)
	}
	if !strings.Contains(hdr, "draw;dur=") || !strings.Contains(hdr, "encode_rows;dur=") {
		t.Fatalf("header %q missing stages", hdr)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		_, e := StartSpan(ctx, "s")
		e.End()
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("recorded %d spans, want cap %d", got, maxSpans)
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"dropped_spans":10`) {
		t.Fatalf("dropped count missing from JSON")
	}
}

func TestNilTraceMethods(t *testing.T) {
	var tr *Trace
	tr.Finish()
	if tr.Total() != 0 || tr.Spans() != nil || tr.StageTotals() != nil {
		t.Fatalf("nil trace reported data")
	}
	if tr.ServerTimingHeader(3) != "" {
		t.Fatalf("nil trace produced a header")
	}
	var sb strings.Builder
	tr.WriteTree(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil trace wrote a tree")
	}
	raw, err := json.Marshal(tr)
	if err != nil || string(raw) != "null" {
		t.Fatalf("nil trace JSON = %s, %v", raw, err)
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Fatalf("WithTrace(nil) returned a new context")
	}
}
