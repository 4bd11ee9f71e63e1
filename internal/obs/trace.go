package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds one trace's span slice so a pathological request (an
// adaptive loop spinning thousands of rounds) cannot grow a trace without
// bound; spans past the cap are counted, not recorded.
const maxSpans = 1024

// Trace records the stage tree of one request: a flat slice of spans with
// parent indices, preallocated so that recording a span inside the engine
// costs two time reads and two slice writes — no allocation once the trace
// exists. A nil *Trace is the common case (untraced requests): every method
// and StartSpan on a context without a trace is a no-op.
type Trace struct {
	name  string
	start time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	total   time.Duration
}

// span is one recorded stage. Parent indexes into Trace.spans (-1 for
// roots); times are offsets from Trace.start so a span costs 24 bytes, not
// two time.Times.
type span struct {
	name    string
	parent  int32
	startNs int64
	durNs   int64
}

// NewTrace starts a trace for one request. The name labels the whole tree
// (the request route, or "cfest" for one-shot runs).
func NewTrace(name string) *Trace {
	return &Trace{
		name:  name,
		start: time.Now(),
		spans: make([]span, 0, 16),
	}
}

// Finish stamps the trace's total wall time. Idempotent in effect: later
// calls overwrite with a longer total, which only happens if the caller
// finishes twice anyway.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.start)
	t.mu.Unlock()
}

// Total returns the wall time stamped by Finish (elapsed-so-far before
// Finish is called).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total > 0 {
		return t.total
	}
	return time.Since(t.start)
}

// traceKey carries the active trace and current span index through
// context.Context.
type traceKey struct{}

// traceCtx is the context payload: the trace plus the index of the span
// that is the parent of any span started under this context.
type traceCtx struct {
	tr     *Trace
	parent int32
}

// WithTrace returns a context carrying tr; spans started under it become
// roots of tr's tree. A nil tr returns ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceCtx{tr: tr, parent: -1})
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc.tr
}

// SpanEnd closes a span started by StartSpan. The zero value (untraced
// path) is a no-op, so callers always `defer end.End()` unconditionally.
type SpanEnd struct {
	tr  *Trace
	idx int32
	// prev restores the goroutine's pprof label set at End; nil when no
	// labels were applied.
	prev context.Context
}

// StartSpan opens a named stage under ctx's current span and applies a
// pprof "stage" label to the goroutine so CPU profiles attribute samples
// to pipeline phases. When ctx carries no trace it returns ctx unchanged
// and a no-op SpanEnd — the zero-cost path every untraced estimate takes.
//
// The returned context must be used for child stages; End must be called
// on the same goroutine that called StartSpan (it restores the goroutine's
// previous pprof labels).
func StartSpan(ctx context.Context, name string) (context.Context, SpanEnd) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok || tc.tr == nil {
		return ctx, SpanEnd{}
	}
	tr := tc.tr
	tr.mu.Lock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		tr.mu.Unlock()
		return ctx, SpanEnd{}
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{
		name:    name,
		parent:  tc.parent,
		startNs: int64(time.Since(tr.start)),
		durNs:   -1,
	})
	tr.mu.Unlock()

	labeled := pprof.WithLabels(ctx, pprof.Labels("stage", name))
	pprof.SetGoroutineLabels(labeled)
	child := context.WithValue(labeled, traceKey{}, traceCtx{tr: tr, parent: idx})
	return child, SpanEnd{tr: tr, idx: idx, prev: ctx}
}

// End closes the span, recording its duration and restoring the
// goroutine's previous pprof labels. No-op on the zero SpanEnd.
func (e SpanEnd) End() {
	if e.tr == nil {
		return
	}
	e.tr.mu.Lock()
	s := &e.tr.spans[e.idx]
	if s.durNs < 0 {
		s.durNs = int64(time.Since(e.tr.start)) - s.startNs
	}
	e.tr.mu.Unlock()
	pprof.SetGoroutineLabels(e.prev)
}

// RecordSpan records an already-measured stage under ctx's current span:
// dur of work that ran inside that span, from start, without a span of its
// own (the index prepares an adaptive loop measures as it goes). It
// applies no pprof label. No-op without a trace.
func RecordSpan(ctx context.Context, name string, start time.Time, dur time.Duration) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok || tc.tr == nil {
		return
	}
	tr := tc.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, span{
		name:    name,
		parent:  tc.parent,
		startNs: int64(start.Sub(tr.start)),
		durNs:   int64(dur),
	})
}

// SpanInfo is one recorded span in exported form.
type SpanInfo struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index into the span list, -1 for roots
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Spans snapshots the recorded spans in start order. Unfinished spans
// report the elapsed time so far.
func (t *Trace) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := int64(time.Since(t.start))
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		d := s.durNs
		if d < 0 {
			d = now - s.startNs
		}
		out[i] = SpanInfo{Name: s.name, Parent: int(s.parent), Start: time.Duration(s.startNs), Dur: time.Duration(d)}
	}
	return out
}

// StageTotal is the aggregate time spent in one span name across a trace.
type StageTotal struct {
	Name string
	Dur  time.Duration
}

// StageTotals aggregates span durations by name, longest first — the input
// for the Server-Timing header and the -timing summary. Nested same-name
// spans each contribute, so totals are per-occurrence sums, not wall-clock
// unions.
func (t *Trace) StageTotals() []StageTotal {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	byName := make(map[string]time.Duration, 8)
	order := make([]string, 0, 8)
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] += s.Dur
	}
	out := make([]StageTotal, 0, len(order))
	for _, n := range order {
		out = append(out, StageTotal{Name: n, Dur: byName[n]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// traceJSON is the slow-request dump schema, documented in
// docs/observability.md.
type traceJSON struct {
	Name    string     `json:"name"`
	Start   time.Time  `json:"start"`
	TotalNs int64      `json:"total_ns"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// MarshalJSON renders the trace as the structured slow-request document:
// name, wall-clock start, total, and the flat parent-indexed span list.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	spans := t.Spans()
	t.mu.Lock()
	doc := traceJSON{
		Name:    t.name,
		Start:   t.start,
		TotalNs: int64(t.total),
		Dropped: t.dropped,
	}
	t.mu.Unlock()
	if doc.TotalNs == 0 {
		doc.TotalNs = int64(t.Total())
	}
	doc.Spans = make([]spanJSON, len(spans))
	for i, s := range spans {
		doc.Spans[i] = spanJSON{Name: s.Name, Parent: s.Parent, StartNs: int64(s.Start), DurNs: int64(s.Dur)}
	}
	return json.Marshal(doc)
}

// WriteTree renders the span tree as indented text — the cfest -timing
// output:
//
//	estimate                      41.2ms
//	├─ draw                        8.1ms
//	├─ sort                       12.9ms
//	└─ compress                   19.7ms
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil {
		return
	}
	spans := t.Spans()
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	fmt.Fprintf(w, "%-36s %12s\n", t.name, fmtDur(t.Total()))
	var walk func(parent int, prefix string)
	walk = func(parent int, prefix string) {
		kids := children[parent]
		for k, i := range kids {
			s := spans[i]
			branch, next := "├─ ", "│  "
			if k == len(kids)-1 {
				branch, next = "└─ ", "   "
			}
			label := prefix + branch + s.Name
			fmt.Fprintf(w, "%-36s %12s\n", label, fmtDur(s.Dur))
			walk(i, prefix+next)
		}
	}
	walk(-1, "")
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "(+%d spans dropped past cap)\n", dropped)
	}
}

// fmtDur rounds durations to a readable precision for the tree view.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}

// ServerTimingHeader formats the trace as a Server-Timing header value:
// the total plus the topN longest stages, e.g.
//
//	total;dur=41.2, compress;dur=19.7, sort;dur=12.9, draw;dur=8.1
//
// Durations are milliseconds per the Server-Timing spec. Stage names pass
// through a conservative token filter so the header stays parseable.
func (t *Trace) ServerTimingHeader(topN int) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total;dur=%.1f", float64(t.Total())/1e6)
	for i, st := range t.StageTotals() {
		if i >= topN {
			break
		}
		fmt.Fprintf(&b, ", %s;dur=%.1f", headerToken(st.Name), float64(st.Dur)/1e6)
	}
	return b.String()
}

// headerToken strips characters that are not valid in an HTTP token.
func headerToken(s string) string {
	valid := func(r rune) bool {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.'
	}
	for _, r := range s {
		if !valid(r) {
			var b strings.Builder
			for _, r := range s {
				if valid(r) {
					b.WriteRune(r)
				} else {
					b.WriteByte('_')
				}
			}
			return b.String()
		}
	}
	return s
}
