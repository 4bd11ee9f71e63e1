package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedPct returns the percentile to report in place of want for n
// samples: want itself when at least minBeyond samples lie beyond it,
// otherwise the highest percentile that keeps minBeyond beyond it (0 when
// n is too small for any).
func supportedPct(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	limit := 100 * (1 - float64(minBeyond)/float64(n))
	return math.Min(want, limit)
}

// pct is a nearest-rank percentile of an ascending sample.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quantile is a latency percentile as reported: the percentile actually
// used under the ≥minBeyond rule, its value, and the sample count.
type quantile struct {
	used, value float64
	n           int
}

// scaled returns q with its value multiplied by k.
func (q quantile) scaled(k float64) quantile {
	q.value *= k
	return q
}

func quantileOf(samples []float64, want float64) quantile {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	used := supportedPct(len(s), want)
	return quantile{used: used, value: pct(s, used), n: len(s)}
}

// iqm is the interquartile mean: the mean of the samples between the 25th
// and the 75th percentile. Where latencies mix two modes (a shard-cache
// hit or miss) whose shares sit near one half, the median jumps from one
// mode to the other between runs; the iqm moves smoothly with the shares.
func iqm(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	return quantileOf(xs, 50).value
}

// ratio is num/den with 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metricName is the benchmark's metric-name alphabet.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// codecMetricName maps a codec name onto the metric-name alphabet:
// "pagedict+ns" becomes "pagedict-ns".
func codecMetricName(codec string) string {
	return strings.ReplaceAll(codec, "+", "-")
}

// metric is one emitted measurement with its unit and base.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Base says what the value was computed from: a sample count, a
	// ratio's denominator, or the percentile used.
	Base string
	// Info marks a report-only metric: printed, but not part of the JSON
	// result the regression gate reads.
	Info bool
}

// metricSet collects emitted metrics in order and rejects names outside
// the alphabet or used twice.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (ms *metricSet) add(name string, v float64, unit, base string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
	}
	if ms.seen == nil {
		ms.seen = map[string]bool{}
	}
	if ms.seen[name] {
		return fmt.Errorf("metric %q emitted twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %q is %v", name, v)
	}
	ms.seen[name] = true
	ms.list = append(ms.list, metric{Name: name, Value: v, Unit: unit, Base: base})
	return nil
}

// info marks an emitted metric report-only.
func (ms *metricSet) info(names ...string) {
	for _, n := range names {
		for i := range ms.list {
			if ms.list[i].Name == n {
				ms.list[i].Info = true
			}
		}
	}
}

// addQuantile emits a percentile metric stating the percentile used.
func (ms *metricSet) addQuantile(name string, q quantile, unit string) error {
	if q.n == 0 {
		return fmt.Errorf("metric %q has no samples", name)
	}
	return ms.add(name, q.value, unit, fmt.Sprintf("p%s of %d", strconv.FormatFloat(q.used, 'f', -1, 64), q.n))
}

// parseServerTiming reads a Server-Timing header ("total;dur=41.2,
// compress;dur=19.7") into milliseconds per metric name.
func parseServerTiming(h string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(h) == "" {
		return out, nil
	}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("server-timing %q: empty metric name", h)
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(strings.Trim(strings.TrimSpace(v), `"`), 64)
			if err != nil {
				return nil, fmt.Errorf("server-timing %q: bad dur for %s: %w", h, name, err)
			}
			out[name] = d
		}
	}
	return out, nil
}

// parseExposition reads a Prometheus text exposition into one value per
// series, keyed by the series as written ("name" or `name{label="v"}`).
func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the series; label values may hold spaces, so
		// split at the last space after any closing brace.
		start := strings.LastIndexByte(line, '}') + 1
		sp := strings.IndexByte(line[start:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition line %q: no value", line)
		}
		series := line[:start+sp]
		fields := strings.Fields(line[start+sp:])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// counterDelta is after−before for one series; a series absent from a
// scrape (an instrument not yet registered) reads as 0.
func counterDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
