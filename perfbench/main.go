// Command perfbench is the repository benchmark: it starts cfserve as a
// subprocess, registers the benchmark tables over loopback HTTP, drives
// one workload from a seeded open-loop schedule, checks every answer
// against an exact-CF oracle, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of an in-process traced replay). The
// last line of standard output is the JSON result. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"samplecf/internal/compress"
)

// config is one invocation.
type config struct {
	def      *workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	buildDir string
	cfserve  string
	conns    int
	codecs   []string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload: whatif-cold, adaptive-hot or live-churn")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		buildDir = flag.String("build-dir", ".bench_build", "directory holding the cfserve binary, logs and the oracle cache")
	)
	flag.Parse()
	def, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := &config{
		def: def, seed: *seed, seconds: *seconds, trace: *trace == 1,
		buildDir: *buildDir,
		cfserve:  filepath.Join(*buildDir, "cfserve"),
		conns:    runtime.NumCPU(),
		codecs:   compress.Names(),
	}
	if _, err := os.Stat(cfg.cfserve); err != nil {
		return fmt.Errorf("cfserve binary: %w", err)
	}
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		return err
	}
	return res.print(cfg)
}

// result is one run's outcome.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   metricSet
	notes     []string // report-only lines (metrics outside BENCHMARK.json, bases)
}

// tally counts attempts and failures and validates answers.
func (r *result) tally(samples []sample) {
	for i := range samples {
		s := &samples[i]
		r.attempted++
		if !s.ok() {
			r.failed++
			continue
		}
		ans, err := parseAnswers(s.op, s.body)
		if err != nil {
			r.fail(fmt.Sprintf("%s %s: %v", s.op.path, s.op.body, err))
		}
		s.answers = ans
	}
}

func (r *result) fail(problem string) {
	r.correct = false
	if len(r.problems) < 5 {
		r.problems = append(r.problems, problem)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// environment describes where the numbers were taken. Any value measured
// with more than one proc stays labelled as such.
func environment(cfg *config) string {
	serverProcs := fmt.Sprint(runtime.NumCPU())
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		serverProcs = v
	}
	return fmt.Sprintf("nproc=%d server_gomaxprocs=%s generator_gomaxprocs=%d go=%s seed=%d offered_rps=%g conns=%d seconds=%g",
		runtime.NumCPU(), serverProcs, runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.def.rate, cfg.conns, cfg.seconds)
}

// print writes the human-readable report and, last, the JSON result.
func (r *result) print(cfg *config) error {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced replay)"
	}
	fmt.Printf("perfbench %s seed=%d: %s\n", cfg.def.name, cfg.seed, mode)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %-34s %14s  %-7s %s\n", "metric", "value", "unit", "base")
	for _, m := range r.metrics.list {
		base := m.Base
		if m.Info {
			base += " [report only]"
		}
		fmt.Printf("  %-34s %14.4f  %-7s %s\n", m.Name, m.Value, m.Unit, base)
	}
	for _, p := range r.problems {
		fmt.Println("  INCORRECT: " + p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics.list {
		if !m.Info {
			out.Metrics[m.Name] = jm{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupRuns is how many times an end-to-end run sets the server up; the
// median is setup_s.
const setupRuns = 3

// openShare is the share of the measured seconds spent in the open-loop
// phase; the closed-loop capacity phase takes the rest, in closedSlices
// slices.
const (
	openShare    = 0.7
	closedSlices = 3
)

// runEndToEnd is the untraced run: set-up, warm-up, the open-loop phase
// (latency), the closed-loop phase (capacity), and the answer checks.
func runEndToEnd(cfg *config) (*result, error) {
	res := &result{correct: true}
	var truth oracle
	if !cfg.def.live {
		var err error
		if truth, err = ordersOracle(cfg.buildDir, cfg.codecs); err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // hand the oracle's table back before the server starts
	}
	// The speed probe runs while the server is idle: before the set-ups,
	// after the warm-up, and after the closed loop.
	speed := &speedProbe{}
	speed.measure()

	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, d, err := startServer(cfg.cfserve, filepath.Join(cfg.buildDir, "cfserve.log"), cfg.conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	if err := checkCodecs(srv, cfg.codecs); err != nil {
		return nil, err
	}
	ctx := context.Background()

	warm := newStream(cfg.def, cfg.seed, sidWarmup, cfg.codecs).warmup()
	warmSamples, _ := closedLoop(ctx, srv, listed(ptrs(warm)), cfg.conns, len(warm))
	res.tally(warmSamples)
	speed.measure()

	timed := newStream(cfg.def, cfg.seed, sidTimed, cfg.codecs)
	openSec := cfg.seconds * openShare
	ops := make([]*op, int(cfg.def.rate*openSec))
	for i := range ops {
		o := timed.next()
		ops[i] = &o
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	open, lag := openLoop(ctx, srv, ops, cfg.def.rate, cfg.conns)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The capacity phase runs in closedSlices equal slices and reports the
	// median slice rate, so one noisy stretch does not set the figure.
	var closed []sample
	var sliceRates []float64
	capacity := newStream(cfg.def, cfg.seed, sidCapacity, cfg.codecs)
	sliceOps := int(cfg.def.closedRate * (cfg.seconds - openSec) / closedSlices)
	for i := 0; i < closedSlices; i++ {
		part, elapsed := closedLoop(ctx, srv, func() *op { o := capacity.next(); return &o }, cfg.conns, sliceOps)
		var ok int
		for j := range part {
			if part[j].ok() {
				ok++
			}
		}
		sliceRates = append(sliceRates, float64(ok)/elapsed.Seconds())
		closed = append(closed, part...)
	}
	speed.measure()
	res.tally(open)
	res.tally(closed)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	acc := &accuracy{}
	var checked []sample
	if cfg.def.live {
		// The live table moved during the run: check a fixed ask set
		// against the mirrored final state instead.
		var inserted []*op
		for _, group := range [][]sample{warmSamples, open, closed} {
			inserted = append(inserted, acked(group, opInsert)...)
		}
		checkOps := newStream(cfg.def, cfg.seed, sidCheck, cfg.codecs).checkSet()
		checked, _ = closedLoop(ctx, srv, listed(ptrs(checkOps)), cfg.conns, len(checkOps))
		res.tally(checked)
		if truth, err = liveOracle(inserted, uniquePairs(checkOps)); err != nil {
			return nil, err
		}
	} else {
		checked = append(append(checked, open...), closed...)
	}
	for i := range checked {
		if err := acc.add(checked[i].op, checked[i].answers, truth); err != nil {
			return nil, err
		}
	}

	var reads, writes []float64
	for i := range open {
		if open[i].op.kind.isRead() {
			reads = append(reads, open[i].latencyMs())
		} else {
			writes = append(writes, open[i].latencyMs())
		}
	}
	// Times are stated at the reference speed (speed.go): multiplied by k,
	// and a rate divided by it. The *_raw_* figures are as measured.
	k := speed.scale()
	readP50, writeP50 := quantileOf(reads, 50), quantileOf(writes, 50)
	cpuMs := 1000 * (cpu1 - cpu0) / float64(len(open))
	m := &res.metrics
	errs := []error{
		m.addQuantile("read_p50_ms", readP50.scaled(k), "ms"),
		m.addQuantile("read_p99_ms", quantileOf(reads, 99).scaled(k), "ms"),
		m.addQuantile("write_p50_ms", writeP50.scaled(k), "ms"),
		m.addQuantile("write_p99_ms", quantileOf(writes, 99).scaled(k), "ms"),
		m.add("throughput_rps", median(sliceRates)/k, "1/s",
			fmt.Sprintf("median of %d closed-loop slices of %d ops, %d clients: %.1f raw", closedSlices, sliceOps, cfg.conns, sliceRates)),
		m.add("server_cpu_ms_per_op", k*cpuMs, "ms",
			fmt.Sprintf("server user+system CPU over %d open-loop requests", len(open))),
		m.add("cf_abs_err_pts", mean(acc.absErrPts), "pts", fmt.Sprintf("mean of %d answers", len(acc.absErrPts))),
		m.add("setup_s", k*median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))),
		m.add("rss_peak_mb", rss, "MB", "server VmHWM"),
		m.addQuantile("read_p50_raw_ms", readP50, "ms"),
		m.addQuantile("write_p50_raw_ms", writeP50, "ms"),
		m.add("server_cpu_raw_ms_per_op", cpuMs, "ms", "as measured"),
		m.add("setup_raw_s", median(setups), "s", "as measured"),
		m.add("speed.probe_ms", speed.ms(), "ms", fmt.Sprintf("median of %d probe bursts; times scaled by %g/probe = %.4f",
			len(speed.burstsMs), referenceProbeMs, k)),
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	// Tail latencies and wall-clock capacity swing by more than the
	// largest allowed bound between runs on a shared 2-vCPU box, so they
	// are reported but not gated (README.md, "Gated metrics").
	m.info("read_p99_ms", "write_p99_ms", "throughput_rps",
		"read_p50_raw_ms", "write_p50_raw_ms", "server_cpu_raw_ms_per_op", "setup_raw_s", "speed.probe_ms")
	res.note("env %s", environment(cfg))
	res.note("error_rate %.6f (%d failed of %d attempted)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if acc.adaptive > 0 {
		res.note("ci_miss_rate %.4f (%d of %d adaptive answers miss the exact CF)", ratio(float64(acc.ciMisses), float64(acc.adaptive)), acc.ciMisses, acc.adaptive)
	} else {
		res.note("ci_miss_rate n/a (no adaptive answers)")
	}
	res.note("rows_per_answer %.1f (mean sample_rows of %d computed answers)", mean(acc.computedRows), len(acc.computedRows))
	res.note("loadgen.lag_ms_p99 %.3f (%d sends)", quantileOf(lag, 99).value, len(lag))
	return res, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func ptrs(ops []op) []*op {
	out := make([]*op, len(ops))
	for i := range ops {
		out[i] = &ops[i]
	}
	return out
}

// acked returns the ops of kind k the server answered with 2xx.
func acked(samples []sample, k opKind) []*op {
	var out []*op
	for i := range samples {
		if samples[i].ok() && samples[i].op.kind == k {
			out = append(out, samples[i].op)
		}
	}
	return out
}

// uniquePairs returns the distinct (columns, codec) pairs of ops' asks.
func uniquePairs(ops []op) []ask {
	seen := map[string]bool{}
	var out []ask
	for _, o := range ops {
		for _, a := range o.asks {
			if k := truthKey(a.Cols, a.Codec); !seen[k] {
				seen[k] = true
				out = append(out, ask{Cols: a.Cols, Codec: a.Codec})
			}
		}
	}
	return out
}

// checkCodecs fails when the server's codec registry differs from the
// one linked into the benchmark (the oracle and probes use the latter).
func checkCodecs(srv *server, want []string) error {
	got, err := srv.codecs()
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("server codecs %s differ from the benchmark's %s", strings.Join(got, ","), strings.Join(want, ","))
	}
	return nil
}
