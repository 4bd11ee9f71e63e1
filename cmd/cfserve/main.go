// Command cfserve is the long-running what-if estimation service: SampleCF
// behind HTTP/JSON, backed by the concurrent estimation engine (worker
// pool, shared-sample batching, epoch-keyed LRU result cache) and the
// embedded storage engine for live, mutable tables. It is the shape a
// physical-design tool's estimation tier takes in production — many
// concurrent clients asking "how big would this index be under that
// codec?" against tables that keep changing underneath them.
//
// Start it, register a table, and ask:
//
//	cfserve -addr :8080 -demo
//	curl localhost:8080/tables
//	curl -X POST localhost:8080/whatif -d '{
//	  "table": "demo",
//	  "candidates": [
//	    {"columns": ["region"], "codec": "nullsuppression"},
//	    {"columns": ["region"], "codec": "pagedict+ns"}
//	  ],
//	  "fraction": 0.01, "seed": 42
//	}'
//
// Tables registered with "live": true are materialized in the embedded
// storage engine (heap pages, version epochs, a maintained sample) and
// accept mutations:
//
//	curl -X POST localhost:8080/tables/sales/rows -d '{"rows": [["west", 7]]}'
//	curl -X DELETE localhost:8080/tables/sales/rows -d '{"column": "region", "equals": "west"}'
//
// Estimates always reflect the current epoch: a mutation invalidates
// cached results for that table in O(1) (the epoch in the cache key
// changes), while untouched tables keep serving hits.
//
// Endpoints: GET /healthz, /stats, /metrics, /codecs, /tables; POST
// /tables, /tables/{t}/rows, /estimate, /whatif, /advise; DELETE
// /tables/{t}, /tables/{t}/rows. See docs/cfserve.md for the full API.
// Every response carries X-Request-ID and a Server-Timing header; requests
// slower than -slow-trace dump their span tree as structured trace JSON.
// The server drains in-flight requests and exits cleanly on SIGINT/SIGTERM,
// and takes the same path when it is orphaned: a parent that dies without
// stopping it (a killed benchmark driver or supervisor) would otherwise
// leave it serving forever.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"samplecf/internal/engine"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "cfserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole service lifecycle: flags, engine, listener, drain. It
// takes its argv and an optional ready channel (sent the bound address
// once the listener is up) so the shutdown e2e test can run the real
// main path — signal handling included — inside the test process.
func run(args []string, ready chan<- net.Addr) error {
	ppid := os.Getppid()
	fs := flag.NewFlagSet("cfserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "estimation worker goroutines (0 = GOMAXPROCS)")
		cache        = fs.Int("cache", 1024, "LRU result cache entries (negative disables)")
		demo         = fs.Bool("demo", false, "preload a demo table named \"demo\"")
		drain        = fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		maxRows      = fs.Int64("max-rows", defaultMaxTableRows, "per-table row limit for POST /tables")
		maxInflight  = fs.Int("max-inflight", 0, "reject non-ops requests beyond this many in flight with 503 (0 = unlimited)")
		pprofMode    = fs.String("pprof", "local", "/debug/pprof/ exposure: local (loopback clients only), all, or off")
		mutexFrac    = fs.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 disables; inert with -pprof off)")
		blockRate    = fs.Int("block-profile-rate", 0, "sample blocking events of at least n ns for /debug/pprof/block (0 disables; inert with -pprof off)")
		slowTrace    = fs.Duration("slow-trace", time.Second, "dump the span tree of requests at least this slow as trace JSON (0 disables)")
		logJSON      = fs.Bool("log-json", false, "emit the access log as JSON lines instead of logfmt-style text")
		allowPartial = fs.Bool("allow-partial", false, "serve degraded estimates from surviving shards when some shards fail (per-request allow_partial overrides off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *pprofMode {
	case "local", "all", "off":
	default:
		return fmt.Errorf("invalid -pprof %q (want local, all, or off)", *pprofMode)
	}
	// Contention profiling piggybacks on the -pprof gate: the runtime
	// samplers cost a little on every contended lock, so they only arm when
	// the endpoint that can read them is actually exposed.
	if *pprofMode != "off" {
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
	}
	eng := engine.New(engine.Config{Workers: *workers, CacheEntries: *cache})
	defer eng.Close()
	srv := newServer(eng)
	srv.pprofMode = *pprofMode
	srv.maxInflight = *maxInflight
	srv.slowTrace = *slowTrace
	srv.allowPartial = *allowPartial
	if *logJSON {
		srv.logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		srv.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *maxRows > 0 {
		srv.maxTableRows = *maxRows
	}
	if *demo {
		t, err := buildTable(demoSpec())
		if err != nil {
			return fmt.Errorf("demo table: %w", err)
		}
		if err := srv.register(t); err != nil {
			return err
		}
		log.Printf("registered demo table %q (%d rows)", t.Name(), t.NumRows())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, orphaned := context.WithCancelCause(ctx)
	defer orphaned(nil)
	go watchParent(ctx, ppid, parentPoll, orphaned)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("cfserve listening on %s (workers=%d, cache capacity %d)", ln.Addr(), *workers, *cache)
	if ready != nil {
		ready <- ln.Addr()
	}

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	reason := "signal received"
	if err := context.Cause(ctx); errors.Is(err, errOrphaned) {
		reason = err.Error()
	}
	log.Printf("%s; draining for up to %v", reason, *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("drained cleanly")
	return <-errCh
}

// parentPoll is how often watchParent checks the parent pid.
const parentPoll = 500 * time.Millisecond

// errOrphaned is the cancellation cause watchParent reports.
var errOrphaned = errors.New("parent process exited")

// watchParent cancels ctx with errOrphaned once the process's parent pid
// differs from ppid, the pid read at start: the parent died and the
// process was re-parented. A start-up parent of pid 1 (init, or a
// container's entrypoint) is not watched, since re-parenting cannot be
// told from it. The watch ends with ctx.
func watchParent(ctx context.Context, ppid int, every time.Duration, cancel context.CancelCauseFunc) {
	if ppid == 1 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if os.Getppid() != ppid {
				cancel(fmt.Errorf("%w (was pid %d)", errOrphaned, ppid))
				return
			}
		}
	}
}

// demoSpec is the table -demo preloads: skewed strings plus a narrow int,
// the mix the paper's experiments use.
func demoSpec() tableSpecJSON {
	return tableSpecJSON{
		Name: "demo", N: 100_000, Seed: 1,
		Cols: []columnSpecJSON{
			{Name: "region", Type: "char:24", Dist: "uniform:50", Len: "uniform:4:12", Seed: 1},
			{Name: "product", Type: "char:40", Dist: "zipf:8000:0.7", Len: "uniform:10:30", Seed: 2},
			{Name: "qty", Type: "int32", Dist: "uniform:500"},
		},
	}
}
