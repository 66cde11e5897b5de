// Command tofu-serve runs the partition-as-a-service daemon: an HTTP/JSON
// front end over the Tofu search with a content-addressed plan cache,
// singleflight request coalescing, and an async job queue with
// backpressure.
//
// Usage:
//
//	tofu-serve [-addr :8080] [-cache-size 128] [-cache-bytes N] [-pool N]
//	           [-queue-depth 64] [-sync-wait 2s] [-parallel N]
//	           [-drain-timeout 30s] [-store DIR] [-store-fsync]
//	           [-tenant-quota N]
//	           [-search-deadline D] [-search-watchdog D] [-degraded-policy serve|fail]
//	           [-faultfs SPEC] [-log-format text|json] [-pprof]
//
// -search-deadline bounds each search's wall clock: a search that exhausts
// its budget returns its best incumbent, served with a `Tofu-Degraded: true`
// header (or turned into a 503 under -degraded-policy fail). Requests can
// carry their own "deadline_ms", which also folds into the content digest.
// -search-watchdog caps any single search regardless of deadline, so a
// wedged job degrades instead of pinning a worker. Deadline-bounded
// requests the queue demonstrably cannot serve in budget are refused up
// front with 503 + Retry-After. -faultfs injects store faults for chaos
// testing (see internal/faultfs.ParseSpec).
//
// -store layers a persistent content-addressed plan store under the in-memory
// LRU: plans computed by any replica sharing DIR are served from disk (after
// checksum and digest verification) instead of re-searched, across restarts.
// The daemon never scans DIR: an entry is read when a request for its digest
// misses the LRU. -tenant-quota bounds the concurrent searches any one
// Tofu-Tenant header may hold (429 beyond it).
//
// Every request and finished search is logged structurally via log/slog
// (trace id, digest, cache outcome, tenant, duration); -log-format json
// switches the records to JSON for log shippers. -pprof exposes
// net/http/pprof under /debug/pprof/ — off by default.
//
// API:
//
//	POST /v1/partition      {"model":{"family":"rnn","depth":6,"width":4096,"batch":128},"workers":8}
//	                        -> 200 plan JSON (cache hit or fast search)
//	                        -> 202 {"job":...} when the search exceeds -sync-wait
//	                        -> 429 when the job queue is full
//	GET  /v1/jobs/{id}      -> job status
//	GET  /v1/plans/{digest} -> cached plan by content digest
//	GET  /healthz, /metrics (JSON; ?format=prometheus for text exposition)
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and running
// searches finish (bounded by -drain-timeout; searches still running at the
// bound are cancelled through the anytime path, so a wedged search cannot
// stall shutdown), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tofu/internal/faultfs"
	"tofu/internal/service"
	"tofu/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for a random port)")
	cacheSize := flag.Int("cache-size", 128, "plan LRU capacity (entries)")
	cacheBytes := flag.Int64("cache-bytes", 0,
		"plan LRU byte budget (0 = entries-only bound)")
	pool := flag.Int("pool", 0, "search worker pool size (0 = half of GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "queued-search bound; a full queue answers 429")
	syncWait := flag.Duration("sync-wait", 2*time.Second,
		"latency budget before POST /v1/partition flips to the async 202 reply")
	parallel := flag.Int("parallel", 0,
		"DP worker goroutines per search (0 = GOMAXPROCS); plans are identical either way")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight searches to drain")
	storeDir := flag.String("store", "",
		"persistent plan store directory, shared across restarts and replicas (empty = memory only)")
	storeFsync := flag.Bool("store-fsync", false,
		"fsync store writes (survive power loss, not just process death)")
	tenantQuota := flag.Int("tenant-quota", 0,
		"max concurrent searches per Tofu-Tenant header (0 = unlimited)")
	searchDeadline := flag.Duration("search-deadline", 0,
		"default wall-clock budget per search; on expiry the best incumbent is served marked degraded (0 = unbounded; requests with deadline_ms keep theirs)")
	searchWatchdog := flag.Duration("search-watchdog", 0,
		"hard cap on any single search's run time, regardless of deadline (0 = none)")
	degradedPolicy := flag.String("degraded-policy", service.DegradedServe,
		"what to do with deadline-stopped incumbents: serve (with a Tofu-Degraded header) or fail (503)")
	faultSpec := flag.String("faultfs", "",
		"store fault-injection spec for chaos testing, e.g. 'read:*.plan:corrupt:3' (empty = off)")
	logFormat := flag.String("log-format", "text",
		"structured log format: text (logfmt-style) or json")
	pprofOn := flag.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "tofu-serve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	if *degradedPolicy != service.DegradedServe && *degradedPolicy != service.DegradedFail {
		fmt.Fprintf(os.Stderr, "tofu-serve: unknown -degraded-policy %q (want serve or fail)\n", *degradedPolicy)
		os.Exit(2)
	}

	var st *store.Store
	if *storeDir != "" {
		inj, err := faultfs.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		var fsys faultfs.FS
		if inj != nil {
			fsys = inj
			logger.Warn("store fault injection active", "spec", *faultSpec)
		}
		st, err = store.Open(*storeDir, store.Options{Fsync: *storeFsync, FS: fsys})
		if err != nil {
			fatal(err)
		}
	} else if *faultSpec != "" {
		fatal(fmt.Errorf("-faultfs requires -store"))
	}

	svc := service.New(service.Config{
		CacheSize:       *cacheSize,
		CacheBytes:      *cacheBytes,
		Workers:         *pool,
		QueueDepth:      *queueDepth,
		SyncWait:        *syncWait,
		Parallelism:     *parallel,
		Store:           st,
		TenantQuota:     *tenantQuota,
		DefaultDeadline: *searchDeadline,
		Watchdog:        *searchWatchdog,
		DegradedPolicy:  *degradedPolicy,
		Logger:          logger,
	})

	mux := svc.Handler()
	if *pprofOn {
		root := http.NewServeMux()
		root.Handle("/", mux)
		root.HandleFunc("GET /debug/pprof/", pprof.Index)
		root.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		root.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux = root
		logger.Info("pprof enabled at /debug/pprof/")
	}

	// Catch SIGTERM before the port opens: a supervisor that sees /healthz
	// answer may signal at once, and a signal that lands before Notify kills
	// the process instead of draining it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler: mux,
		// A public daemon must not let stalled clients pin goroutines
		// (slowloris) or block the graceful drain. The write deadline
		// leaves room for the longest legitimate response: a sync wait
		// that flips to 202 at the budget.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *syncWait + time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	storeNote := "memory only"
	if st != nil {
		storeNote = "store " + *storeDir
	}
	// The announce line keeps its historical shape — "listening on <addr> "
	// with the address followed by a space — because smoke scripts extract
	// the bound address from it.
	logger.Info(fmt.Sprintf("tofu-serve listening on %s (cache %d, queue %d, sync-wait %v, %s)",
		ln.Addr(), *cacheSize, *queueDepth, *syncWait, storeNote))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if err := svc.Shutdown(ctx); err != nil {
		logger.Error("drain failed, abandoning in-flight searches", "err", err.Error())
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
