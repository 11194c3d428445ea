// Command boomsimd serves simulations over HTTP: the public boomsim API
// wrapped in a cached, batched, backpressured service.
//
// Endpoints:
//
//	POST /v1/run       one configuration -> JSON result (content-cached)
//	POST /v1/jobs      batch of independent jobs -> per-job results and
//	                   per-job errors (429 carries retry_after_ms); the
//	                   endpoint the boomctl cluster coordinator speaks
//	GET  /v1/schemes   registered schemes
//	GET  /v1/workloads registered workloads
//	GET  /healthz      liveness + build/version and current load
//	                   (in-flight sims, queued flights, capacities) for
//	                   coordinator placement decisions; 503 while draining
//	GET  /metrics      Prometheus text: requests, cache hits, in-flight
//	                   sims, queue depth, ns/instr
//
// Example:
//
//	boomsimd -addr :8080 -workers 8 -queue 64
//	boomsimd -addr :8080 -store /var/lib/boomsim/results
//	boomsimd -addr :8080 -log-level debug -debug-addr localhost:6060
//	curl -s localhost:8080/v1/run -d '{"scheme":"Boomerang","workload":"DB2"}'
//
// With -store, results are also written to a disk-backed content-addressed
// store under the in-memory cache: a restarted worker starts warm, and
// entries that fail their integrity check are quarantined and recomputed,
// never served.
//
// Observability: lifecycle events (request/job settlement, store
// quarantines and GC, drain) are structured logs on stderr — -log-level
// picks the floor (debug shows per-job settlement with the client's
// trace_id). -debug-addr serves net/http/pprof on a separate listener kept
// off the public API surface; point it at localhost and
// `go tool pprof http://localhost:6060/debug/pprof/profile` works as usual.
//
// SIGINT/SIGTERM drains gracefully: queued and running simulations are
// canceled through boomsim's cooperative-cancellation path, in-flight HTTP
// responses are flushed, and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"boomsim/internal/obs"
	"boomsim/internal/server"
	"boomsim/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "max queued+running flights before 429 (0 = 4x workers)")
		cache     = flag.Int("cache", 0, "result cache entries (0 = 4096)")
		storeDir  = flag.String("store", "", "durable result store directory (empty = memory-only cache)")
		storeMax  = flag.Int64("store-max-bytes", 0, "byte cap for the durable store, oldest entries evicted (0 = unbounded)")
		timeout   = flag.Duration("timeout", 0, "per-request deadline cap (0 = 5m)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight HTTP responses")
		logLevel  = flag.String("log-level", "info", "log floor: debug, info, warn or error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it on localhost)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level)

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
		Logger:         logger,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{MaxBytes: *storeMax, Logger: logger})
		if err != nil {
			fatalf("opening result store: %v", err)
		}
		cfg.Store = st
		ss := st.Stats()
		logger.Info("result store recovered",
			"dir", *storeDir, "entries", ss.Entries, "bytes", ss.Bytes)
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof rides its own mux and listener: the profiling surface never
		// leaks onto the public API address, and binding it to localhost
		// keeps it operator-only.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof debug listener on", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("boomsimd listening", "addr", *addr)

	select {
	case err := <-errCh:
		fatalf("serving: %v", err)
	case <-ctx.Done():
	}

	// Drain: cancel simulations first so blocked handlers respond promptly,
	// then let in-flight HTTP responses flush within the grace period.
	logger.Info("signal received; draining", "grace", *grace)
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatalf("shutdown: %v", err)
	}
	stats := srv.Stats()
	logger.Info("drained",
		"requests", stats.Requests, "sims", stats.SimsStarted,
		"cache_hits", stats.CacheHits, "ns_per_instr", fmt.Sprintf("%.0f", stats.NsPerInstr()))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "boomsimd: "+format+"\n", args...)
	os.Exit(1)
}
