// Package server implements boomsimd's HTTP layer: a long-running
// simulation service over the public boomsim API.
//
// The hot path is built for heavy, repetitive traffic. Results are pure
// functions of their configuration, so every completed run lands in a
// content-addressed LRU cache keyed on boomsim's configuration Fingerprint,
// and identical requests arriving while a run is in flight collapse onto it
// (singleflight) instead of re-simulating. A cache entry also holds its
// /v1/run answer, encoded once when the entry is inserted, so a hit costs
// decoding the request, fingerprinting it and copying those bytes; it never
// re-encodes the Result. Admission is bounded: at most
// QueueDepth distinct flights may be queued or running, the excess is
// rejected with 429, and at most Workers simulations execute concurrently.
// Every request carries a deadline; an abandoned flight (all waiters gone,
// or the server draining) is canceled through boomsim's cooperative
// cancellation, so no goroutine outlives its usefulness.
//
// This package deliberately consumes only the public boomsim API — the API
// boundary test at the repo root enforces it — making it a living example
// of building a service on the package.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"boomsim"
	"boomsim/internal/memo"
	"boomsim/internal/store"
	"boomsim/internal/wire"
)

// Version identifies the service build on /healthz; the VCS revision is
// added from build info when available.
const Version = "0.4.0"

// Config sizes the service. The zero value is usable: New fills in the
// documented defaults.
type Config struct {
	// Workers bounds concurrently executing simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted flights — queued plus running — before
	// requests are rejected with 429 (default 4×Workers). Requests that
	// join an existing flight or hit the cache consume no capacity.
	QueueDepth int
	// CacheEntries bounds the result LRU (default 4096 entries).
	CacheEntries int
	// RequestTimeout caps every request's deadline (default 5m). A request
	// may ask for less via timeout_ms, never more.
	RequestTimeout time.Duration
	// Store, when set, is the disk-backed result store behind the LRU:
	// every computed result is written through to it, LRU misses consult it
	// before simulating, and its entries survive process restarts. Reads
	// are fingerprint-verified by the store itself — a corrupt or torn
	// entry is quarantined and recomputed, never served.
	Store *store.Store
	// Logger receives request and job lifecycle events (batch admission,
	// per-job settlement, drain) at slog levels; request-scoped records
	// carry the client's trace_id when one was sent. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// errQueueFull is the admission-control rejection, surfaced as HTTP 429.
var errQueueFull = errors.New("server: simulation queue full")

// errDraining rejects new flights once Close has begun, surfaced as 503.
var errDraining = errors.New("server: draining")

// maxJobs bounds one /v1/jobs batch; larger sweeps should be split so
// backpressure stays meaningful.
const maxJobs = 256

// Server is the simulation service. Create it with New, expose Handler on
// an http.Server, and Close it to drain: Close cancels every queued and
// running simulation through the cooperative-cancellation path and returns
// once the last flight goroutine has exited.
type Server struct {
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc
	sem     chan struct{}
	cache   *memo.Cache[cachedRun]
	store   *store.Store
	flights *flightGroup
	m       metrics

	// closeMu serialises admission against Close: admit's wg.Add and
	// Close's transition to closed happen under it, so wg.Wait can never
	// race an Add from a handler still in flight (the documented
	// WaitGroup hazard).
	closeMu sync.Mutex
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		sem:     make(chan struct{}, cfg.Workers),
		cache:   memo.New[cachedRun](cfg.CacheEntries),
		store:   cfg.Store,
	}
	s.flights = newFlightGroup(func() { s.m.flightShared.Add(1) })
	return s
}

// Close drains the server: new flights are refused, all queued and
// in-flight simulations are canceled, and Close blocks until their
// goroutines exit. Subsequent requests are answered 503.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.cfg.Logger.Info("server: draining")
	s.stop()
	s.wg.Wait()
	s.cfg.Logger.Info("server: drained")
}

// Stats snapshots the service counters (also exposed on /metrics).
func (s *Server) Stats() Stats { return s.m.snapshot() }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleMetrics renders the service counters plus, when a durable store is
// configured, its entry/byte/quarantine gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.serveHTTP(w, r)
	if s.store == nil {
		return
	}
	st := s.store.Stats()
	write := func(name, kind, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, value)
	}
	write("boomsimd_store_entries", "gauge", "Entries in the durable result store.", st.Entries)
	write("boomsimd_store_bytes", "gauge", "Bytes held by the durable result store.", st.Bytes)
	write("boomsimd_store_hits_total", "counter", "Verified reads served from the durable store.", st.Hits)
	write("boomsimd_store_misses_total", "counter", "Durable-store lookups that missed.", st.Misses)
	write("boomsimd_store_writes_total", "counter", "Results written through to the durable store.", st.Writes)
	write("boomsimd_store_write_errors_total", "counter", "Durable-store writes that failed.", st.WriteErrors)
	write("boomsimd_store_quarantined_total", "counter", "Corrupt entries quarantined instead of served.", st.Quarantined)
}

// RunRequest is the wire form of one simulation configuration (shared with
// the cluster coordinator through internal/wire).
// Absent fields take New's documented defaults (Boomerang on Apache, Table
// I core, seeds 1/1, 200K warm + 1M measured instructions).
type RunRequest = wire.RunRequest

// RunResponse wraps one result with its cache identity.
type RunResponse struct {
	// Key is the configuration fingerprint the result is cached under.
	Key string `json:"key"`
	// Cached reports whether the result came from the cache without
	// simulating (a singleflight-collapsed request still reports false).
	Cached bool           `json:"cached"`
	Result boomsim.Result `json:"result"`
}

func (s *Server) runOptions(req RunRequest) ([]boomsim.Option, error) {
	var opts []boomsim.Option
	if req.Scheme != "" {
		opts = append(opts, boomsim.WithScheme(req.Scheme))
	}
	if len(req.SchemeConfig) > 0 {
		// Inline declarative scheme: validate here so malformed configs are
		// a 400 at the door, not a panic in a worker goroutine.
		cfg, err := boomsim.ParseSchemeConfig(req.SchemeConfig)
		if err != nil {
			return nil, err
		}
		opts = append(opts, boomsim.WithSchemeConfig(cfg))
	}
	if req.Workload != "" {
		opts = append(opts, boomsim.WithWorkload(req.Workload))
	}
	if req.Predictor != "" {
		opts = append(opts, boomsim.WithPredictor(req.Predictor))
	}
	if req.BTBEntries != 0 {
		opts = append(opts, boomsim.WithBTBEntries(req.BTBEntries))
	}
	if req.LLCLatency != 0 {
		opts = append(opts, boomsim.WithLLCLatency(req.LLCLatency))
	}
	if req.FootprintKB != 0 {
		opts = append(opts, boomsim.WithFootprintKB(req.FootprintKB))
	}
	if req.ImageSeed != nil || req.WalkSeed != nil {
		imageSeed, walkSeed := uint64(boomsim.DefaultImageSeed), uint64(boomsim.DefaultWalkSeed)
		if req.ImageSeed != nil {
			imageSeed = *req.ImageSeed
		}
		if req.WalkSeed != nil {
			walkSeed = *req.WalkSeed
		}
		opts = append(opts, boomsim.WithSeeds(imageSeed, walkSeed))
	}
	if req.WarmInstrs != nil || req.MeasureInstrs != nil {
		warm, measure := uint64(boomsim.DefaultWarmInstrs), uint64(boomsim.DefaultMeasureInstrs)
		if req.WarmInstrs != nil {
			warm = *req.WarmInstrs
		}
		if req.MeasureInstrs != nil {
			measure = *req.MeasureInstrs
		}
		opts = append(opts, boomsim.WithWindow(warm, measure))
	}
	if req.MaxCycles != 0 {
		opts = append(opts, boomsim.WithMaxCycles(req.MaxCycles))
	}
	if req.FlightEvery > 0 {
		opts = append(opts, boomsim.WithFlightRecorder(req.FlightEvery))
	}
	return opts, nil
}

// newSim builds a Simulation from one wire request.
func (s *Server) newSim(req RunRequest) (*boomsim.Simulation, error) {
	opts, err := s.runOptions(req)
	if err != nil {
		return nil, err
	}
	return boomsim.New(opts...)
}

func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req RunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sim, err := s.newSim(req)
	if err != nil {
		writeError(w, s.statusFor(err), err)
		return
	}
	key := sim.Fingerprint()
	start := time.Now()
	entry, cached := s.cacheGet(key)
	if cached {
		s.m.cacheHits.Add(1)
	} else {
		ctx, cancel := s.requestCtx(r, req.TimeoutMS)
		defer cancel()
		if entry.result, err = s.runFlight(ctx, sim, key); err != nil {
			s.cfg.Logger.Warn("server: run failed",
				"key", key, "trace_id", req.TraceID, "err", err)
			writeError(w, s.statusFor(err), err)
			return
		}
	}
	s.cfg.Logger.Debug("server: run completed",
		"key", key, "cached", cached,
		"ms", time.Since(start).Milliseconds(), "trace_id", req.TraceID)
	if cached {
		// The bytes encoded when the entry was inserted: no Result encoding.
		writeBody(w, http.StatusOK, entry.hit)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Key: key, Cached: false, Result: entry.result})
}

// cachedRun is one result-cache entry: the result, and hit, the exact
// /v1/run body a cache hit answers with, encoded once when the entry is
// inserted so hits never re-encode.
type cachedRun struct {
	result boomsim.Result
	hit    []byte
}

// newCachedRun builds the entry for key's result. A result that cannot be
// encoded leaves hit empty, the body writeJSON gives its miss.
func newCachedRun(key string, r boomsim.Result) cachedRun {
	hit, _ := encodeJSON(RunResponse{Key: key, Cached: true, Result: r})
	return cachedRun{result: r, hit: hit}
}

// cacheGet resolves key through the in-memory LRU, then the durable store.
// A store hit is promoted into the LRU so repeat traffic stays off disk.
// Store reads are digest-verified by the store itself; an entry that cannot
// be decoded into a Result (version skew) is treated as a miss and will be
// recomputed and overwritten.
func (s *Server) cacheGet(key string) (cachedRun, bool) {
	if e, ok := s.cache.Get(key); ok {
		return e, true
	}
	if s.store == nil {
		return cachedRun{}, false
	}
	raw, ok := s.store.Get(key)
	if !ok {
		return cachedRun{}, false
	}
	var r boomsim.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return cachedRun{}, false
	}
	e := newCachedRun(key, r)
	s.cache.Add(key, e)
	return e, true
}

// cacheAdd records a computed result in the LRU and writes it through to
// the durable store. A store write failure only costs durability — the
// in-memory result is unaffected and the failure is visible in the store's
// stats.
func (s *Server) cacheAdd(key string, r boomsim.Result) {
	s.cache.Add(key, newCachedRun(key, r))
	if s.store == nil {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return
	}
	_ = s.store.Put(key, raw)
}

// runOne resolves one simulation, whose Fingerprint is key, through cache →
// durable store → singleflight → worker pool. cached reports a cache or
// store hit; a request collapsed onto another's flight reports false.
func (s *Server) runOne(ctx context.Context, sim *boomsim.Simulation, key string) (r boomsim.Result, cached bool, err error) {
	if e, ok := s.cacheGet(key); ok {
		s.m.cacheHits.Add(1)
		return e.result, true, nil
	}
	r, err = s.runFlight(ctx, sim, key)
	return r, false, err
}

// runFlight resolves a key neither the cache nor the store holds: the run
// joins the key's flight, or starts one that simulates on the worker pool
// and caches the result.
func (s *Server) runFlight(ctx context.Context, sim *boomsim.Simulation, key string) (boomsim.Result, error) {
	s.m.cacheMisses.Add(1)
	v, _, err := s.flights.do(ctx, s.baseCtx, key, s.admit, s.spawn,
		func(fctx context.Context) (any, error) {
			defer s.release()
			r, err := s.simulate(fctx, sim)
			if err != nil {
				return nil, err
			}
			s.cacheAdd(key, r)
			return r, nil
		})
	if err != nil {
		return boomsim.Result{}, err
	}
	return v.(boomsim.Result), nil
}

// handleJobs executes a batch of independent jobs: each one resolves
// through the cache → singleflight → worker-pool path on its own, and each
// reports its own success or failure, in request order. This is the
// endpoint the cluster coordinator speaks: key-affine routing wants
// per-cell cache visibility and per-cell retryability.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req wire.JobsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no jobs"))
		return
	}
	if len(req.Jobs) > maxJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d jobs, limit %d — split it", len(req.Jobs), maxJobs))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	s.cfg.Logger.Debug("server: jobs batch accepted",
		"jobs", len(req.Jobs), "trace_id", req.TraceID)
	out := make([]wire.JobResult, len(req.Jobs))
	var wg sync.WaitGroup
	for i, jr := range req.Jobs {
		opts, err := s.runOptions(jr)
		if err != nil {
			out[i] = s.jobError(fmt.Errorf("jobs[%d]: %w", i, err))
			continue
		}
		// Observe how the run's warmed state is obtained (arena fork vs
		// fresh warm) so the coordinator's trace can attribute cell latency.
		// atomic.Value because the observer fires on the flight's goroutine;
		// a collapsed or cached job simply never stores.
		var warm atomic.Value
		opts = append(opts, boomsim.WithWarmObserver(func(src string) { warm.Store(src) }))
		sim, err := boomsim.New(opts...)
		if err != nil {
			out[i] = s.jobError(fmt.Errorf("jobs[%d]: %w", i, err))
			continue
		}
		wg.Add(1)
		go func(i int, sim *boomsim.Simulation, timeoutMS int64) {
			defer wg.Done()
			// A job may tighten (never widen) its own deadline below the
			// batch's, matching /v1/run's timeout_ms contract.
			jctx := ctx
			if timeoutMS > 0 {
				var cancel context.CancelFunc
				jctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
				defer cancel()
			}
			key := sim.Fingerprint()
			start := time.Now()
			result, cached, err := s.runOne(jctx, sim, key)
			if err != nil {
				s.cfg.Logger.Warn("server: job failed",
					"key", key, "trace_id", req.TraceID, "err", err)
				out[i] = s.jobError(err)
				return
			}
			raw, err := json.Marshal(result)
			if err != nil {
				out[i] = s.jobError(err)
				return
			}
			out[i] = wire.JobResult{Key: key, Cached: cached, Result: raw}
			if !cached {
				out[i].SimNanos = time.Since(start).Nanoseconds()
				if w, ok := warm.Load().(string); ok {
					out[i].Warm = w
				}
			}
			s.cfg.Logger.Debug("server: job completed",
				"key", key, "cached", cached, "warm", out[i].Warm,
				"ms", time.Since(start).Milliseconds(), "trace_id", req.TraceID)
		}(i, sim, jr.TimeoutMS)
	}
	wg.Wait()
	// Only the coordinator reads this answer, so it goes out compact:
	// indenting it would re-indent every job's raw result too, nearly
	// doubling the bytes a flight-recorded cell sends.
	body, err := json.Marshal(wire.JobsResponse{Jobs: out})
	if err == nil {
		body = append(body, '\n')
	}
	writeBody(w, http.StatusOK, body)
}

// jobError renders one job's failure with its HTTP-equivalent status and,
// for capacity rejections, the same backoff hint the 429 header path gives.
func (s *Server) jobError(err error) wire.JobResult {
	jr := wire.JobResult{Error: err.Error(), Status: s.statusFor(err)}
	if jr.Status == http.StatusTooManyRequests {
		jr.RetryAfterMS = 1000
	}
	return jr
}

// admit claims one unit of queue capacity — and registers the flight with
// the shutdown WaitGroup — or reports errQueueFull/errDraining. It is
// called by the flight group only when a new flight would start; the
// matching wg.Done runs in spawn, which always follows a successful admit.
func (s *Server) admit() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return errDraining
	}
	if s.m.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.m.queued.Add(-1)
		s.m.rejected.Add(1)
		return errQueueFull
	}
	s.wg.Add(1)
	return nil
}

func (s *Server) release() { s.m.queued.Add(-1) }

// spawn runs an admitted flight on its tracked goroutine.
func (s *Server) spawn(run func()) {
	go func() {
		defer s.wg.Done()
		run()
	}()
}

func (s *Server) acquireWorker(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", boomsim.ErrCanceled, ctx.Err())
	}
}

func (s *Server) releaseWorker() { <-s.sem }

// simulate executes one run on a worker slot with full instrumentation.
func (s *Server) simulate(ctx context.Context, sim *boomsim.Simulation) (boomsim.Result, error) {
	if err := s.acquireWorker(ctx); err != nil {
		return boomsim.Result{}, err
	}
	defer s.releaseWorker()
	s.m.simsStarted.Add(1)
	s.m.simsInflight.Add(1)
	defer s.m.simsInflight.Add(-1)
	start := time.Now()
	r, err := sim.Run(ctx)
	if err != nil {
		return boomsim.Result{}, err
	}
	s.m.simNanos.Add(uint64(time.Since(start)))
	s.m.simInstrs.Add(r.Instructions)
	s.m.observeComponents(r)
	return r, nil
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	writeJSON(w, http.StatusOK, boomsim.Schemes())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	writeJSON(w, http.StatusOK, boomsim.Workloads())
}

// vcsRevision extracts the build's VCS revision once; empty outside a
// stamped build (plain `go test`, for instance).
var vcsRevision = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.baseCtx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	h := wire.Health{
		Status:    "ok",
		Version:   Version,
		GoVersion: runtime.Version(),
		Revision:  vcsRevision(),

		Schemes:   len(boomsim.Schemes()),
		Workloads: len(boomsim.Workloads()),

		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		InFlightSims:  s.m.simsInflight.Load(),
		QueuedFlights: s.m.queued.Load(),
		CacheEntries:  s.cache.Len(),
	}
	if s.store != nil {
		st := s.store.Stats()
		h.Store = &wire.StoreHealth{
			Dir:         st.Dir,
			Entries:     st.Entries,
			Bytes:       st.Bytes,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Writes:      st.Writes,
			Quarantined: st.Quarantined,
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// statusFor maps error classes onto HTTP statuses: configuration mistakes
// are the client's (400/404), capacity is 429, deadlines 504, and a
// draining server 503.
func (s *Server) statusFor(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, boomsim.ErrUnknownScheme), errors.Is(err, boomsim.ErrUnknownWorkload):
		return http.StatusNotFound
	case errors.Is(err, boomsim.ErrInvalidOption):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, boomsim.ErrCanceled), errors.Is(err, context.Canceled):
		// Draining, or the client went away; either way the run did not
		// complete and a retry elsewhere may.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// encodeJSON renders v as every response body but /v1/jobs's is written:
// two-space indent and a trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON answers with v; a value that cannot be encoded leaves the body
// empty.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := encodeJSON(v)
	writeBody(w, status, body)
}

// writeBody answers with an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
