// Package cluster shards simulation matrices across a pool of boomsimd
// workers: the horizontal scale-out layer over the single-node service.
//
// The coordinator expands a matrix into per-cell jobs identified by their
// configuration Key and routes each job to a worker by rendezvous hashing
// on that Key, so every worker's content-addressed result cache stays hot
// and a repeated sweep collapses to cache hits instead of re-simulating.
// Dispatch is an event loop with explicit backpressure: at most InFlight
// batches per worker, per-job 429/503 answers (and their retry_after_ms
// hints) cool the worker down, stragglers can be hedged to the key's
// next-preferred worker, and results reassemble in matrix order regardless
// of completion order, so a distributed sweep is byte-identical to a local
// RunMatrix. Each batch is posted once; the loop is the only place a failed
// batch is retried: its jobs re-dispatch after a cooldown, each failed post
// charging one attempt against the jobs' capped budget and one strike
// against the worker's breaker.
//
// Failure handling is built for pools that change under the sweep:
//
//   - Each worker has a circuit breaker. Repeated failures open it (the
//     worker is "dead", its keys move — the rendezvous property), an
//     elapsed cooldown half-opens it ("suspect", one probe batch), and a
//     clean batch closes it again. A worker restarting on the same address
//     rejoins the sweep without operator action.
//   - The pool itself is dynamic: with a membership file configured, the
//     coordinator re-reads it during the sweep, probing and admitting new
//     workers and retiring removed ones mid-flight.
//   - With a journal configured, every completed cell is durably
//     recorded under its Key, and a run answers every cell the journal
//     holds before dispatching anything, so a crashed coordinator resumes
//     instead of restarting. Cells are pure functions of their Key, so a
//     journal resumes whatever cells another sweep shares with it.
//
// The package deliberately speaks only internal/wire and the standard
// library: the public boomsim package builds on it, so it cannot import
// boomsim, and the API-boundary test pins it to the wire vocabulary.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"boomsim/internal/obs"
	"boomsim/internal/wire"
)

// Sentinel errors; the public boomsim package wraps them into its own
// typed errors.
var (
	// ErrNoWorkers reports an empty or fully-dead worker pool.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrWorkerFailed reports a job that exhausted its dispatch attempts.
	ErrWorkerFailed = errors.New("cluster: worker failed")
	// ErrCellTimeout reports a job that exhausted its retry wall-clock
	// budget: attempts were still available, but CellTimeout elapsed since
	// the cell's first dispatch.
	ErrCellTimeout = errors.New("cluster: cell exceeded its retry wall-clock budget")
	// ErrJobInvalid reports a job a worker rejected with a 400: its
	// configuration is invalid, so no other worker would accept it either.
	ErrJobInvalid = errors.New("cluster: job configuration rejected")
)

// probeTimeout bounds the per-worker /healthz probe at sweep start and on
// membership joins.
const probeTimeout = 2 * time.Second

// Journal is the durable record of completed cells a run resumes from,
// keyed by each cell's Key. It has the two methods of boomsim's
// content-addressed result store, the production journal: Get returns only
// verified bytes, and Put returns once the entry is durable.
type Journal interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// Config sizes a Coordinator. Endpoints or MembershipFile is required;
// everything else defaults sensibly.
type Config struct {
	// Endpoints lists worker base URLs (http://host:port). Duplicates and
	// trailing slashes are normalised away.
	Endpoints []string
	// MembershipFile, when set, names a JSON file (wire.Membership) that is
	// the authoritative worker list: it is read at sweep start and
	// re-read every MembershipInterval during the sweep, so the pool can
	// grow and shrink mid-flight. New workers are health-probed before they
	// receive jobs; removed workers are retired and only their keys move.
	// While the file is unreadable the last good view stays in effect, and
	// Endpoints serves as the bootstrap pool.
	MembershipFile string
	// MembershipInterval is the re-read cadence for MembershipFile
	// (default 1s).
	MembershipInterval time.Duration
	// Journal, when set, makes the sweep resumable: Run answers every cell
	// it holds before probing the pool, and Puts each cell it completes. A
	// failed Put costs resumability, not the sweep; it counts in
	// Stats.JournalErrors.
	Journal Journal
	// InFlight bounds concurrently outstanding batches per worker
	// (default 2) — the coordinator-side half of backpressure.
	InFlight int
	// BatchSize bounds jobs per /v1/jobs request (default 4).
	BatchSize int
	// MaxAttempts bounds dispatch attempts per job before the sweep fails
	// with ErrWorkerFailed (default 4). A failed post carrying the job, or
	// a per-job error other than a 429, uses one.
	MaxAttempts int
	// DeadAfter is the consecutive-failure threshold that opens a worker's
	// circuit breaker: its keys redistribute and it is left alone until
	// BreakerCooldown elapses (default 2).
	DeadAfter int
	// BreakerCooldown is how long an opened breaker rests before
	// half-opening for a single probe batch (default 1s). Each re-open
	// doubles the rest, capped at BreakerMaxCooldown.
	BreakerCooldown time.Duration
	// BreakerMaxCooldown caps the exponential breaker cooldown
	// (default 30s).
	BreakerMaxCooldown time.Duration
	// CellTimeout caps the wall-clock a single cell may spend being
	// retried, measured from its first dispatch; exceeding it fails the
	// sweep with ErrCellTimeout (0 = no cap). MaxAttempts bounds how many
	// times a cell is tried; CellTimeout bounds how long.
	CellTimeout time.Duration
	// HedgeAfter duplicates a batch's unfinished jobs onto each key's
	// next-preferred worker once the batch has been in flight this long
	// (0 = hedging disabled).
	HedgeAfter time.Duration
	// RequestTimeout caps one batch post, from send to the last byte of
	// the answer (default 5m). A worker that accepts connections but never
	// answers burns this budget, strikes out, and its keys move on.
	RequestTimeout time.Duration
	// HTTP sends the health probes and posts each batch once (default
	// http.DefaultClient).
	HTTP *http.Client
	// Logger receives structured lifecycle events — sweep start/end,
	// journal resume summaries, breaker transitions, membership changes,
	// hedges — at slog levels (nil = discard). The event loop logs
	// synchronously; handlers should be fast.
	Logger *slog.Logger
	// Trace, when set, collects per-cell spans (queue wait, dispatch, sim
	// time, retries, hedges) for the sweep. TraceID overrides the span
	// trace ID and is propagated in every batch request so worker logs
	// correlate; empty uses the collector's own ID.
	Trace   *obs.Collector
	TraceID string
}

func (c Config) withDefaults() Config {
	if c.InFlight <= 0 {
		c.InFlight = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.BreakerMaxCooldown <= 0 {
		c.BreakerMaxCooldown = 30 * time.Second
	}
	if c.MembershipInterval <= 0 {
		c.MembershipInterval = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	if c.Trace != nil {
		if c.TraceID != "" {
			c.Trace.SetTraceID(c.TraceID)
		} else {
			c.TraceID = c.Trace.ID()
		}
	}
	return c
}

// Job is one matrix cell: the configuration Key it is cached under (the
// routing identity) and its wire request.
type Job struct {
	Key string
	Req wire.RunRequest
}

// JobResult is one completed cell: the raw result JSON and whether the
// worker answered it from cache (journal-resumed cells count as cached —
// they were not recomputed).
type JobResult struct {
	Cached bool
	Result json.RawMessage
}

// Coordinator shards jobs across the configured workers. It is safe for
// sequential reuse across sweeps (worker liveness is re-probed per Run) and
// its Stats/MetricsHandler may be read concurrently with a running sweep.
type Coordinator struct {
	cfg Config
	m   *metrics

	// runMu serialises Run: the event loop owns per-run state exclusively.
	runMu sync.Mutex
}

// normalizeEndpoints trims, deduplicates and strips trailing slashes.
func normalizeEndpoints(raw []string) []string {
	var endpoints []string
	seen := make(map[string]bool)
	for _, ep := range raw {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" || seen[ep] {
			continue
		}
		seen[ep] = true
		endpoints = append(endpoints, ep)
	}
	return endpoints
}

// readMembershipFile parses a wire.Membership document.
func readMembershipFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m wire.Membership
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing membership file %s: %w", path, err)
	}
	return normalizeEndpoints(m.Workers), nil
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	cfg.Endpoints = normalizeEndpoints(cfg.Endpoints)
	if len(cfg.Endpoints) == 0 && cfg.MembershipFile == "" {
		return nil, ErrNoWorkers
	}
	endpoints := cfg.Endpoints
	if cfg.MembershipFile != "" {
		if fromFile, err := readMembershipFile(cfg.MembershipFile); err == nil && len(fromFile) > 0 {
			endpoints = fromFile
		}
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("%w: no endpoints configured and membership file %s lists none",
			ErrNoWorkers, cfg.MembershipFile)
	}
	return &Coordinator{cfg: cfg, m: newMetrics(endpoints)}, nil
}

// Stats snapshots the coordinator counters; safe during a running sweep.
func (c *Coordinator) Stats() Stats { return c.m.snapshot() }

// MetricsHandler serves the counters in Prometheus text format.
func (c *Coordinator) MetricsHandler() http.Handler { return http.HandlerFunc(c.m.serveHTTP) }

// MembershipView reports the coordinator's live opinion of its pool: one
// row per worker it has ever tracked with its current circuit state. Safe
// during a running sweep.
func (c *Coordinator) MembershipView() wire.MembershipView {
	return c.m.membershipView()
}

// Worker circuit-breaker states. unprobed: registered, but no health probe
// has answered yet (a sweep answered wholly from its journal never probes);
// not routable. live: breaker closed, full dispatch. suspect: breaker
// half-open, one probe batch at a time. dead: breaker open, no dispatch
// until reopenAt. removed: retired for the run (failed the start-of-sweep
// probe, or dropped from the membership file) — only a membership re-add
// revives it.
const (
	wsUnprobed int32 = iota
	wsLive
	wsSuspect
	wsDead
	wsRemoved
)

func stateName(s int32) string {
	switch s {
	case wsUnprobed:
		return "unprobed"
	case wsLive:
		return "live"
	case wsSuspect:
		return "suspect"
	case wsDead:
		return "dead"
	default:
		return "removed"
	}
}

// workerState is one endpoint's per-run dispatch state, owned by the event
// loop goroutine.
type workerState struct {
	endpoint      string
	metrics       *workerMetrics
	state         int32
	reopenAt      time.Time // when an open breaker half-opens
	trips         int       // breaker opens this run; drives exponential cooldown
	inflight      int       // outstanding batches
	queue         []int     // job indices awaiting dispatch
	consecFails   int
	cooldownUntil time.Time
}

// routable reports whether the worker may be offered work (and therefore
// participates in rendezvous hashing).
func (w *workerState) routable() bool { return w.state == wsLive || w.state == wsSuspect }

func (w *workerState) setState(s int32) {
	w.state = s
	w.metrics.state.Store(s)
}

type batch struct {
	id      int
	worker  *workerState
	jobs    []int
	started time.Time
	hedged  bool
}

type batchEvent struct {
	batch *batch
	resp  *wire.JobsResponse
	err   error
}

// joinEvent is an async membership-probe verdict for a candidate endpoint.
type joinEvent struct {
	endpoint string
	ok       bool
}

// runState is one sweep's bookkeeping; every field is owned by the Run
// goroutine, with launched batches and membership probes communicating back
// over channels.
type runState struct {
	cfg     Config
	m       *metrics
	ctx     context.Context
	jobs    []Job
	results []JobResult
	done    []bool
	fails   []int // failed dispatch attempts per job
	// firstTry is each job's first dispatch instant: the epoch its
	// CellTimeout budget is measured from.
	firstTry []time.Time
	hedgedJ  []bool
	// tries counts dispatches per job (attempts, hedges included);
	// retriedJ marks jobs that needed at least one re-dispatch.
	tries    []int
	retriedJ []bool
	// queuedAt is the sweep's dispatch epoch: every cell's queue-wait span
	// is measured from it.
	queuedAt time.Time
	workers  []*workerState
	byEP     map[string]*workerState
	// parked holds jobs with no routable owner right now but a reason to
	// hope: an open breaker that will half-open, or a membership file that
	// may add workers. They re-place as soon as the pool has anyone.
	parked  []int
	probing map[string]bool // membership candidates with a probe in flight
	// journalErr is the first failed journal Put of the run.
	journalErr error

	remaining int
	inflight  map[int]*batch
	nextID    int
	events    chan batchEvent
	joins     chan joinEvent
}

// Run dispatches jobs across the pool and returns their results in input
// order. On failure every in-flight request is canceled before returning.
func (c *Coordinator) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if len(jobs) == 0 {
		return nil, nil
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	endpoints := c.cfg.Endpoints
	if c.cfg.MembershipFile != "" {
		if fromFile, err := readMembershipFile(c.cfg.MembershipFile); err == nil && len(fromFile) > 0 {
			endpoints = fromFile
		}
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("%w: membership file %s lists no workers", ErrNoWorkers, c.cfg.MembershipFile)
	}

	st := &runState{
		cfg:       c.cfg,
		m:         c.m,
		ctx:       runCtx,
		jobs:      jobs,
		results:   make([]JobResult, len(jobs)),
		done:      make([]bool, len(jobs)),
		fails:     make([]int, len(jobs)),
		firstTry:  make([]time.Time, len(jobs)),
		hedgedJ:   make([]bool, len(jobs)),
		tries:     make([]int, len(jobs)),
		retriedJ:  make([]bool, len(jobs)),
		queuedAt:  time.Now(),
		byEP:      make(map[string]*workerState, len(endpoints)),
		probing:   make(map[string]bool),
		remaining: len(jobs),
		inflight:  make(map[int]*batch),
		events:    make(chan batchEvent, len(endpoints)*c.cfg.InFlight+8),
		joins:     make(chan joinEvent, 8),
	}
	log := c.cfg.Logger
	log.Info("cluster: sweep starting",
		"jobs", len(jobs), "workers", len(endpoints), "trace_id", c.cfg.TraceID)
	for _, ep := range endpoints {
		w := &workerState{endpoint: ep, metrics: c.m.worker(ep)}
		w.setState(wsUnprobed)
		st.workers = append(st.workers, w)
		st.byEP[ep] = w
	}

	// Restore journaled progress before touching the network: a fully
	// journaled sweep completes even against a dead pool.
	if c.cfg.Journal != nil {
		for i := range jobs {
			if raw, ok := c.cfg.Journal.Get(jobs[i].Key); ok {
				st.done[i] = true
				st.remaining--
				st.results[i] = JobResult{Cached: true, Result: raw}
				st.m.jobsResumed.Add(1)
				st.cellSpan(i, nil, wire.JobResult{Cached: true}, true)
			}
		}
		log.Info("cluster: journal resume",
			"journaled", len(jobs)-st.remaining, "recomputing", st.remaining, "total", len(jobs))
		if st.remaining == 0 {
			return st.results, nil
		}
	}

	if err := st.probe(runCtx); err != nil {
		return nil, err
	}
	for i := range jobs {
		if st.done[i] {
			continue
		}
		if err := st.placeJob(i); err != nil {
			return nil, err
		}
	}

	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var memberC <-chan time.Time
	if c.cfg.MembershipFile != "" {
		ticker := time.NewTicker(c.cfg.MembershipInterval)
		defer ticker.Stop()
		memberC = ticker.C
	}
	for st.remaining > 0 {
		st.schedule()
		if err := st.checkParked(); err != nil {
			return nil, err
		}
		var timerC <-chan time.Time
		if wake, ok := st.nextWake(); ok {
			d := time.Until(wake)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer.Reset(d)
			timerC = timer.C
		} else {
			timer.Stop()
		}
		select {
		case ev := <-st.events:
			if err := st.handle(ev); err != nil {
				return nil, err
			}
		case jev := <-st.joins:
			if err := st.handleJoin(jev); err != nil {
				return nil, err
			}
		case <-memberC:
			st.reconcileMembership()
		case <-timerC:
			st.hedgeScan()
		case <-runCtx.Done():
			return nil, fmt.Errorf("cluster: sweep canceled: %w", runCtx.Err())
		}
	}
	if st.journalErr != nil {
		// The sweep's results are complete and correct; a journal that
		// stopped persisting costs only resumability. Surface it without
		// failing the sweep.
		st.m.journalErrors.Add(1)
		log.Warn("cluster: journal stopped persisting", "err", st.journalErr)
	}
	log.Info("cluster: sweep complete",
		"jobs", len(jobs), "elapsed", time.Since(st.queuedAt).Round(time.Millisecond),
		"trace_id", c.cfg.TraceID)
	return st.results, nil
}

// cellSpan settles one cell's observability: its timing joins the
// slowest-cells leaderboard, and — when the sweep is traced — its spans
// (whole-cell plus queue/dispatch/sim phases) are recorded under the cell's
// matrix index as the trace row. Resumed cells record a zero-length span at
// the sweep epoch so every cell appears in the trace exactly once.
func (st *runState) cellSpan(j int, b *batch, jr wire.JobResult, resumed bool) {
	now := time.Now()
	key := st.jobs[j].Key
	worker := ""
	if b != nil {
		worker = b.worker.endpoint
	}
	if !resumed && !st.firstTry[j].IsZero() {
		st.m.observeCell(key, worker, float64(now.Sub(st.firstTry[j]))/1e6)
	}
	tr := st.cfg.Trace
	if tr == nil {
		return
	}
	short := key
	if len(short) > 12 {
		short = short[:12]
	}
	tr.SetThreadName(j, fmt.Sprintf("cell %d %s", j, short))
	if resumed {
		tr.Add(obs.Span{Name: "cell", Cat: "sweep", Start: st.queuedAt, TID: j, Args: []obs.Arg{
			{Key: "key", Value: key},
			{Key: "resumed", Value: true},
			{Key: "cached", Value: true},
		}})
		return
	}
	first := st.firstTry[j]
	tr.Add(obs.Span{Name: "cell", Cat: "sweep", Start: st.queuedAt, Dur: now.Sub(st.queuedAt), TID: j, Args: []obs.Arg{
		{Key: "key", Value: key},
		{Key: "worker", Value: worker},
		{Key: "attempts", Value: st.tries[j]},
		{Key: "retried", Value: st.retriedJ[j]},
		{Key: "hedged", Value: st.hedgedJ[j]},
		{Key: "cached", Value: jr.Cached},
		{Key: "warm", Value: jr.Warm},
	}})
	tr.Add(obs.Span{Name: "queue", Cat: "phase", Start: st.queuedAt, Dur: first.Sub(st.queuedAt), TID: j,
		Args: []obs.Arg{{Key: "key", Value: key}}})
	tr.Add(obs.Span{Name: "dispatch", Cat: "phase", Start: first, Dur: now.Sub(first), TID: j,
		Args: []obs.Arg{{Key: "key", Value: key}, {Key: "worker", Value: worker}}})
	if jr.SimNanos > 0 {
		d := time.Duration(jr.SimNanos)
		tr.Add(obs.Span{Name: "sim", Cat: "phase", Start: now.Add(-d), Dur: d, TID: j,
			Args: []obs.Arg{{Key: "key", Value: key}, {Key: "warm", Value: jr.Warm}}})
	}
}

// healthProbe checks one endpoint's /healthz within probeTimeout.
func healthProbe(ctx context.Context, httpc *http.Client, endpoint string) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, endpoint+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// probe checks every worker's /healthz concurrently; unreachable workers
// start the sweep retired so their keys route elsewhere from the first
// batch. (A membership re-add can still revive them mid-sweep.)
func (st *runState) probe(ctx context.Context) error {
	failed := make([]bool, len(st.workers))
	var wg sync.WaitGroup
	for i, w := range st.workers {
		wg.Add(1)
		go func(i int, w *workerState) {
			defer wg.Done()
			failed[i] = !healthProbe(ctx, st.cfg.HTTP, w.endpoint)
		}(i, w)
	}
	wg.Wait()
	alive := 0
	for i, w := range st.workers {
		if failed[i] {
			w.setState(wsRemoved)
			st.m.probeFailures.Add(1)
		} else {
			w.setState(wsLive)
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("%w: all %d health probes failed", ErrNoWorkers, len(st.workers))
	}
	return nil
}

// routableEndpoints materialises the current routable set for the hash
// functions.
func (st *runState) routableEndpoints() []string {
	eps := make([]string, 0, len(st.workers))
	for _, w := range st.workers {
		if w.routable() {
			eps = append(eps, w.endpoint)
		}
	}
	return eps
}

// ownerOf returns the routable rendezvous owner of key, or nil when no
// worker can take work right now.
func (st *runState) ownerOf(key string) *workerState {
	ep := rendezvousOwner(key, st.routableEndpoints())
	if ep == "" {
		return nil
	}
	return st.byEP[ep]
}

// placeJob routes job j to its rendezvous owner, or parks it when no worker
// is routable but the pool can still recover (a breaker due to half-open,
// or dynamic membership). Only a pool with no path back to life fails the
// sweep.
func (st *runState) placeJob(j int) error {
	if w := st.ownerOf(st.jobs[j].Key); w != nil {
		w.queue = append(w.queue, j)
		return nil
	}
	if st.canRecover() {
		st.parked = append(st.parked, j)
		return nil
	}
	return fmt.Errorf("%w: while placing job %q", ErrNoWorkers, st.jobs[j].Key)
}

// canRecover reports whether an empty routable set might still repopulate:
// an open breaker will half-open, and a membership file can add workers.
func (st *runState) canRecover() bool {
	if st.cfg.MembershipFile != "" {
		return true
	}
	for _, w := range st.workers {
		if w.state == wsDead {
			return true
		}
	}
	return false
}

// schedule advances breaker state and launches as many batches as capacity
// allows: per routable, non-cooling worker, pop up to BatchSize pending
// jobs per free in-flight slot (a half-open worker gets a single probe
// batch). Jobs completed elsewhere in the meantime (hedge duplicates) are
// discarded at pop time.
func (st *runState) schedule() {
	now := time.Now()
	for _, w := range st.workers {
		if w.state == wsDead && !now.Before(w.reopenAt) {
			w.setState(wsSuspect)
		}
	}
	if len(st.parked) > 0 {
		parked := st.parked
		st.parked = nil
		for _, j := range parked {
			if st.done[j] {
				continue
			}
			// placeJob re-parks when the pool is still empty; the error arm
			// is unreachable while parked jobs exist (parking implies
			// recoverability), so jobs are never dropped here.
			if st.placeJob(j) != nil {
				st.parked = append(st.parked, j)
			}
		}
	}
	for _, w := range st.workers {
		if !w.routable() || now.Before(w.cooldownUntil) {
			continue
		}
		limit := st.cfg.InFlight
		if w.state == wsSuspect {
			// Half-open: risk one batch, not the full in-flight budget.
			limit = 1
		}
		for w.inflight < limit && len(w.queue) > 0 {
			var idxs []int
			for len(idxs) < st.cfg.BatchSize && len(w.queue) > 0 {
				j := w.queue[0]
				w.queue = w.queue[1:]
				if st.done[j] {
					continue
				}
				idxs = append(idxs, j)
			}
			if len(idxs) == 0 {
				break
			}
			st.launch(w, idxs)
		}
	}
}

// checkParked fails the sweep when a parked job's CellTimeout budget burns
// out while it waits for the pool to recover.
func (st *runState) checkParked() error {
	if st.cfg.CellTimeout <= 0 {
		return nil
	}
	now := time.Now()
	for _, j := range st.parked {
		if st.done[j] || st.firstTry[j].IsZero() {
			continue
		}
		if now.Sub(st.firstTry[j]) >= st.cfg.CellTimeout {
			return fmt.Errorf("%w: job %q waited out its %v budget with no routable worker",
				ErrCellTimeout, st.jobs[j].Key, st.cfg.CellTimeout)
		}
	}
	return nil
}

func (st *runState) launch(w *workerState, idxs []int) {
	b := &batch{id: st.nextID, worker: w, jobs: idxs, started: time.Now()}
	st.nextID++
	st.inflight[b.id] = b
	w.inflight++
	st.m.batchesDispatched.Add(1)
	st.m.jobsDispatched.Add(uint64(len(idxs)))
	w.metrics.requests.Add(1)

	reqs := make([]wire.RunRequest, len(idxs))
	for k, j := range idxs {
		reqs[k] = st.jobs[j].Req
		st.tries[j]++
		if st.firstTry[j].IsZero() {
			st.firstTry[j] = b.started
		}
	}
	body, err := json.Marshal(wire.JobsRequest{Jobs: reqs, TraceID: st.cfg.TraceID})
	if err != nil {
		// Unreachable for wire types; fail through the event path so the
		// loop's accounting stays consistent.
		go st.send(batchEvent{batch: b, err: err})
		return
	}
	httpc, url := st.cfg.HTTP, w.endpoint+"/v1/jobs"
	limit := int64(len(idxs))*wire.MaxJobResultBytes + envelopeBytes
	ctx, cancel := context.WithTimeout(st.ctx, st.cfg.RequestTimeout)
	go func() {
		defer cancel()
		raw, err := post(ctx, httpc, url, body, limit)
		ev := batchEvent{batch: b, err: err}
		if err == nil {
			var resp wire.JobsResponse
			if uerr := json.Unmarshal(raw, &resp); uerr != nil {
				ev.err = fmt.Errorf("decoding %s response: %w", url, uerr)
			} else {
				ev.resp = &resp
			}
		}
		st.send(ev)
	}()
}

func (st *runState) send(ev batchEvent) {
	select {
	case st.events <- ev:
	case <-st.ctx.Done():
	}
}

func (st *runState) sendJoin(ev joinEvent) {
	select {
	case st.joins <- ev:
	case <-st.ctx.Done():
	}
}

// handle settles one batch: record results, and requeue, cool down, trip or
// close breakers on the way. A non-nil return aborts the sweep.
func (st *runState) handle(ev batchEvent) error {
	b := ev.batch
	delete(st.inflight, b.id)
	w := b.worker
	w.inflight--
	w.metrics.latencyNanos.Add(uint64(time.Since(b.started)))

	if ev.err != nil {
		w.metrics.failures.Add(1)
		return st.handleBatchFailure(b, ev.err)
	}
	if len(ev.resp.Jobs) != len(b.jobs) {
		w.metrics.failures.Add(1)
		return st.handleBatchFailure(b, fmt.Errorf(
			"worker %s returned %d results for %d jobs", w.endpoint, len(ev.resp.Jobs), len(b.jobs)))
	}

	sawDraining := false
	for k, jr := range ev.resp.Jobs {
		j := b.jobs[k]
		if jr.Error == "" {
			if !st.done[j] {
				st.done[j] = true
				st.remaining--
				st.results[j] = JobResult{Cached: jr.Cached, Result: jr.Result}
				st.m.jobsCompleted.Add(1)
				w.metrics.jobs.Add(1)
				if jr.Cached {
					st.m.cacheHits.Add(1)
				}
				if st.cfg.Journal != nil {
					if err := st.cfg.Journal.Put(st.jobs[j].Key, jr.Result); err != nil && st.journalErr == nil {
						st.journalErr = err
					}
				}
				st.cellSpan(j, b, jr, false)
				st.cfg.Logger.Debug("cluster: job completed",
					"key", st.jobs[j].Key, "worker", w.endpoint,
					"cached", jr.Cached, "warm", jr.Warm,
					"sim_ms", time.Duration(jr.SimNanos).Milliseconds(),
					"attempts", st.tries[j])
			}
			continue
		}
		if st.done[j] {
			continue
		}
		if !jr.Retryable() {
			err := fmt.Errorf("worker %s rejected job %q: %s (http %d)",
				w.endpoint, st.jobs[j].Key, jr.Error, jr.Status)
			if jr.Status == http.StatusBadRequest {
				return fmt.Errorf("%w: %w", ErrJobInvalid, err)
			}
			return fmt.Errorf("cluster: %w", err)
		}
		if jr.Status == http.StatusServiceUnavailable {
			sawDraining = true
		}
		// Cool the worker down for the server's hinted interval — the
		// in-band Retry-After — before offering it more work.
		cool := time.Duration(jr.RetryAfterMS) * time.Millisecond
		if cool <= 0 {
			cool = 200 * time.Millisecond
		}
		if until := time.Now().Add(cool); until.After(w.cooldownUntil) {
			w.cooldownUntil = until
		}
		// A 429 is a healthy worker saying "not yet": pure backpressure,
		// paced by the cooldown and bounded by the caller's context, so it
		// must not consume the job's failure budget — a busy pool would
		// otherwise abort a long sweep that was making steady progress.
		charge := jr.Status != http.StatusTooManyRequests
		if err := st.requeue(j, charge, fmt.Errorf("worker %s: %s (http %d)", w.endpoint, jr.Error, jr.Status)); err != nil {
			return err
		}
	}
	// A draining worker will 503 everything it is offered; treat it like a
	// transport failure so its breaker opens after DeadAfter strikes. Only a
	// batch free of draining signals clears the strike count — resetting
	// unconditionally would let a 200-wrapped stream of per-job 503s keep
	// the worker alive forever.
	if sawDraining {
		w.consecFails++
		if w.state == wsSuspect || w.consecFails >= st.cfg.DeadAfter {
			return st.trip(w, errors.New("worker draining"))
		}
	} else {
		w.consecFails = 0
		if w.state == wsSuspect {
			// The probe batch came back clean: close the breaker.
			w.setState(wsLive)
			w.trips = 0
			st.m.breakerCloses.Add(1)
			st.cfg.Logger.Info("cluster: breaker closed", "worker", w.endpoint)
		}
	}
	return nil
}

// handleBatchFailure requeues a failed batch's jobs, escalating the worker
// toward an open breaker on repeated strikes (and immediately when a
// half-open probe batch fails). Non-retryable whole-request rejections
// (a 4xx other than 429) are the coordinator's own bug and abort the sweep.
func (st *runState) handleBatchFailure(b *batch, cause error) error {
	w := b.worker
	var se *StatusError
	if errors.As(cause, &se) && se.Code >= 400 && se.Code < 500 && se.Code != http.StatusTooManyRequests {
		return fmt.Errorf("cluster: worker %s rejected batch: %w", w.endpoint, cause)
	}
	w.consecFails++
	if w.routable() && (w.state == wsSuspect || w.consecFails >= st.cfg.DeadAfter) {
		if err := st.trip(w, cause); err != nil {
			return err
		}
	} else if w.state == wsLive {
		w.cooldownUntil = time.Now().Add(time.Duration(w.consecFails) * 200 * time.Millisecond)
	}
	for _, j := range b.jobs {
		if st.done[j] {
			continue
		}
		if err := st.requeue(j, true, fmt.Errorf("worker %s: %w", w.endpoint, cause)); err != nil {
			return err
		}
	}
	return nil
}

// requeue re-dispatches job j to its current owner (or parks it). charge
// says whether the failure counts against the job's attempt budget —
// genuine failures do, capacity rejections (429) do not. Either way the
// job's CellTimeout budget keeps burning: a cell stuck behind an endless
// 429 storm still ends the sweep in bounded time.
func (st *runState) requeue(j int, charge bool, cause error) error {
	if charge {
		st.fails[j]++
	}
	if st.fails[j] >= st.cfg.MaxAttempts {
		return fmt.Errorf("%w: job %q failed %d dispatch attempts, last: %v",
			ErrWorkerFailed, st.jobs[j].Key, st.fails[j], cause)
	}
	if st.cfg.CellTimeout > 0 && !st.firstTry[j].IsZero() && time.Since(st.firstTry[j]) >= st.cfg.CellTimeout {
		return fmt.Errorf("%w: job %q burned its %v budget, last: %v",
			ErrCellTimeout, st.jobs[j].Key, st.cfg.CellTimeout, cause)
	}
	st.m.jobsRetried.Add(1)
	if !st.retriedJ[j] {
		st.retriedJ[j] = true
		st.m.cellsRetried.Add(1)
	}
	if tr := st.cfg.Trace; tr != nil {
		tr.Add(obs.Span{Name: "retry", Cat: "phase", Start: time.Now(), TID: j, Instant: true,
			Args: []obs.Arg{{Key: "key", Value: st.jobs[j].Key}, {Key: "cause", Value: cause.Error()}}})
	}
	st.cfg.Logger.Debug("cluster: job requeued",
		"key", st.jobs[j].Key, "charged", charge, "attempt_fails", st.fails[j], "cause", cause)
	return st.placeJob(j)
}

// trip opens w's circuit breaker: its keys move to the surviving pool (by
// construction only keys w owned move) and w rests until reopenAt, when it
// half-opens for a probe batch. Repeat trips double the rest.
func (st *runState) trip(w *workerState, cause error) error {
	if w.state == wsDead || w.state == wsRemoved {
		return nil
	}
	w.setState(wsDead)
	w.consecFails = 0
	w.trips++
	cool := st.cfg.BreakerCooldown
	for i := 1; i < w.trips && cool < st.cfg.BreakerMaxCooldown; i++ {
		cool *= 2
	}
	if cool > st.cfg.BreakerMaxCooldown {
		cool = st.cfg.BreakerMaxCooldown
	}
	w.reopenAt = time.Now().Add(cool)
	st.m.workerDeaths.Add(1)
	st.cfg.Logger.Warn("cluster: breaker opened",
		"worker", w.endpoint, "cooldown", cool, "trips", w.trips, "cause", cause)
	q := w.queue
	w.queue = nil
	for _, j := range q {
		if st.done[j] {
			continue
		}
		if err := st.placeJob(j); err != nil {
			return fmt.Errorf("%v (after worker %s failed: %v)", err, w.endpoint, cause)
		}
	}
	return nil
}

// reconcileMembership re-reads the membership file and diffs it against the
// tracked pool: unknown endpoints are probed asynchronously and join on a
// passing probe; endpoints no longer listed are retired. An unreadable file
// changes nothing — the last good view stays in effect.
func (st *runState) reconcileMembership() {
	eps, err := readMembershipFile(st.cfg.MembershipFile)
	if err != nil {
		st.m.membershipErrors.Add(1)
		return
	}
	want := make(map[string]bool, len(eps))
	for _, ep := range eps {
		want[ep] = true
	}
	for _, w := range st.workers {
		if !want[w.endpoint] && w.state != wsRemoved {
			st.retire(w)
		}
	}
	for _, ep := range eps {
		w := st.byEP[ep]
		if (w == nil || w.state == wsRemoved) && !st.probing[ep] {
			st.probing[ep] = true
			go func(ep string) {
				ok := healthProbe(st.ctx, st.cfg.HTTP, ep)
				st.sendJoin(joinEvent{endpoint: ep, ok: ok})
			}(ep)
		}
	}
}

// retire permanently removes w from the run (membership says it is gone);
// unlike a tripped breaker it will not half-open — only a membership
// re-add brings it back.
func (st *runState) retire(w *workerState) {
	w.setState(wsRemoved)
	w.consecFails = 0
	st.m.workersRemoved.Add(1)
	st.cfg.Logger.Info("cluster: worker retired", "worker", w.endpoint)
	q := w.queue
	w.queue = nil
	for _, j := range q {
		if st.done[j] {
			continue
		}
		// Parking is always legal here: a membership file is configured, so
		// the pool can recover by definition.
		if st.placeJob(j) != nil {
			st.parked = append(st.parked, j)
		}
	}
}

// handleJoin settles a membership probe: a passing endpoint joins the pool
// (or revives, if it was retired) and queued work rebalances so the new
// worker immediately owns its rendezvous share.
func (st *runState) handleJoin(ev joinEvent) error {
	delete(st.probing, ev.endpoint)
	if !ev.ok {
		return nil // next reconcile tick re-probes
	}
	w := st.byEP[ev.endpoint]
	if w == nil {
		w = &workerState{endpoint: ev.endpoint, metrics: st.m.worker(ev.endpoint)}
		st.workers = append(st.workers, w)
		st.byEP[ev.endpoint] = w
	} else if w.state != wsRemoved {
		return nil // raced back to life some other way
	}
	w.setState(wsLive)
	w.consecFails = 0
	w.trips = 0
	st.m.workersJoined.Add(1)
	st.cfg.Logger.Info("cluster: worker joined", "worker", w.endpoint)
	return st.rebalance()
}

// rebalance re-places every queued (not in-flight) and parked job so
// ownership reflects the current pool. Cheap — queues hold ints — and only
// keys whose rendezvous owner changed actually move.
func (st *runState) rebalance() error {
	var all []int
	for _, w := range st.workers {
		all = append(all, w.queue...)
		w.queue = nil
	}
	all = append(all, st.parked...)
	st.parked = nil
	for _, j := range all {
		if st.done[j] {
			continue
		}
		if err := st.placeJob(j); err != nil {
			return err
		}
	}
	return nil
}

// hedgeScan duplicates unfinished jobs from batches past the hedge deadline
// onto each key's next-preferred live worker: a straggling or silently
// wedged worker no longer gates the sweep, and because results are pure
// functions of their key, whichever copy finishes first wins and the other
// is discarded on arrival.
func (st *runState) hedgeScan() {
	if st.cfg.HedgeAfter <= 0 {
		return
	}
	now := time.Now()
	for _, b := range st.inflight {
		if b.hedged || now.Sub(b.started) < st.cfg.HedgeAfter {
			continue
		}
		b.hedged = true
		for _, j := range b.jobs {
			if st.done[j] || st.hedgedJ[j] {
				continue
			}
			target := st.hedgeTarget(st.jobs[j].Key, b.worker)
			if target == nil {
				continue
			}
			st.hedgedJ[j] = true
			st.m.jobsHedged.Add(1)
			if tr := st.cfg.Trace; tr != nil {
				tr.Add(obs.Span{Name: "hedge", Cat: "phase", Start: now, TID: j, Instant: true,
					Args: []obs.Arg{
						{Key: "key", Value: st.jobs[j].Key},
						{Key: "from", Value: b.worker.endpoint},
						{Key: "to", Value: target.endpoint},
					}})
			}
			st.cfg.Logger.Debug("cluster: job hedged",
				"key", st.jobs[j].Key, "from", b.worker.endpoint, "to", target.endpoint)
			target.queue = append(target.queue, j)
		}
	}
}

// hedgeTarget picks the highest-ranked routable worker other than the one
// already holding the job.
func (st *runState) hedgeTarget(key string, holder *workerState) *workerState {
	for _, ep := range rendezvousRank(key, st.routableEndpoints()) {
		if w := st.byEP[ep]; w != holder {
			return w
		}
	}
	return nil
}

// nextWake returns the earliest future instant the loop must act without an
// event: a cooled-down worker with runnable work, an open breaker due to
// half-open, a parked job burning its CellTimeout, or a hedge deadline.
func (st *runState) nextWake() (time.Time, bool) {
	var wake time.Time
	consider := func(t time.Time) {
		if wake.IsZero() || t.Before(wake) {
			wake = t
		}
	}
	now := time.Now()
	for _, w := range st.workers {
		if w.routable() && len(w.queue) > 0 && w.inflight < st.cfg.InFlight && w.cooldownUntil.After(now) {
			consider(w.cooldownUntil)
		}
		if w.state == wsDead {
			consider(w.reopenAt)
		}
	}
	if st.cfg.CellTimeout > 0 {
		for _, j := range st.parked {
			if !st.done[j] && !st.firstTry[j].IsZero() {
				consider(st.firstTry[j].Add(st.cfg.CellTimeout))
			}
		}
	}
	if st.cfg.HedgeAfter > 0 {
		for _, b := range st.inflight {
			if !b.hedged {
				consider(b.started.Add(st.cfg.HedgeAfter))
			}
		}
	}
	return wake, !wake.IsZero()
}
