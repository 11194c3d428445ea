package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"boomsim/internal/wire"
)

// Metrics instruments a Coordinator: plain atomics so Stats() can be read
// live from another goroutine (the kill-switch in the e2e test, boomctl's
// /metrics listener) while the dispatch loop mutates them.
type metrics struct {
	batchesDispatched atomic.Uint64
	jobsDispatched    atomic.Uint64
	jobsCompleted     atomic.Uint64
	jobsResumed       atomic.Uint64
	jobsRetried       atomic.Uint64
	jobsHedged        atomic.Uint64
	cacheHits         atomic.Uint64
	workerDeaths      atomic.Uint64
	breakerCloses     atomic.Uint64
	probeFailures     atomic.Uint64
	workersJoined     atomic.Uint64
	workersRemoved    atomic.Uint64
	membershipErrors  atomic.Uint64
	journalErrors     atomic.Uint64

	// cellsRetried counts distinct cells that needed at least one
	// re-dispatch (jobsRetried counts every re-dispatch event).
	cellsRetried atomic.Uint64

	// mu guards the worker list, which grows when membership admits
	// endpoints the coordinator was not born with; the per-worker counters
	// themselves stay lock-free.
	mu      sync.Mutex
	workers []*workerMetrics

	// slowMu guards the slowest-cells leaderboard: the coordinator used to
	// discard per-cell timing the moment a job settled; this retains the
	// top-N so /healthz and boomctl can name the cells that gated the sweep
	// even when tracing is off.
	slowMu  sync.Mutex
	slowest []CellTiming
}

// topSlowCells bounds the slowest-cells leaderboard.
const topSlowCells = 8

// CellTiming is one cell's completion wall-clock, measured from its first
// dispatch to its settled result (retries and hedges included).
type CellTiming struct {
	Key    string  `json:"key"`
	Worker string  `json:"worker"`
	MS     float64 `json:"ms"`
}

// observeCell records one settled cell's timing into the leaderboard.
func (m *metrics) observeCell(key, worker string, ms float64) {
	m.slowMu.Lock()
	defer m.slowMu.Unlock()
	i := len(m.slowest)
	for i > 0 && m.slowest[i-1].MS < ms {
		i--
	}
	if i >= topSlowCells {
		return
	}
	m.slowest = append(m.slowest, CellTiming{})
	copy(m.slowest[i+1:], m.slowest[i:])
	m.slowest[i] = CellTiming{Key: key, Worker: worker, MS: ms}
	if len(m.slowest) > topSlowCells {
		m.slowest = m.slowest[:topSlowCells]
	}
}

func (m *metrics) slowestSnapshot() []CellTiming {
	m.slowMu.Lock()
	defer m.slowMu.Unlock()
	out := make([]CellTiming, len(m.slowest))
	copy(out, m.slowest)
	return out
}

// workerMetrics is one endpoint's share.
type workerMetrics struct {
	endpoint     string
	state        atomic.Int32 // wsUnprobed/wsLive/wsSuspect/wsDead/wsRemoved
	requests     atomic.Uint64
	failures     atomic.Uint64
	jobs         atomic.Uint64
	latencyNanos atomic.Uint64
}

// Stats snapshots the coordinator counters.
type Stats struct {
	BatchesDispatched uint64 `json:"batches_dispatched"`
	JobsDispatched    uint64 `json:"jobs_dispatched"`
	JobsCompleted     uint64 `json:"jobs_completed"`
	// JobsResumed counts cells answered from the sweep journal without any
	// dispatch: JobsCompleted + JobsResumed covers the whole matrix, and on
	// a resumed sweep JobsCompleted is exactly the non-journaled remainder.
	JobsResumed    uint64 `json:"jobs_resumed"`
	JobsRetried    uint64 `json:"jobs_retried"`
	JobsHedged     uint64 `json:"jobs_hedged"`
	CacheHits      uint64 `json:"cache_hits"`
	WorkerDeaths   uint64 `json:"worker_deaths"`
	BreakerCloses  uint64 `json:"breaker_closes"`
	ProbeFailures  uint64 `json:"probe_failures"`
	WorkersJoined  uint64 `json:"workers_joined"`
	WorkersRemoved uint64 `json:"workers_removed"`
	// MembershipErrors counts unreadable membership-file reads (the last
	// good view stayed in effect); JournalErrors counts sweeps whose
	// journal stopped persisting (results unaffected, resumability lost).
	MembershipErrors uint64 `json:"membership_errors"`
	JournalErrors    uint64 `json:"journal_errors"`

	// CellsTotal is every matrix cell with a recorded result, however it
	// got one (dispatch or journal resume); CellsRetried counts the
	// distinct cells that needed at least one re-dispatch. SlowestCellMS
	// and SlowestCells retain per-cell completion timing — wall clock from
	// first dispatch to settled result — that the coordinator previously
	// discarded; available even when tracing is off.
	CellsTotal    uint64       `json:"cells_total"`
	CellsRetried  uint64       `json:"cells_retried"`
	SlowestCellMS float64      `json:"slowest_cell_ms"`
	SlowestCells  []CellTiming `json:"slowest_cells,omitempty"`

	Workers []WorkerStats `json:"workers"`
}

// WorkerStats is one endpoint's snapshot.
type WorkerStats struct {
	Endpoint string `json:"endpoint"`
	Alive    bool   `json:"alive"`
	// State is the circuit-breaker state: "unprobed" (no health probe has
	// answered yet), "live", "suspect" (half-open, probing), "dead" (open,
	// cooling down) or "removed" (retired from the run). Alive means
	// routable: live or suspect.
	State        string `json:"state"`
	Requests     uint64 `json:"requests"`
	Failures     uint64 `json:"failures"`
	Jobs         uint64 `json:"jobs"`
	LatencyNanos uint64 `json:"latency_nanos"`
}

// CacheHitRatio is the coordinator-observed fraction of completed jobs the
// workers answered from their result caches — the number key-affine
// routing exists to maximise on repeat sweeps.
func (s Stats) CacheHitRatio() float64 {
	if s.JobsCompleted == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.JobsCompleted)
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{}
	for _, ep := range endpoints {
		m.worker(ep)
	}
	return m
}

// worker returns ep's metrics, creating them on first sight — endpoints
// can join the pool mid-sweep.
func (m *metrics) worker(endpoint string) *workerMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		if w.endpoint == endpoint {
			return w
		}
	}
	w := &workerMetrics{endpoint: endpoint} // wsUnprobed
	m.workers = append(m.workers, w)
	return w
}

func (m *metrics) workerSnapshot() []WorkerStats {
	m.mu.Lock()
	workers := make([]*workerMetrics, len(m.workers))
	copy(workers, m.workers)
	m.mu.Unlock()
	out := make([]WorkerStats, len(workers))
	for i, w := range workers {
		st := w.state.Load()
		out[i] = WorkerStats{
			Endpoint:     w.endpoint,
			Alive:        st == wsLive || st == wsSuspect,
			State:        stateName(st),
			Requests:     w.requests.Load(),
			Failures:     w.failures.Load(),
			Jobs:         w.jobs.Load(),
			LatencyNanos: w.latencyNanos.Load(),
		}
	}
	return out
}

func (m *metrics) snapshot() Stats {
	slowest := m.slowestSnapshot()
	var slowMS float64
	if len(slowest) > 0 {
		slowMS = slowest[0].MS
	}
	return Stats{
		CellsTotal:    m.jobsCompleted.Load() + m.jobsResumed.Load(),
		CellsRetried:  m.cellsRetried.Load(),
		SlowestCellMS: slowMS,
		SlowestCells:  slowest,

		BatchesDispatched: m.batchesDispatched.Load(),
		JobsDispatched:    m.jobsDispatched.Load(),
		JobsCompleted:     m.jobsCompleted.Load(),
		JobsResumed:       m.jobsResumed.Load(),
		JobsRetried:       m.jobsRetried.Load(),
		JobsHedged:        m.jobsHedged.Load(),
		CacheHits:         m.cacheHits.Load(),
		WorkerDeaths:      m.workerDeaths.Load(),
		BreakerCloses:     m.breakerCloses.Load(),
		ProbeFailures:     m.probeFailures.Load(),
		WorkersJoined:     m.workersJoined.Load(),
		WorkersRemoved:    m.workersRemoved.Load(),
		MembershipErrors:  m.membershipErrors.Load(),
		JournalErrors:     m.journalErrors.Load(),
		Workers:           m.workerSnapshot(),
	}
}

// membershipView condenses the worker snapshot into the operator-facing
// pool view ("removed" workers report as dead — either way they take no
// traffic).
func (m *metrics) membershipView() wire.MembershipView {
	var v wire.MembershipView
	for _, ws := range m.workerSnapshot() {
		state := ws.State
		switch state {
		case "unprobed":
			v.Unprobed++
		case "live":
			v.Live++
		case "suspect":
			v.Suspect++
		default:
			state = "dead"
			v.Dead++
		}
		v.Workers = append(v.Workers, wire.MembershipWorker{Endpoint: ws.Endpoint, State: state})
	}
	return v
}

// serveHTTP renders the counters in Prometheus text exposition format.
func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(name, kind, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, value)
	}
	write("boomsim_coordinator_batches_dispatched_total", "counter", "Batches posted to workers.", s.BatchesDispatched)
	write("boomsim_coordinator_jobs_dispatched_total", "counter", "Job dispatches, including retries and hedges.", s.JobsDispatched)
	write("boomsim_coordinator_jobs_completed_total", "counter", "Jobs with a recorded result.", s.JobsCompleted)
	write("boomsim_coordinator_jobs_resumed_total", "counter", "Jobs answered from the sweep journal without dispatch.", s.JobsResumed)
	write("boomsim_coordinator_jobs_retried_total", "counter", "Job re-dispatches after per-job or transport failures.", s.JobsRetried)
	write("boomsim_coordinator_jobs_hedged_total", "counter", "Duplicate dispatches of straggling jobs.", s.JobsHedged)
	write("boomsim_coordinator_cache_hits_total", "counter", "Jobs answered from a worker's result cache.", s.CacheHits)
	write("boomsim_coordinator_cache_hit_ratio", "gauge", "Coordinator-observed worker cache-hit ratio.", s.CacheHitRatio())
	write("boomsim_coordinator_worker_deaths_total", "counter", "Circuit breakers opened (worker declared dead and drained).", s.WorkerDeaths)
	write("boomsim_coordinator_breaker_closes_total", "counter", "Circuit breakers closed after a clean half-open probe.", s.BreakerCloses)
	write("boomsim_coordinator_probe_failures_total", "counter", "Health probes that failed at sweep start.", s.ProbeFailures)
	write("boomsim_coordinator_workers_joined_total", "counter", "Workers admitted by membership changes mid-sweep.", s.WorkersJoined)
	write("boomsim_coordinator_workers_removed_total", "counter", "Workers retired by membership changes mid-sweep.", s.WorkersRemoved)
	write("boomsim_coordinator_membership_errors_total", "counter", "Membership file reads that failed.", s.MembershipErrors)
	write("boomsim_coordinator_journal_errors_total", "counter", "Sweeps whose journal stopped persisting.", s.JournalErrors)
	write("boomsim_coordinator_cells_total", "counter", "Matrix cells with a recorded result (dispatched or journal-resumed).", s.CellsTotal)
	write("boomsim_coordinator_cells_retried_total", "counter", "Distinct cells that needed at least one re-dispatch.", s.CellsRetried)
	write("boomsim_coordinator_slowest_cell_ms", "gauge", "Slowest observed cell completion, first dispatch to settled result.", s.SlowestCellMS)
	perWorker := func(name, kind, help string, value func(WorkerStats) any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, ws := range s.Workers {
			fmt.Fprintf(w, "%s{worker=%q} %v\n", name, ws.Endpoint, value(ws))
		}
	}
	perWorker("boomsim_coordinator_worker_alive", "gauge", "1 while the worker is routable (breaker closed or half-open).",
		func(ws WorkerStats) any { return b2i(ws.Alive) })
	perWorker("boomsim_coordinator_worker_requests_total", "counter", "Batch requests sent to the worker.",
		func(ws WorkerStats) any { return ws.Requests })
	perWorker("boomsim_coordinator_worker_failures_total", "counter", "Batch requests that failed at the transport.",
		func(ws WorkerStats) any { return ws.Failures })
	perWorker("boomsim_coordinator_worker_jobs_total", "counter", "Jobs completed by the worker.",
		func(ws WorkerStats) any { return ws.Jobs })
	perWorker("boomsim_coordinator_worker_latency_seconds_total", "counter", "Wall time spent in the worker's batch requests.",
		func(ws WorkerStats) any { return float64(ws.LatencyNanos) / 1e9 })
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
