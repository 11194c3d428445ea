package boomsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"boomsim/internal/cluster"
	"boomsim/internal/store"
	"boomsim/internal/wire"
)

// Cluster shards simulation matrices across a pool of boomsimd workers.
// Every matrix cell is routed to a worker by rendezvous hashing on its
// configuration Key, so each worker's content-addressed result cache stays
// hot and repeating a sweep collapses to cache hits; backpressure (per-job
// 429s with a retry_after_ms hint), straggler hedging and worker-death
// re-dispatch are handled by the coordinator, and results come back in
// matrix order, byte-identical to a local RunMatrix of the same
// simulations. Each batch is posted once: a failed post re-dispatches its
// cells after a cooldown, charging each one attempt (WithJobAttempts) and
// the worker one strike toward its circuit breaker.
//
// A Cluster is reusable across sweeps (worker liveness is re-probed per
// run) and Stats/MetricsHandler are safe to read while a sweep runs.
type Cluster struct {
	coord *cluster.Coordinator
}

// ClusterOption configures NewCluster.
type ClusterOption func(*cluster.Config) error

// WithEndpoints names the boomsimd workers (base URLs, e.g.
// "http://sim-3:8080"). Endpoints or a membership file is required.
func WithEndpoints(endpoints ...string) ClusterOption {
	return func(c *cluster.Config) error {
		c.Endpoints = append(c.Endpoints, endpoints...)
		return nil
	}
}

// WithMembershipFile makes the worker pool dynamic: path names a JSON
// document ({"workers": ["http://...", ...]}) that is the authoritative
// worker list, re-read during the sweep so workers added to the file join
// mid-flight (after a health probe) and workers removed from it retire.
// Rendezvous hashing means only the keys owned by the changed workers move.
// WithEndpoints then only seeds the pool for when the file is unreadable.
func WithMembershipFile(path string) ClusterOption {
	return func(c *cluster.Config) error {
		if path == "" {
			return fmt.Errorf("%w: empty membership file path", ErrInvalidOption)
		}
		c.MembershipFile = path
		return nil
	}
}

// WithJournal makes sweeps resumable through the result store directory
// dir, created if missing and never garbage-collected: every completed cell
// is stored durably under its Fingerprint, and a sweep answers every cell
// the store holds without dispatching it, reported as cached. Each cell is
// a pure function of its Fingerprint, so a journal resumes the cells any
// other matrix shares with it, and a boomsimd -store directory is a
// journal of the cells that worker computed. An entry that fails
// verification is quarantined and recomputed.
func WithJournal(dir string) ClusterOption {
	return func(c *cluster.Config) error {
		if dir == "" {
			return fmt.Errorf("%w: empty journal directory", ErrInvalidOption)
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return fmt.Errorf("boomsim: opening journal: %w", err)
		}
		c.Journal = st
		return nil
	}
}

// WithCellTimeout caps the wall-clock a single cell may spend being retried,
// measured from its first dispatch; exceeding it fails the sweep with
// ErrCellTimeout. WithJobAttempts bounds how many times a cell is tried;
// this bounds how long.
func WithCellTimeout(d time.Duration) ClusterOption {
	return func(c *cluster.Config) error {
		if d <= 0 {
			return fmt.Errorf("%w: cell timeout must be positive, got %v", ErrInvalidOption, d)
		}
		c.CellTimeout = d
		return nil
	}
}

// WithWorkerInFlight bounds concurrently outstanding batches per worker
// (default 2) — the coordinator-side half of backpressure.
func WithWorkerInFlight(n int) ClusterOption {
	return func(c *cluster.Config) error {
		if n <= 0 {
			return fmt.Errorf("%w: worker in-flight must be positive, got %d", ErrInvalidOption, n)
		}
		c.InFlight = n
		return nil
	}
}

// WithBatchSize bounds how many cells travel in one worker request
// (default 4).
func WithBatchSize(n int) ClusterOption {
	return func(c *cluster.Config) error {
		if n <= 0 {
			return fmt.Errorf("%w: batch size must be positive, got %d", ErrInvalidOption, n)
		}
		c.BatchSize = n
		return nil
	}
}

// WithJobAttempts bounds dispatch attempts per cell before the sweep fails
// with ErrWorkerFailed (default 4): a failed post of a batch carrying the
// cell, or a per-job error, uses one; a per-job 429 does not.
func WithJobAttempts(n int) ClusterOption {
	return func(c *cluster.Config) error {
		if n <= 0 {
			return fmt.Errorf("%w: job attempts must be positive, got %d", ErrInvalidOption, n)
		}
		c.MaxAttempts = n
		return nil
	}
}

// WithHedgeAfter duplicates a straggling cell onto its next-preferred
// worker once it has been in flight for d (0 disables hedging, the
// default). Results are pure functions of their configuration, so the
// duplicate is harmless — whichever copy finishes first wins.
func WithHedgeAfter(d time.Duration) ClusterOption {
	return func(c *cluster.Config) error {
		if d < 0 {
			return fmt.Errorf("%w: hedge delay must be >= 0, got %v", ErrInvalidOption, d)
		}
		c.HedgeAfter = d
		return nil
	}
}

// WithClusterTimeout caps one batch post, from send to the last byte of
// the answer (default 5m). A post that runs out of time fails like any
// other and its cells re-dispatch.
func WithClusterTimeout(d time.Duration) ClusterOption {
	return func(c *cluster.Config) error {
		if d <= 0 {
			return fmt.Errorf("%w: cluster timeout must be positive, got %v", ErrInvalidOption, d)
		}
		c.RequestTimeout = d
		return nil
	}
}

// WithClusterClient substitutes the underlying *http.Client (custom
// transports, TLS, test doubles).
func WithClusterClient(hc *http.Client) ClusterOption {
	return func(c *cluster.Config) error {
		if hc == nil {
			return fmt.Errorf("%w: nil cluster HTTP client", ErrInvalidOption)
		}
		c.HTTP = hc
		return nil
	}
}

// WithClusterTrace records the sweep into t: one "cell" span per matrix
// cell plus queue/dispatch/sim phase spans, retry and hedge markers, all
// stamped with t's trace ID. The same ID travels to workers in every batch
// request, so worker-side logs correlate with the coordinator's spans and a
// multi-worker sweep merges into one consistent trace. Export with
// Trace.WriteChromeTrace. Tracing observes a sweep without affecting its
// results.
func WithClusterTrace(t *Trace) ClusterOption {
	return func(c *cluster.Config) error {
		if t == nil {
			return fmt.Errorf("%w: nil cluster trace", ErrInvalidOption)
		}
		c.Trace = t.collector()
		c.TraceID = t.ID()
		return nil
	}
}

// WithClusterLogger routes coordinator lifecycle logs (sweep start/finish,
// journal resume, breaker transitions, membership changes, retries, hedges)
// to log. Nil (the default) discards them.
func WithClusterLogger(log *slog.Logger) ClusterOption {
	return func(c *cluster.Config) error {
		c.Logger = log
		return nil
	}
}

// NewCluster builds a Cluster from options; WithEndpoints or
// WithMembershipFile is mandatory.
func NewCluster(opts ...ClusterOption) (*Cluster, error) {
	var cfg cluster.Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		return nil, wrapClusterError(err)
	}
	return &Cluster{coord: coord}, nil
}

// RunMatrix executes every simulation across the worker pool and returns
// order-stable results: results[i] is sims[i]'s outcome exactly as a local
// RunMatrix would produce it (each cell is a pure function of its
// configuration, and Result JSON round-trips bytes exactly). Progress
// callbacks do not cross the wire and are ignored.
func (c *Cluster) RunMatrix(ctx context.Context, sims []*Simulation) ([]Result, error) {
	jobs := make([]cluster.Job, len(sims))
	for i, s := range sims {
		if s == nil {
			return nil, fmt.Errorf("%w: sims[%d] is nil", ErrInvalidOption, i)
		}
		jobs[i] = cluster.Job{Key: s.Fingerprint(), Req: wireRequest(s)}
	}
	out, err := c.coord.Run(ctx, jobs)
	if err != nil {
		return nil, wrapClusterError(err)
	}
	results := make([]Result, len(out))
	for i, jr := range out {
		if err := json.Unmarshal(jr.Result, &results[i]); err != nil {
			return nil, fmt.Errorf("boomsim: decoding sims[%d] result: %w", i, err)
		}
	}
	return results, nil
}

// Stats snapshots the coordinator counters; safe during a running sweep.
func (c *Cluster) Stats() ClusterStats { return c.coord.Stats() }

// MembershipView reports the coordinator's live opinion of its worker pool:
// one row per tracked endpoint with its circuit-breaker state ("unprobed"
// until a health probe answers, "live", "suspect" while a half-open breaker
// probes, "dead" while open or retired), plus the aggregate counts. Safe
// during a running sweep.
func (c *Cluster) MembershipView() ClusterMembershipView { return c.coord.MembershipView() }

// MetricsHandler serves the coordinator's counters in Prometheus text
// format: jobs dispatched/retried/hedged, cache-hit ratio, per-worker
// request counts, failures and latency.
func (c *Cluster) MetricsHandler() http.Handler { return c.coord.MetricsHandler() }

// ClusterStats is a point-in-time snapshot of a Cluster's counters; its
// CacheHitRatio is the fraction of completed cells answered from worker
// result caches.
type ClusterStats = cluster.Stats

// ClusterWorkerStats is one worker endpoint's share of a Cluster's
// counters.
type ClusterWorkerStats = cluster.WorkerStats

// ClusterCellTiming is one row of a Cluster's slowest-cells leaderboard.
type ClusterCellTiming = cluster.CellTiming

// ClusterMembershipView is a Cluster's pool as the coordinator sees it.
type ClusterMembershipView = wire.MembershipView

// ClusterMemberState is one worker endpoint's circuit state.
type ClusterMemberState = wire.MembershipWorker

// wireRequest spells out the simulation's full configuration — defaults
// included — so the worker reconstructs the exact Key-identified cell
// regardless of its own defaults. Inline declarative schemes travel as
// their JSON config, so custom scenarios run on workers that have never
// seen them registered.
func wireRequest(s *Simulation) wire.RunRequest {
	imageSeed, walkSeed := s.imageSeed, s.walkSeed
	warm, measure := s.warmInstrs, s.measureInstrs
	req := wire.RunRequest{
		Scheme:        s.schemeName,
		Workload:      s.workloadName,
		Predictor:     s.predictor,
		BTBEntries:    s.btbEntries,
		LLCLatency:    s.llcLatency,
		FootprintKB:   s.footprintKB,
		ImageSeed:     &imageSeed,
		WalkSeed:      &walkSeed,
		WarmInstrs:    &warm,
		MeasureInstrs: &measure,
		MaxCycles:     s.maxCycles,
		FlightEvery:   s.flightEvery,
	}
	if s.schemeCfg != nil {
		req.Scheme = ""
		req.SchemeConfig = s.schemeCfgJSON()
	}
	return req
}

// wrapClusterError maps coordinator failures onto the public sentinels.
func wrapClusterError(err error) error {
	switch {
	case errors.Is(err, cluster.ErrNoWorkers):
		return fmt.Errorf("%w: %w", ErrNoWorkers, err)
	case errors.Is(err, cluster.ErrWorkerFailed):
		return fmt.Errorf("%w: %w", ErrWorkerFailed, err)
	case errors.Is(err, cluster.ErrCellTimeout):
		return fmt.Errorf("%w: %w", ErrCellTimeout, err)
	case errors.Is(err, cluster.ErrJobInvalid):
		return fmt.Errorf("%w: %w", ErrInvalidOption, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return err
	}
}
