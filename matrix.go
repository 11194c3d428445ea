package boomsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"boomsim/internal/obs"
	"boomsim/internal/par"
)

// MatrixOption configures a RunMatrix call.
type MatrixOption func(*matrixConfig)

type matrixConfig struct {
	parallelism int
	cluster     *Cluster
	trace       *Trace
}

// WithParallelism bounds the number of simulations RunMatrix executes
// concurrently (0 or unset = GOMAXPROCS, 1 = sequential). Results are
// identical for every value.
func WithParallelism(n int) MatrixOption {
	return func(c *matrixConfig) {
		c.parallelism = n
	}
}

// WithCluster routes the matrix through a pool of boomsimd workers instead
// of the local worker pool. Results are byte-identical either way — each
// cell is a pure function of its configuration — so callers can switch a
// sweep between local and distributed execution with this one option.
// WithParallelism is ignored for distributed runs; the cluster's own
// in-flight and batch bounds govern fan-out.
func WithCluster(cl *Cluster) MatrixOption {
	return func(c *matrixConfig) {
		c.cluster = cl
	}
}

// WithMatrixTrace records one span per cell into t: wall time, the cell's
// scheme/workload, whether its warmed state was a warm-arena fork or a
// fresh warm, and whether it failed. Local sweeps record on the spot; a
// sweep that also passes WithCluster records through the cluster's own
// trace plumbing instead (set WithClusterTrace on the cluster), so this
// option only observes the local path. Tracing observes a run without
// affecting its results.
func WithMatrixTrace(t *Trace) MatrixOption {
	return func(c *matrixConfig) {
		c.trace = t
	}
}

// RunMatrix executes every simulation across a bounded worker pool and
// returns order-stable results: results[i] is sims[i]'s outcome no matter
// the parallelism or completion order, and — each simulation being a pure
// function of its options — the full result slice is deterministic.
//
// Cancellation is cooperative at both levels: a fired ctx stops queued
// simulations from starting and interrupts the ones in flight, returning
// ErrCanceled. A simulation failure surfaces as the lowest-index error.
func RunMatrix(ctx context.Context, sims []*Simulation, opts ...MatrixOption) ([]Result, error) {
	var cfg matrixConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.cluster != nil {
		return cfg.cluster.RunMatrix(ctx, sims)
	}
	workers := cfg.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for i, s := range sims {
		if s == nil {
			return nil, fmt.Errorf("%w: sims[%d] is nil", ErrInvalidOption, i)
		}
	}

	results := make([]Result, len(sims))
	errs := make([]error, len(sims))
	run := func(i int) {
		results[i], errs[i] = sims[i].Run(ctx)
	}
	if cfg.trace != nil {
		col := cfg.trace.collector()
		run = func(i int) {
			s := sims[i]
			col.SetThreadName(i, "cell "+strconv.Itoa(i)+" "+s.schemeName+"/"+s.workloadName)
			var warm string
			start := time.Now()
			results[i], errs[i] = s.runWithHooks(ctx, func(src string) { warm = src })
			col.Add(obs.Span{
				Name:  "cell",
				Cat:   "sweep",
				Start: start,
				Dur:   time.Since(start),
				TID:   i,
				Args: []obs.Arg{
					{Key: "scheme", Value: s.schemeName},
					{Key: "workload", Value: s.workloadName},
					{Key: "warm", Value: warm},
					{Key: "error", Value: errs[i] != nil},
				},
			})
		}
	}
	ctxErr := par.ForEach(ctx, workers, len(sims), run)

	// Genuine simulation failures outrank cancellation noise: report the
	// lowest-index one so the same failure surfaces at any parallelism.
	canceled := ctxErr != nil
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCanceled) {
			canceled = true
			continue
		}
		return nil, fmt.Errorf("sims[%d] (%s on %s): %w",
			i, sims[i].schemeName, sims[i].workloadName, err)
	}
	if canceled {
		if ctxErr == nil {
			ctxErr = ctx.Err()
		}
		if ctxErr == nil {
			return nil, ErrCanceled
		}
		return nil, fmt.Errorf("%w: %w", ErrCanceled, ctxErr)
	}
	return results, nil
}
