package boomsim

import "errors"

// Sentinel errors returned by the public API. Match them with errors.Is;
// the concrete errors wrap these with the offending name and the available
// alternatives.
var (
	// ErrUnknownScheme is returned by New when WithScheme names a scheme
	// that is not in the registry.
	ErrUnknownScheme = errors.New("boomsim: unknown scheme")

	// ErrUnknownWorkload is returned by New when WithWorkload names a
	// workload that is not in the registry.
	ErrUnknownWorkload = errors.New("boomsim: unknown workload")

	// ErrCanceled is returned by Run and RunMatrix when the context fires
	// before the simulation completes. It wraps the context's own error,
	// so errors.Is(err, context.Canceled) (or DeadlineExceeded) also
	// holds.
	ErrCanceled = errors.New("boomsim: run canceled")

	// ErrInvalidOption is returned by New when an option carries an
	// unusable value (zero measurement window, negative BTB size, unknown
	// predictor name, ...).
	ErrInvalidOption = errors.New("boomsim: invalid option")

	// ErrNoWorkers is returned by NewCluster and distributed runs when the
	// worker pool is empty or every worker is unreachable or has been
	// declared dead mid-sweep.
	ErrNoWorkers = errors.New("boomsim: no live cluster workers")

	// ErrWorkerFailed is returned by distributed runs when a matrix cell
	// exhausted its dispatch attempts across the pool.
	ErrWorkerFailed = errors.New("boomsim: cluster worker failed")

	// ErrCellTimeout is returned by distributed runs when a matrix cell
	// exhausted its retry wall-clock budget (WithCellTimeout): attempts
	// were still available, but the cell had been failing for too long.
	ErrCellTimeout = errors.New("boomsim: cluster cell timed out")

	// ErrInvalidSpec is returned by ParseExperimentSpec, LoadExperimentSpec
	// and RunExperiment when an experiment spec is structurally unusable:
	// wrong version, empty seed list, duplicate schemes, malformed
	// criteria, unknown fields.
	ErrInvalidSpec = errors.New("boomsim: invalid experiment spec")

	// ErrUnknownMetric is returned when an experiment criterion references
	// a metric that is neither derived (speedup, coverage, recovery), nor
	// a headline Result field, nor present in the judged scheme's
	// per-component statistics registry.
	ErrUnknownMetric = errors.New("boomsim: unknown experiment metric")
)
