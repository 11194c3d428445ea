// Package wire defines the JSON types shared by boomsimd's HTTP API and the
// cluster coordinator. It deliberately imports nothing from the rest of the
// module: the root boomsim package builds these requests, internal/server
// serves them, and internal/cluster routes them, so this is the one
// vocabulary all three may depend on without import cycles.
//
// Simulation results travel as json.RawMessage here. The server marshals
// boomsim.Result into the field; clients that want typed access (the root
// package's distributed runner) unmarshal it back — boomsim.Result
// round-trips bytes exactly — while transport-only consumers (the
// coordinator) never pay for a decode they do not need.
package wire

import "encoding/json"

// RunRequest is the wire form of one simulation configuration. Absent
// fields take boomsim.New's documented defaults (Boomerang on Apache,
// Table I core, seeds 1/1, 200K warm + 1M measured instructions); pointer
// fields distinguish "absent" from an explicit zero.
type RunRequest struct {
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	// SchemeConfig, when present, is an inline declarative scheme definition
	// (the JSON form of boomsim.SchemeConfig) that overrides Scheme: custom
	// scenarios travel with the request instead of requiring registration on
	// every worker. Carried raw — this package stays a dumb vocabulary; the
	// server decodes and validates it.
	SchemeConfig  json.RawMessage `json:"scheme_config,omitempty"`
	Predictor     string          `json:"predictor,omitempty"`
	BTBEntries    int             `json:"btb_entries,omitempty"`
	LLCLatency    int             `json:"llc_latency,omitempty"`
	FootprintKB   int             `json:"footprint_kb,omitempty"`
	ImageSeed     *uint64         `json:"image_seed,omitempty"`
	WalkSeed      *uint64         `json:"walk_seed,omitempty"`
	WarmInstrs    *uint64         `json:"warm_instrs,omitempty"`
	MeasureInstrs *uint64         `json:"measure_instrs,omitempty"`
	MaxCycles     int64           `json:"max_cycles,omitempty"`
	// FlightEvery > 0 attaches the simulator flight recorder at this epoch
	// granularity (cycles); the result then carries per-epoch counters. It
	// participates in the simulation's identity (recorded results have
	// different bytes), so coordinator and worker fingerprints agree.
	FlightEvery int64 `json:"flight_every,omitempty"`
	// TimeoutMS tightens this request's deadline below the server cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TraceID correlates this request with a client-side sweep trace; the
	// server only logs it. Never part of the simulation's identity.
	TraceID string `json:"trace_id,omitempty"`
}

// RunResponse is the client-side view of POST /v1/run's body: the shape
// internal/server writes (with a typed Result), decoded with the result
// left raw.
type RunResponse struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// JobsRequest is a batch of independent jobs for POST /v1/jobs. Every job
// is admitted, cached and executed on its own, and failures are reported
// per job so a coordinator can re-dispatch exactly the cells that need it.
type JobsRequest struct {
	Jobs []RunRequest `json:"jobs"`
	// TimeoutMS tightens the whole batch's deadline below the server cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TraceID is the sweep trace this batch belongs to, minted by the
	// coordinator's client and propagated so worker-side logs correlate
	// with coordinator-side spans.
	TraceID string `json:"trace_id,omitempty"`
}

// JobResult is one job's outcome: exactly one of Result or Error is set.
type JobResult struct {
	Key    string          `json:"key,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	// SimNanos is the worker-side wall time actually spent simulating this
	// job (0 on a cache hit) and Warm how its warmed state was obtained
	// ("fork" from the warm arena, "fresh", "" when not simulated) — the
	// facts a coordinator's trace needs to attribute a cell's latency.
	SimNanos int64  `json:"sim_nanos,omitempty"`
	Warm     string `json:"warm,omitempty"`

	// Error carries the failure text and Status its HTTP-equivalent code
	// (429 queue full, 400/404 bad configuration, 503 draining, 504
	// deadline). RetryAfterMS, when set, is the server's backoff hint —
	// the in-band equivalent of a Retry-After header.
	Error        string `json:"error,omitempty"`
	Status       int    `json:"status,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Retryable reports whether the job's failure is worth re-dispatching:
// capacity and transient conditions are, configuration errors are not.
func (j JobResult) Retryable() bool {
	switch j.Status {
	case 0:
		return false
	case 400, 404:
		return false
	}
	return true
}

// JobsResponse carries per-job outcomes in request order.
type JobsResponse struct {
	Jobs []JobResult `json:"jobs"`
}

// MaxJobResultBytes bounds one job's entry in a /v1/jobs answer as
// boomsimd writes it. The largest entry, 29.7 MB in the compact answer, is
// a Result with the flight recorder's full epoch count, every counter at
// its longest encoding, every statistic a built-in scheme registers and a
// custom scheme name as long as a request body allows; a root test builds
// it and pins that it fits. The coordinator reads at most this many bytes
// per job of a batch. The bound still holds the 40.3 MB the same entry took
// when boomsimd indented its answers, so a coordinator can read an older
// worker during a rolling upgrade.
const MaxJobResultBytes = 48 << 20

// Health is GET /healthz's body: liveness plus the build and load facts a
// coordinator (or an operator) needs for placement decisions.
type Health struct {
	Status    string `json:"status"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`

	Schemes   int `json:"schemes"`
	Workloads int `json:"workloads"`

	// Load: current in-flight simulations and admitted flights against
	// their configured capacities.
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	InFlightSims  int64 `json:"inflight_sims"`
	QueuedFlights int64 `json:"queued_flights"`
	CacheEntries  int   `json:"cache_entries"`

	// Store reports the durable result store when the worker has one: the
	// recovery state an operator checks after a restart or a corruption.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is the durable result store's slice of /healthz.
type StoreHealth struct {
	Dir     string `json:"dir"`
	Entries int64  `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Writes  uint64 `json:"writes"`
	// Quarantined counts entries that failed fingerprint verification on
	// read and were moved aside instead of served.
	Quarantined uint64 `json:"quarantined"`
}

// Membership is the dynamic worker-pool document a coordinator watches (a
// file or an endpoint): the authoritative list of worker base URLs. Workers
// appearing mid-sweep join the pool after a health probe; workers removed
// mid-sweep are retired and only their rendezvous keys move.
type Membership struct {
	Workers []string `json:"workers"`
}

// MembershipView is the coordinator's live opinion of its pool, served on
// the coordinator's own /healthz for operators: per-worker circuit state
// ("unprobed" until a health probe answers, "live", "suspect" while a
// reopened breaker probes, "dead" while open) plus the aggregate counts.
type MembershipView struct {
	Unprobed int                `json:"unprobed"`
	Live     int                `json:"live"`
	Suspect  int                `json:"suspect"`
	Dead     int                `json:"dead"`
	Workers  []MembershipWorker `json:"workers"`
}

// MembershipWorker is one endpoint's row in a MembershipView.
type MembershipWorker struct {
	Endpoint string `json:"endpoint"`
	State    string `json:"state"`
}
