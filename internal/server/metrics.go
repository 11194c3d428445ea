package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"boomsim"
)

// metrics is the service's instrumentation: plain atomics, rendered in
// Prometheus text exposition format by the /metrics handler. Stats gives
// tests and embedders a consistent snapshot without scraping.
type metrics struct {
	requests     atomic.Uint64 // HTTP requests accepted on /v1/* endpoints
	rejected     atomic.Uint64 // 429 responses (queue full)
	cacheHits    atomic.Uint64 // requests answered from the result cache
	cacheMisses  atomic.Uint64 // requests that had to consult a flight
	flightShared atomic.Uint64 // requests collapsed onto an in-flight run
	simsStarted  atomic.Uint64 // simulations actually executed
	simsInflight atomic.Int64  // simulations running right now
	queued       atomic.Int64  // flights admitted (queued + running)
	simNanos     atomic.Uint64 // wall time spent simulating
	simInstrs    atomic.Uint64 // instructions retired across all runs

	// compMu guards compTotals: per-component registry statistics summed
	// across every executed simulation (cache hits excluded — they did not
	// simulate). Exposed on /metrics as
	// boomsimd_sim_component_total{stat="..."}, giving operators the full
	// per-component measurement plane, not just the headline counters.
	compMu     sync.Mutex
	compTotals map[string]float64
}

// observeComponents folds one executed run's per-component registry into
// the service-lifetime totals.
func (m *metrics) observeComponents(r boomsim.Result) {
	if len(r.Stats) == 0 {
		return
	}
	m.compMu.Lock()
	if m.compTotals == nil {
		m.compTotals = make(map[string]float64, len(r.Stats))
	}
	for k, v := range r.Stats {
		m.compTotals[k] += v
	}
	m.compMu.Unlock()
}

// componentTotals snapshots the per-component sums in sorted order.
func (m *metrics) componentTotals() ([]string, map[string]float64) {
	m.compMu.Lock()
	defer m.compMu.Unlock()
	names := make([]string, 0, len(m.compTotals))
	out := make(map[string]float64, len(m.compTotals))
	for k, v := range m.compTotals {
		names = append(names, k)
		out[k] = v
	}
	sort.Strings(names)
	return names, out
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Requests     uint64 `json:"requests"`
	Rejected     uint64 `json:"rejected"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	FlightShared uint64 `json:"flight_shared"`
	SimsStarted  uint64 `json:"sims_started"`
	SimsInflight int64  `json:"sims_inflight"`
	Queued       int64  `json:"queued"`
	SimNanos     uint64 `json:"sim_nanos"`
	SimInstrs    uint64 `json:"sim_instrs"`
}

// NsPerInstr is the service-lifetime average simulation speed; the
// benchmark's serve-mixed workload reports it as server.sim_ns_per_instr.
func (s Stats) NsPerInstr() float64 {
	if s.SimInstrs == 0 {
		return 0
	}
	return float64(s.SimNanos) / float64(s.SimInstrs)
}

func (m *metrics) snapshot() Stats {
	return Stats{
		Requests:     m.requests.Load(),
		Rejected:     m.rejected.Load(),
		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMisses.Load(),
		FlightShared: m.flightShared.Load(),
		SimsStarted:  m.simsStarted.Load(),
		SimsInflight: m.simsInflight.Load(),
		Queued:       m.queued.Load(),
		SimNanos:     m.simNanos.Load(),
		SimInstrs:    m.simInstrs.Load(),
	}
}

func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(name, kind, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, value)
	}
	write("boomsimd_requests_total", "counter", "API requests accepted.", s.Requests)
	write("boomsimd_rejected_total", "counter", "Requests rejected with 429 (queue full).", s.Rejected)
	write("boomsimd_cache_hits_total", "counter", "Requests served from the result cache.", s.CacheHits)
	write("boomsimd_cache_misses_total", "counter", "Requests not in the result cache.", s.CacheMisses)
	write("boomsimd_flight_shared_total", "counter", "Requests collapsed onto an in-flight simulation.", s.FlightShared)
	write("boomsimd_sims_started_total", "counter", "Simulations executed.", s.SimsStarted)
	write("boomsimd_sims_inflight", "gauge", "Simulations running now.", s.SimsInflight)
	write("boomsimd_queue_depth", "gauge", "Flights admitted (queued plus running).", s.Queued)
	write("boomsimd_sim_instructions_total", "counter", "Instructions retired across all simulations.", s.SimInstrs)
	write("boomsimd_sim_ns_per_instr", "gauge", "Lifetime average simulation cost in ns per instruction.", s.NsPerInstr())

	// Per-component registry totals: one labeled series per dotted stat
	// name, summed over executed runs.
	names, totals := m.componentTotals()
	if len(names) > 0 {
		fmt.Fprintf(w, "# HELP boomsimd_sim_component_total Per-component simulator statistics summed across executed runs.\n")
		fmt.Fprintf(w, "# TYPE boomsimd_sim_component_total counter\n")
		for _, n := range names {
			fmt.Fprintf(w, "boomsimd_sim_component_total{stat=%q} %v\n", n, totals[n])
		}
	}
}
