// Package stats holds the Registry: the named per-component counters every
// simulated component publishes and every layer of the stack reports. It
// also holds the paper's two ratios of a run against its baseline, Speedup
// and Coverage, which the public API and the experiment engine share.
// Confidence intervals over repeated runs are computed in one place,
// internal/exp/statkit.
package stats

import (
	"encoding/json"
	"sort"
	"strings"
)

// Registry is a hierarchical namespace of named scalar statistics: the
// measurement plane every simulated component reports into. Each component
// (front end, cache hierarchy, BTB, BPU, prefetcher, Boomerang unit)
// publishes its counters under its own namespace — "frontend", "cache",
// "btb", ... — and the full registry flows unchanged through sim.Result,
// the public boomsim.Result, the wire DTOs, boomsimd responses, Prometheus
// metrics, cluster reassembly and the CLIs, so every layer of the stack can
// report full-fidelity per-component statistics instead of a hand-picked
// headline subset.
//
// Names are dotted paths ("frontend.fetch_stall_cycles"); Namespace returns
// a view that prefixes a path segment, so components never see or repeat
// their parent's location. Values are float64 — every simulator counter fits
// without precision loss at simulation scale, and the one numeric type keeps
// the JSON and Prometheus renderings trivial. Registration order is
// preserved for deterministic text output; JSON marshals sorted by name
// (byte-stable, the property the cluster's reassembly tests pin).
//
// A Registry is not safe for concurrent use; publish into it after a run,
// not from the simulation hot path.
type Registry struct {
	prefix string
	m      *regStore
}

type regStore struct {
	names  []string
	values map[string]float64
}

// Publisher is implemented by components that can report their counters
// into a Registry namespace.
type Publisher interface {
	PublishStats(*Registry)
}

// NewRegistry returns an empty root registry.
func NewRegistry() *Registry {
	return &Registry{m: &regStore{values: map[string]float64{}}}
}

// Namespace returns a view of r under the given path segment: sets through
// the view land at "<prefix>.<name>". Nesting composes.
func (r *Registry) Namespace(name string) *Registry {
	prefix := name
	if r.prefix != "" {
		prefix = r.prefix + "." + name
	}
	return &Registry{prefix: prefix, m: r.m}
}

// Set records one statistic under this namespace, overwriting any previous
// value of the same name.
func (r *Registry) Set(name string, v float64) {
	full := name
	if r.prefix != "" {
		full = r.prefix + "." + name
	}
	if _, ok := r.m.values[full]; !ok {
		r.m.names = append(r.m.names, full)
	}
	r.m.values[full] = v
}

// SetUint and SetInt are Set for the counter types the components keep.
func (r *Registry) SetUint(name string, v uint64) { r.Set(name, float64(v)) }

// SetInt records a signed counter.
func (r *Registry) SetInt(name string, v int64) { r.Set(name, float64(v)) }

// Get returns the statistic registered under the full dotted name.
func (r *Registry) Get(name string) (float64, bool) {
	v, ok := r.m.values[name]
	return v, ok
}

// Len returns the number of registered statistics.
func (r *Registry) Len() int { return len(r.m.names) }

// Names returns every registered full name in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.m.names...)
}

// Each visits every statistic in registration order.
func (r *Registry) Each(fn func(name string, v float64)) {
	for _, n := range r.m.names {
		fn(n, r.m.values[n])
	}
}

// Map returns a flat copy of the registry, ready for JSON.
func (r *Registry) Map() map[string]float64 {
	out := make(map[string]float64, len(r.m.names))
	for n, v := range r.m.values {
		out[n] = v
	}
	return out
}

// Namespaces returns the sorted set of top-level namespace segments.
func (r *Registry) Namespaces() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range r.m.names {
		top, _, _ := strings.Cut(n, ".")
		if !seen[top] {
			seen[top] = true
			out = append(out, top)
		}
	}
	sort.Strings(out)
	return out
}

// MarshalJSON renders the registry as one flat object sorted by name.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Map())
}
