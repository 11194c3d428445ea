// Package chaos is the repo's fault-injection harness: seeded, deterministic
// wrappers around the cluster's HTTP transport and the result store's
// filesystem, used by tests to prove that sweeps survive worker kills,
// 5xx storms, timeouts, slow responses, partial writes and torn store
// entries (a worker's -store or a coordinator's journal, one format) with
// results byte-identical to an unfaulted run.
//
// This package is test-only. A CI grep (and the chaos-e2e job) keeps it out
// of every production import path: nothing under cmd/, examples/ or a
// non-test file may import it.
//
// Determinism contract: every injected fault is drawn from a single
// rand.PCG seeded by the caller, consumed in call order. Faults are
// therefore reproducible for a fixed seed and call sequence — rerunning a
// failing test with its logged seed replays the exact fault schedule.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Plan is one transport's fault mix. Probabilities are in [0,1] and are
// evaluated in field order per request; at most one fault fires per attempt.
type Plan struct {
	// PKill drops the request with a transport error — indistinguishable
	// from a worker dying mid-connection.
	PKill float64
	// P503 synthesizes a whole-request 503: an overloaded proxy or load
	// balancer in front of a worker. (A draining boomsimd answers /v1/jobs
	// with a 200 carrying per-job 503s instead.)
	P503 float64
	// P500 synthesizes a 500 — a worker bug or an OOM-killed handler.
	P500 float64
	// PSlow delays the request by SlowDelay before forwarding it: a
	// straggler, not a failure.
	PSlow     float64
	SlowDelay time.Duration
	// MaxFaults, when >0, bounds total injected faults so a fault-heavy plan
	// cannot starve a bounded-retry sweep forever.
	MaxFaults int
}

// Transport wraps an http.RoundTripper with seeded fault injection.
// Matched health probes pass through unfaulted (Spare), so liveness checks
// observe the real worker while job traffic suffers.
type Transport struct {
	base  http.RoundTripper
	plan  Plan
	spare func(*http.Request) bool

	mu       sync.Mutex
	rng      *rand.Rand
	injected int

	kills  int
	f503s  int
	f500s  int
	slows  int
	passed int
}

// NewTransport builds a faulty transport over base (nil = the default
// transport) with the given seed and plan.
func NewTransport(base http.RoundTripper, seed uint64, plan Plan) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base: base,
		plan: plan,
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		// Health probes stay clean by default: chaos tests target the job
		// path, and a probe-killed worker never enters the pool at all.
		spare: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/healthz") },
	}
}

// errInjected marks a chaos-injected transport failure.
var errInjected = errors.New("chaos: injected transport failure")

// RoundTrip implements http.RoundTripper with the plan's fault mix.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.spare != nil && t.spare(req) {
		return t.base.RoundTrip(req)
	}
	t.mu.Lock()
	budget := t.plan.MaxFaults <= 0 || t.injected < t.plan.MaxFaults
	var fault string
	if budget {
		switch u := t.rng.Float64(); {
		case u < t.plan.PKill:
			fault = "kill"
		case u < t.plan.PKill+t.plan.P503:
			fault = "503"
		case u < t.plan.PKill+t.plan.P503+t.plan.P500:
			fault = "500"
		case u < t.plan.PKill+t.plan.P503+t.plan.P500+t.plan.PSlow:
			fault = "slow"
		}
	}
	if fault != "" {
		t.injected++
	}
	switch fault {
	case "kill":
		t.kills++
	case "503":
		t.f503s++
	case "500":
		t.f500s++
	case "slow":
		t.slows++
	default:
		t.passed++
	}
	t.mu.Unlock()

	switch fault {
	case "kill":
		// Drain and drop: the worker never sees the request complete.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: connection reset to %s", errInjected, req.URL.Host)
	case "503":
		return synthetic(req, http.StatusServiceUnavailable, "chaos: worker unavailable"), nil
	case "500":
		return synthetic(req, http.StatusInternalServerError, "chaos: worker fault"), nil
	case "slow":
		select {
		case <-time.After(t.plan.SlowDelay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.base.RoundTrip(req)
}

func synthetic(req *http.Request, status int, body string) *http.Response {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: status,
		Status:     http.StatusText(status),
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader([]byte(body))),
		Request:    req,
	}
}

// Counts reports the transport's injected-fault tally:
// kills, 503s, 500s, slows, and unfaulted passes.
func (t *Transport) Counts() (kills, f503s, f500s, slows, passed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kills, t.f503s, t.f500s, t.slows, t.passed
}
