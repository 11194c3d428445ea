package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/wire"
)

// fastRun is a request that simulates in a few milliseconds; seed
// disambiguates cache keys between tests (the cache is per-Server, but
// distinct keys keep each test's counters self-explanatory).
func fastRun(scheme, workload string, seed uint64) RunRequest {
	fp, warm, measure := 64, uint64(2_000), uint64(20_000)
	return RunRequest{
		Scheme: scheme, Workload: workload,
		FootprintKB: fp,
		ImageSeed:   &seed, WalkSeed: &seed,
		WarmInstrs: &warm, MeasureInstrs: &measure,
	}
}

// slowRun takes a few hundred milliseconds at full speed — long enough that
// a test can reliably observe it in flight, short enough to finish within
// the budget when run to completion.
func slowRun(seed uint64) RunRequest {
	req := fastRun("Base", "Apache", seed)
	measure := uint64(3_000_000)
	req.MeasureInstrs = &measure
	return req
}

// endlessRun cannot finish inside any test budget; it exists to be
// canceled.
func endlessRun(seed uint64) RunRequest {
	req := fastRun("Base", "Apache", seed)
	measure := uint64(500_000_000)
	req.MeasureInstrs = &measure
	return req
}

type testService struct {
	srv *Server
	ts  *httptest.Server
}

func newTestService(t *testing.T, cfg Config) *testService {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return &testService{srv: srv, ts: ts}
}

func (s *testService) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ts.Client().Post(s.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (s *testService) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := s.ts.Client().Get(s.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeRun(t *testing.T, raw []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("decoding run response %s: %v", raw, err)
	}
	return rr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkNoGoroutineLeak asserts the goroutine count settles back to the
// level captured before the test's server existed.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}

func TestRunEndpointCachesResults(t *testing.T) {
	s := newTestService(t, Config{})
	req := fastRun("Boomerang", "Apache", 11)

	code, raw := s.post(t, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, raw)
	}
	first := decodeRun(t, raw)
	if first.Cached {
		t.Errorf("first request reported cached=true")
	}
	if first.Key == "" || first.Result.IPC <= 0 || first.Result.Scheme != "Boomerang" {
		t.Errorf("implausible response: %+v", first)
	}

	code, raw = s.post(t, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d: %s", code, raw)
	}
	second := decodeRun(t, raw)
	if !second.Cached {
		t.Errorf("identical request was not served from cache")
	}
	if !reflect.DeepEqual(first.Result, second.Result) || first.Key != second.Key {
		t.Errorf("cached result differs from the original")
	}

	stats := s.srv.Stats()
	if stats.SimsStarted != 1 || stats.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 sim and 1 cache hit", stats)
	}
}

func TestConcurrentIdenticalRequestsCollapseToOneSimulation(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	req := slowRun(21)

	type reply struct {
		code int
		raw  []byte
	}
	replies := make(chan reply, 2)
	send := func() {
		code, raw := s.post(t, "/v1/run", req)
		replies <- reply{code, raw}
	}

	go send()
	// Only dispatch the duplicate once the first simulation is provably in
	// flight: the duplicate then either joins the flight (singleflight) or
	// — if the first run won the race and finished — hits the cache. Both
	// paths collapse to exactly one simulation.
	waitFor(t, "first simulation in flight", func() bool {
		st := s.srv.Stats()
		return st.SimsInflight >= 1 || st.SimsStarted >= 1
	})
	go send()

	var results []RunResponse
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("reply %d: status %d: %s", i, r.code, r.raw)
		}
		results = append(results, decodeRun(t, r.raw))
	}
	if !reflect.DeepEqual(results[0].Result, results[1].Result) {
		t.Errorf("collapsed requests returned different results")
	}

	stats := s.srv.Stats()
	if stats.SimsStarted != 1 {
		t.Errorf("%d simulations for 2 identical concurrent requests, want 1 (stats %+v)", stats.SimsStarted, stats)
	}
	if stats.FlightShared+stats.CacheHits == 0 {
		t.Errorf("neither singleflight nor cache collapsed the duplicate: %+v", stats)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	s := &testService{srv: srv, ts: ts}

	occupant := make(chan int, 1)
	go func() {
		code, _ := s.post(t, "/v1/run", endlessRun(31))
		occupant <- code
	}()
	waitFor(t, "occupant simulation in flight", func() bool {
		return s.srv.Stats().SimsInflight == 1
	})

	code, raw := s.post(t, "/v1/run", endlessRun(32))
	if code != http.StatusTooManyRequests {
		t.Fatalf("request beyond queue depth: status %d: %s, want 429", code, raw)
	}
	if !strings.Contains(string(raw), "queue full") {
		t.Errorf("429 body %s does not explain the rejection", raw)
	}
	if got := s.srv.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// A duplicate of the running simulation still gets in — joining an
	// in-flight run consumes no queue capacity — and is then canceled with
	// it at drain.
	joiner := make(chan int, 1)
	go func() {
		code, _ := s.post(t, "/v1/run", endlessRun(31))
		joiner <- code
	}()
	waitFor(t, "duplicate joined the flight", func() bool {
		return s.srv.Stats().FlightShared == 1
	})

	srv.Close() // drain: cancels the occupant and its joiner
	for name, ch := range map[string]chan int{"occupant": occupant, "joiner": joiner} {
		select {
		case code := <-ch:
			if code != http.StatusServiceUnavailable {
				t.Errorf("%s after drain: status %d, want 503", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not return after drain", name)
		}
	}
	ts.Close()
	checkNoGoroutineLeak(t, before)
}

func TestDrainCancelsInflightRunsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	s := &testService{srv: srv, ts: ts}

	done := make(chan struct{})
	var code int
	var raw []byte
	go func() {
		defer close(done)
		code, raw = s.post(t, "/v1/run", endlessRun(41))
	}()
	waitFor(t, "simulation in flight", func() bool {
		return s.srv.Stats().SimsInflight == 1
	})

	srv.Close() // the SIGINT path: cancel everything, wait for flights
	<-done
	if code != http.StatusServiceUnavailable {
		t.Errorf("drained request: status %d: %s, want 503", code, raw)
	}
	if st := s.srv.Stats(); st.SimsInflight != 0 || st.Queued != 0 {
		t.Errorf("after drain: %+v, want zero in-flight and queued", st)
	}

	// Draining is sticky: the server now refuses work on every path.
	if hcode, _ := s.get(t, "/healthz"); hcode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d, want 503", hcode)
	}
	if rcode, rbody := s.post(t, "/v1/run", fastRun("Base", "Apache", 42)); rcode != http.StatusServiceUnavailable {
		t.Errorf("run after drain: status %d: %s, want 503", rcode, rbody)
	}
	ts.Close()
	checkNoGoroutineLeak(t, before)
}

func TestAbandonedFlightIsCanceledNotLeaked(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	s := &testService{srv: srv, ts: ts}

	// A request with a tight deadline against an endless simulation: the
	// lone waiter abandons, the flight's refcount hits zero, and the
	// simulation is canceled through the cooperative path.
	ms := int64(50)
	req := endlessRun(51)
	req.TimeoutMS = ms
	code, raw := s.post(t, "/v1/run", req)
	if code != http.StatusGatewayTimeout {
		t.Errorf("timed-out request: status %d: %s, want 504", code, raw)
	}
	waitFor(t, "abandoned flight to unwind", func() bool {
		st := s.srv.Stats()
		return st.SimsInflight == 0 && st.Queued == 0
	})

	// The server is still healthy and the canceled run was not cached.
	if hcode, _ := s.get(t, "/healthz"); hcode != http.StatusOK {
		t.Errorf("healthz after abandoned flight: %d, want 200", hcode)
	}
	if s.srv.cache.Len() != 0 {
		t.Errorf("canceled run was cached")
	}

	srv.Close()
	ts.Close()
	checkNoGoroutineLeak(t, before)
}

func TestRegistryAndHealthEndpoints(t *testing.T) {
	s := newTestService(t, Config{})

	code, raw := s.get(t, "/v1/schemes")
	var schemes []boomsim.SchemeInfo
	if err := json.Unmarshal(raw, &schemes); err != nil || code != http.StatusOK {
		t.Fatalf("schemes: status %d, err %v", code, err)
	}
	if len(schemes) < 15 {
		t.Errorf("schemes endpoint lists %d entries, want the full registry", len(schemes))
	}

	code, raw = s.get(t, "/v1/workloads")
	var workloads []boomsim.WorkloadInfo
	if err := json.Unmarshal(raw, &workloads); err != nil || code != http.StatusOK {
		t.Fatalf("workloads: status %d, err %v", code, err)
	}
	if len(workloads) < 7 {
		t.Errorf("workloads endpoint lists %d entries, want >= 7", len(workloads))
	}

	if code, raw = s.get(t, "/healthz"); code != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Errorf("healthz: status %d body %s", code, raw)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestService(t, Config{})
	if code, _ := s.post(t, "/v1/run", fastRun("Base", "Apache", 71)); code != http.StatusOK {
		t.Fatalf("priming run failed: %d", code)
	}
	code, raw := s.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	body := string(raw)
	for _, metric := range []string{
		"boomsimd_requests_total", "boomsimd_cache_hits_total", "boomsimd_cache_misses_total",
		"boomsimd_flight_shared_total", "boomsimd_sims_started_total", "boomsimd_sims_inflight",
		"boomsimd_queue_depth", "boomsimd_sim_ns_per_instr", "boomsimd_rejected_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics output missing %s", metric)
		}
	}
	if !strings.Contains(body, "boomsimd_sims_started_total 1") {
		t.Errorf("sims_started not reported as 1:\n%s", body)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestService(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown scheme", "/v1/run", RunRequest{Scheme: "no-such"}, http.StatusNotFound},
		{"unknown workload", "/v1/run", RunRequest{Workload: "no-such"}, http.StatusNotFound},
		{"invalid option", "/v1/run", RunRequest{BTBEntries: -1}, http.StatusBadRequest},
		{"BTB too large to allocate", "/v1/run", json.RawMessage(`{"btb_entries":4611686018427387904}`), http.StatusBadRequest},
		{"footprint below the generator's minimum", "/v1/run", RunRequest{FootprintKB: 8}, http.StatusBadRequest},
		{"footprint above 16 MB", "/v1/run", RunRequest{FootprintKB: 16<<10 + 1}, http.StatusBadRequest},
		{"LLC that never answers", "/v1/run", json.RawMessage(`{"llc_latency":4611686018427387904}`), http.StatusBadRequest},
		{"history too large to allocate", "/v1/run", RunRequest{SchemeConfig: json.RawMessage(
			`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":4611686018427387904,"index_entries":8,"region_lines":4,"lookahead":8}}}`)},
			http.StatusBadRequest},
		{"retired matrix endpoint", "/v1/matrix", json.RawMessage(`{"runs":[{}]}`), http.StatusNotFound},
	}
	for _, c := range cases {
		if code, raw := s.post(t, c.path, c.body); code != c.want {
			t.Errorf("%s: status %d: %s, want %d", c.name, code, raw, c.want)
		}
	}

	// The wire once carried a per-request cycle-skip switch. A body that
	// still sends it is refused by name rather than run with skipping on.
	code, raw := s.post(t, "/v1/run", json.RawMessage(`{"workload":"Apache","no_cycle_skip":true}`))
	if code != http.StatusBadRequest || !strings.Contains(string(raw), `unknown field \"no_cycle_skip\"`) {
		t.Errorf("retired no_cycle_skip field: status %d: %s, want 400 naming the field", code, raw)
	}

	resp, err := s.ts.Client().Post(s.ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	resp, err = s.ts.Client().Get(s.ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}

	code, raw = s.post(t, "/v1/jobs", wire.JobsRequest{Jobs: []RunRequest{{BTBEntries: math.MaxInt}}})
	var jobs wire.JobsResponse
	if err := json.Unmarshal(raw, &jobs); code != http.StatusOK || err != nil ||
		len(jobs.Jobs) != 1 || jobs.Jobs[0].Status != http.StatusBadRequest {
		t.Errorf("huge job: status %d: %s, want one job failed with 400", code, raw)
	}

	// None of the rejected requests reached a worker: the server still
	// serves, and the valid run below is the only simulation it starts.
	if code, raw := s.post(t, "/v1/run", fastRun("Base", "Apache", 81)); code != http.StatusOK {
		t.Errorf("run after the rejected requests: status %d: %s", code, raw)
	}
	if st := s.srv.Stats(); st.SimsStarted != 1 {
		t.Errorf("%d simulations started, want only the final valid run's", st.SimsStarted)
	}
}

// TestFlightRecorderOverflowIsBadRequest pins that a flight-recorder epoch
// too fine for the window is the client's mistake: a 400 naming the full
// recorder, and nothing cached, so the repeat fails the same way instead of
// serving a timeline that stops partway through the window. The overflow is
// known only after the run, so it is no TestRequestValidation case.
func TestFlightRecorderOverflowIsBadRequest(t *testing.T) {
	s := newTestService(t, Config{})
	body := json.RawMessage(`{"workload":"Apache","footprint_kb":64,"warm_instrs":0,"measure_instrs":100000,"flight_every":1}`)
	for i := 1; i <= 2; i++ {
		code, raw := s.post(t, "/v1/run", body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), "flight recorder full") {
			t.Fatalf("request %d: status %d: %s, want 400 naming the full recorder", i, code, raw)
		}
	}
	if st := s.srv.Stats(); st.SimsStarted != 2 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 2 simulations and no cache hit", st)
	}
}

// TestFlightGroupRefcountCancel pins the singleflight cancellation
// contract directly: the flight context dies only when the last waiter
// leaves or the base context fires.
func TestFlightGroupRefcountCancel(t *testing.T) {
	g := newFlightGroup(nil)
	base := context.Background()
	started := make(chan context.Context, 1)
	spawn := func(run func()) { go run() }
	admit := func() error { return nil }

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	res := make(chan error, 2)
	blocker := func(fctx context.Context) (any, error) {
		started <- fctx
		<-fctx.Done()
		return nil, fmt.Errorf("canceled: %w", fctx.Err())
	}
	go func() {
		_, _, err := g.do(ctx1, base, "k", admit, spawn, blocker)
		res <- err
	}()
	fctx := <-started
	go func() {
		_, _, err := g.do(ctx2, base, "k", admit, spawn, blocker)
		res <- err
	}()
	waitFor(t, "second waiter to join", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f := g.flights["k"]
		return f != nil && f.waiters == 2
	})

	cancel1() // first waiter leaves; second still wants the result
	if err := <-res; err != context.Canceled {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}
	select {
	case <-fctx.Done():
		t.Fatal("flight canceled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}

	cancel2() // last waiter leaves: the flight must be canceled
	if err := <-res; err != context.Canceled {
		t.Fatalf("second waiter got %v, want context.Canceled", err)
	}
	select {
	case <-fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("flight context not canceled after the last waiter left")
	}
}

// TestAbandonedFlightDoesNotPoisonSuccessors pins the unmapping half of
// the refcount contract: once the last waiter abandons a flight, a fresh
// request for the same key starts a new run — even while the doomed run is
// still tearing down — instead of inheriting its cancellation.
func TestAbandonedFlightDoesNotPoisonSuccessors(t *testing.T) {
	g := newFlightGroup(nil)
	base := context.Background()
	spawn := func(run func()) { go run() }
	admit := func() error { return nil }

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	doomed := func(fctx context.Context) (any, error) {
		started <- struct{}{}
		<-fctx.Done()
		<-release // cancellation noticed, but teardown is slow
		return nil, fctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx1, base, "k", admit, spawn, doomed)
		abandoned <- err
	}()
	<-started
	cancel1()
	if err := <-abandoned; err != context.Canceled {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}

	// The doomed run is canceled but still blocked in teardown; a new
	// request must get a fresh flight and a real result.
	fresh := func(fctx context.Context) (any, error) {
		if fctx.Err() != nil {
			return nil, fmt.Errorf("fresh flight born canceled: %w", fctx.Err())
		}
		return 42, nil
	}
	got := make(chan any, 1)
	errs := make(chan error, 1)
	go func() {
		v, _, err := g.do(context.Background(), base, "k", admit, spawn, fresh)
		got <- v
		errs <- err
	}()
	select {
	case v := <-got:
		if err := <-errs; err != nil || v != 42 {
			t.Fatalf("successor got (%v, %v), want (42, nil)", v, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor request never completed; it inherited the doomed flight")
	}
	close(release) // let the doomed runner finish; it must not unmap anything current
	if _, _, err := g.do(context.Background(), base, "k", admit, spawn, fresh); err != nil {
		t.Fatalf("post-teardown request: %v", err)
	}
}

// TestJobsEndpoint exercises the batch surface the cluster coordinator
// speaks: independent per-job execution in request order, per-job errors
// with status and backoff hints, a compact answer (only the coordinator
// reads it; /v1/run keeps its indent) and a result cache shared with
// /v1/run.
func TestJobsEndpoint(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	batch := wire.JobsRequest{Jobs: []RunRequest{
		fastRun("Base", "Apache", 501),
		{Scheme: "NoSuchScheme"},
		fastRun("FDIP", "Apache", 501),
		fastRun("Boomerang", "DB2", 501),
	}}
	good := []int{0, 2, 3}
	code, raw := s.post(t, "/v1/jobs", batch)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/jobs: status %d body %s", code, raw)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}
	if want := append(compact.Bytes(), '\n'); !bytes.Equal(raw, want) {
		t.Fatalf("/v1/jobs answer is not compact JSON plus a newline (%d bytes, compact %d)", len(raw), compact.Len())
	}
	var resp wire.JobsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding jobs response: %v", err)
	}
	if len(resp.Jobs) != len(batch.Jobs) {
		t.Fatalf("got %d job results, want %d", len(resp.Jobs), len(batch.Jobs))
	}
	results := make([]boomsim.Result, len(batch.Jobs))
	for _, i := range good {
		jr := resp.Jobs[i]
		if jr.Error != "" || len(jr.Result) == 0 || jr.Key == "" || jr.Cached {
			t.Errorf("jobs[%d] = %+v, want a fresh keyed result", i, jr)
		}
		if err := json.Unmarshal(jr.Result, &results[i]); err != nil || results[i].Instructions == 0 {
			t.Errorf("jobs[%d] result undecodable or empty: %v", i, err)
		}
		if got, want := results[i], batch.Jobs[i]; got.Scheme != want.Scheme || got.Workload != want.Workload {
			t.Errorf("jobs[%d] = %s/%s, want %s/%s (request order)", i, got.Scheme, got.Workload, want.Scheme, want.Workload)
		}
	}
	if bad := resp.Jobs[1]; bad.Error == "" || bad.Status != http.StatusNotFound || bad.Retryable() {
		t.Errorf("jobs[1] = %+v, want non-retryable 404", bad)
	}

	// The batch populated the per-cell cache /v1/run shares: a single run of
	// any cell is a hit with the same result.
	code, raw = s.post(t, "/v1/run", batch.Jobs[3])
	if code != http.StatusOK {
		t.Fatalf("cell run: status %d: %s", code, raw)
	}
	if rr := decodeRun(t, raw); !rr.Cached || rr.Key != resp.Jobs[3].Key || !reflect.DeepEqual(rr.Result, results[3]) {
		t.Errorf("cell not served from the batch-populated cache (cached=%v)", rr.Cached)
	}
	if !bytes.Contains(raw, []byte("\n  ")) {
		t.Errorf("/v1/run answer lost its indent: %.80s", raw)
	}

	// The same batch again: every good cell is a cache hit with the same
	// bytes, and no cell was simulated twice.
	_, raw = s.post(t, "/v1/jobs", batch)
	var again wire.JobsResponse
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	for _, i := range good {
		if jr := again.Jobs[i]; !jr.Cached || !bytes.Equal(jr.Result, resp.Jobs[i].Result) {
			t.Errorf("repeat jobs[%d]: cached=%v, same bytes=%v, want a cache hit with identical bytes",
				i, jr.Cached, bytes.Equal(jr.Result, resp.Jobs[i].Result))
		}
	}
	if st := s.srv.Stats(); st.SimsStarted != uint64(len(good)) {
		t.Errorf("%d sims for the batch, a cell run and a repeat, want %d", st.SimsStarted, len(good))
	}

	// Batch-level validation.
	if code, _ := s.post(t, "/v1/jobs", wire.JobsRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	big := wire.JobsRequest{Jobs: make([]RunRequest, maxJobs+1)}
	if code, _ := s.post(t, "/v1/jobs", big); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", code)
	}
}

// TestJobsEndpointReportsBackpressure pins the per-job 429 + retry hint
// path: with no capacity, each job fails individually and carries the
// backoff hint the coordinator's cooldown consumes.
func TestJobsEndpointReportsBackpressure(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the only queue slot with an endless run.
	started := make(chan struct{})
	go func() {
		close(started)
		s.post(t, "/v1/run", endlessRun(502))
	}()
	<-started
	waitFor(t, "flight admitted", func() bool { return s.srv.Stats().Queued >= 1 })

	_, raw := s.post(t, "/v1/jobs", wire.JobsRequest{Jobs: []RunRequest{fastRun("Base", "Apache", 503)}})
	var resp wire.JobsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	jr := resp.Jobs[0]
	if jr.Status != http.StatusTooManyRequests || jr.RetryAfterMS <= 0 || !jr.Retryable() {
		t.Fatalf("job under backpressure = %+v, want retryable 429 with retry_after_ms", jr)
	}
}

// TestHealthzReportsBuildAndLoad pins the operator/coordinator contract:
// /healthz carries version info and live load, not just a bare 200.
func TestHealthzReportsBuildAndLoad(t *testing.T) {
	s := newTestService(t, Config{Workers: 3, QueueDepth: 7})
	code, raw := s.get(t, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h wire.Health
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("decoding healthz %s: %v", raw, err)
	}
	if h.Status != "ok" || h.Version != Version || h.GoVersion == "" {
		t.Errorf("healthz identity = %+v, want ok/%s with a Go version", h, Version)
	}
	if h.Workers != 3 || h.QueueDepth != 7 {
		t.Errorf("healthz capacity = %d workers / %d queue, want 3/7", h.Workers, h.QueueDepth)
	}
	if h.Schemes == 0 || h.Workloads == 0 {
		t.Errorf("healthz registries empty: %+v", h)
	}

	// Load must move with in-flight work.
	started := make(chan struct{})
	go func() {
		close(started)
		s.post(t, "/v1/run", endlessRun(504))
	}()
	<-started
	waitFor(t, "sim in flight", func() bool { return s.srv.Stats().SimsInflight >= 1 })
	_, raw = s.get(t, "/healthz")
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.InFlightSims < 1 || h.QueuedFlights < 1 {
		t.Errorf("healthz load = %d inflight / %d queued, want >= 1 each", h.InFlightSims, h.QueuedFlights)
	}
}

// TestSchemesEndpointCarriesFullConfig pins what /v1/schemes now sources
// from the declarative config plane: every entry's description, its Section
// VI-D storage-overhead accounting, and the full SchemeConfig a client can
// fetch, modify and resubmit inline.
func TestSchemesEndpointCarriesFullConfig(t *testing.T) {
	s := newTestService(t, Config{})
	code, raw := s.get(t, "/v1/schemes")
	if code != http.StatusOK {
		t.Fatalf("schemes: status %d", code)
	}
	var schemes []boomsim.SchemeInfo
	if err := json.Unmarshal(raw, &schemes); err != nil {
		t.Fatal(err)
	}
	byName := map[string]boomsim.SchemeInfo{}
	for _, sc := range schemes {
		byName[sc.Name] = sc
		if sc.Config.Name != sc.Name {
			t.Errorf("%s: listing config names %q", sc.Name, sc.Config.Name)
		}
		if sc.Description == "" {
			t.Errorf("%s: listing drops the description", sc.Name)
		}
	}
	// Section VI-D accounting must survive into the listing: DIP's 64 KB
	// table, SHIFT's amortised LLC tag extension, Boomerang's 540 bytes.
	for name, wantKB := range map[string]float64{"DIP": 64, "SHIFT": 15, "Boomerang": 0.52734375} {
		if got := byName[name].StorageOverheadKB; got != wantKB {
			t.Errorf("%s storage overhead = %v KB in listing, want %v", name, got, wantKB)
		}
	}
	// The config itself must be a usable recipe: Boomerang's must carry its
	// miss policy.
	if mp := byName["Boomerang"].Config.MissPolicy; mp == nil || mp.Kind != "boomerang" {
		t.Errorf("Boomerang listing config lacks its miss policy: %+v", byName["Boomerang"].Config)
	}
}

// TestRunEndpointAcceptsSchemeConfig pins the wire half of the config
// plane: an inline scheme_config runs end to end, its per-component
// registry stats come back in the response, and its cache identity is
// distinct from the registered scheme of the same shape.
func TestRunEndpointAcceptsSchemeConfig(t *testing.T) {
	s := newTestService(t, Config{})
	seed, warm, measure := uint64(3), uint64(2_000), uint64(20_000)
	cfgJSON := json.RawMessage(`{
		"name": "Boomerang-FTQ64",
		"ftq_depth": 64,
		"fdip_probes": true,
		"miss_policy": {"kind": "boomerang"}
	}`)
	req := RunRequest{
		SchemeConfig: cfgJSON, Workload: "Apache", FootprintKB: 64,
		ImageSeed: &seed, WalkSeed: &seed,
		WarmInstrs: &warm, MeasureInstrs: &measure,
	}
	code, raw := s.post(t, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("run with scheme_config: status %d body %s", code, raw)
	}
	rr := decodeRun(t, raw)
	if rr.Result.Scheme != "Boomerang-FTQ64" {
		t.Errorf("result scheme = %q, want the config's name", rr.Result.Scheme)
	}
	if len(rr.Result.Stats) == 0 || rr.Result.Stats["boomerang.probes"] == 0 {
		t.Errorf("response carries no per-component registry stats: %v", rr.Result.Stats)
	}

	stock := fastRun("Boomerang", "Apache", seed)
	code, raw = s.post(t, "/v1/run", stock)
	if code != http.StatusOK {
		t.Fatalf("stock run: status %d", code)
	}
	if stockRR := decodeRun(t, raw); stockRR.Key == rr.Key {
		t.Error("inline config and registered scheme share a cache key")
	}

	// Malformed configs are client errors at the door.
	bad := req
	bad.SchemeConfig = json.RawMessage(`{"name":"x","prefetcher":{"kind":"psychic"}}`)
	if code, _ := s.post(t, "/v1/run", bad); code != http.StatusBadRequest {
		t.Errorf("garbage scheme_config: status %d, want 400", code)
	}
}

// TestMetricsExposeComponentStats pins the observability half: after an
// executed run, /metrics carries the per-component registry totals as
// labeled boomsimd_sim_component_total series.
func TestMetricsExposeComponentStats(t *testing.T) {
	s := newTestService(t, Config{})
	if code, _ := s.post(t, "/v1/run", fastRun("Boomerang", "Apache", 83)); code != http.StatusOK {
		t.Fatal("priming run failed")
	}
	code, raw := s.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	body := string(raw)
	for _, series := range []string{
		`boomsimd_sim_component_total{stat="frontend.retired_instrs"}`,
		`boomsimd_sim_component_total{stat="cache.llc_accesses"}`,
		`boomsimd_sim_component_total{stat="bpu.btb_lookups"}`,
		`boomsimd_sim_component_total{stat="boomerang.probes"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %s", series)
		}
	}
}
