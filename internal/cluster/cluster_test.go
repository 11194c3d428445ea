package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"boomsim/internal/obs"
	"boomsim/internal/wire"
)

// fakeWorker is a minimal boomsimd stand-in: /healthz and /v1/jobs over
// canned per-job behavior, recording which keys it served. Jobs carry their
// key in Req.Scheme so the fake needs no simulator.
type fakeWorker struct {
	srv   *httptest.Server
	delay time.Duration
	// batch scripts the whole answer to the n-th post (from 1): an HTTP
	// status to fail it with, resetConn to drop the connection, or 0 to
	// answer job by job. nil answers every post job by job.
	batch func(post int) int
	// perJob overrides a job's outcome; nil or a nil return means success.
	perJob func(key string, timesSeen int) *wire.JobResult

	mu     sync.Mutex
	served map[string]int
	posts  []fakePost
}

// fakePost is one /v1/jobs post as the fake worker received it.
type fakePost struct {
	at   time.Time
	keys []string
}

// resetConn makes a scripted post drop its connection unanswered.
const resetConn = -1

func okResult(key string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"key":%q}`, key))
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{served: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req wire.JobsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		keys := make([]string, len(req.Jobs))
		for i, job := range req.Jobs {
			keys[i] = job.Scheme
		}
		f.mu.Lock()
		f.posts = append(f.posts, fakePost{at: time.Now(), keys: keys})
		n := len(f.posts)
		f.mu.Unlock()
		if f.batch != nil {
			switch code := f.batch(n); code {
			case 0:
			case resetConn:
				panic(http.ErrAbortHandler)
			default:
				http.Error(w, "scripted failure", code)
				return
			}
		}
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-r.Context().Done():
				return
			}
		}
		resp := wire.JobsResponse{Jobs: make([]wire.JobResult, len(req.Jobs))}
		for i, job := range req.Jobs {
			key := job.Scheme
			f.mu.Lock()
			f.served[key]++
			seen := f.served[key]
			f.mu.Unlock()
			if f.perJob != nil {
				if jr := f.perJob(key, seen); jr != nil {
					resp.Jobs[i] = *jr
					continue
				}
			}
			resp.Jobs[i] = wire.JobResult{Key: key, Cached: seen > 1, Result: okResult(key)}
		}
		json.NewEncoder(w).Encode(resp)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) postLog() []fakePost {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakePost(nil), f.posts...)
}

func (f *fakeWorker) servedKeys() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.served))
	for k, v := range f.served {
		out[k] = v
	}
	return out
}

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		key := fmt.Sprintf("key-%03d", i)
		jobs[i] = Job{Key: key, Req: wire.RunRequest{Scheme: key}}
	}
	return jobs
}

func testConfig(workers ...*fakeWorker) Config {
	eps := make([]string, len(workers))
	for i, w := range workers {
		eps[i] = w.srv.URL
	}
	return Config{Endpoints: eps}
}

func checkResults(t *testing.T, jobs []Job, results []JobResult) {
	t.Helper()
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		var got struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(r.Result, &got); err != nil {
			t.Fatalf("results[%d]: %v (%s)", i, err, r.Result)
		}
		if got.Key != jobs[i].Key {
			t.Fatalf("results[%d] is for key %q, want %q — matrix order broken", i, got.Key, jobs[i].Key)
		}
	}
}

func TestCoordinatorRunsAllJobsWithKeyAffinity(t *testing.T) {
	w1, w2, w3 := newFakeWorker(t), newFakeWorker(t), newFakeWorker(t)
	co, err := New(testConfig(w1, w2, w3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(40)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)

	first := map[*fakeWorker]map[string]int{w1: w1.servedKeys(), w2: w2.servedKeys(), w3: w3.servedKeys()}
	active := 0
	for _, served := range first {
		if len(served) > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d of 3 workers served jobs — sharding did not spread the sweep", active)
	}

	// A second identical sweep must route every key to the same worker:
	// that affinity is what keeps worker caches hot.
	if _, err := co.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for w, served := range first {
		for key, n := range w.servedKeys() {
			if served[key] == 0 && n > 0 && served[key] != n {
				t.Errorf("key %q moved workers between identical sweeps", key)
			}
		}
	}
	st := co.Stats()
	if st.JobsCompleted != 80 {
		t.Errorf("JobsCompleted = %d, want 80", st.JobsCompleted)
	}
	if st.CacheHits != 40 {
		t.Errorf("CacheHits = %d, want 40 (second sweep fully cached)", st.CacheHits)
	}
}

func TestCoordinatorRetriesAfterPerJob429(t *testing.T) {
	w := newFakeWorker(t)
	// Reject every job 3 times before accepting it, with MaxAttempts 2:
	// capacity rejections are backpressure, not failures, so they must not
	// consume the job's attempt budget and the sweep must still finish.
	w.perJob = func(key string, seen int) *wire.JobResult {
		if seen <= 3 {
			return &wire.JobResult{Error: "queue full", Status: http.StatusTooManyRequests, RetryAfterMS: 5}
		}
		return nil
	}
	cfg := testConfig(w)
	cfg.MaxAttempts = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(6)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("sweep failed under pure backpressure: %v", err)
	}
	checkResults(t, jobs, results)
	if st := co.Stats(); st.JobsRetried == 0 {
		t.Error("JobsRetried = 0, want >0 after per-job 429s")
	}
}

func TestCoordinatorRedistributesOnWorkerDeath(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	// w1 dies after answering its first batch: subsequent connections are
	// refused, so its remaining keys must fail over to w2.
	var once sync.Once
	w1.perJob = func(key string, seen int) *wire.JobResult {
		once.Do(func() { go w1.srv.Close() })
		return nil
	}
	cfg := testConfig(w1, w2)
	cfg.BatchSize = 2
	cfg.InFlight = 1
	cfg.MaxAttempts = 6
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(30)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("sweep failed despite a surviving worker: %v", err)
	}
	checkResults(t, jobs, results)
	st := co.Stats()
	if st.WorkerDeaths == 0 {
		t.Error("WorkerDeaths = 0, want >0 after killing w1")
	}
	if len(w2.servedKeys()) == 0 {
		t.Error("surviving worker served nothing")
	}
}

func TestCoordinatorRetiresDrainingWorker(t *testing.T) {
	draining, healthy := newFakeWorker(t), newFakeWorker(t)
	// A draining boomsimd answers 200 with per-job 503s; it must strike
	// out after DeadAfter batches and its keys must move to the survivor —
	// the 200 wrapper must not keep resetting the strike count.
	draining.perJob = func(key string, seen int) *wire.JobResult {
		return &wire.JobResult{Error: "draining", Status: http.StatusServiceUnavailable}
	}
	cfg := testConfig(draining, healthy)
	cfg.MaxAttempts = 8
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(20)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("sweep failed despite a healthy survivor: %v", err)
	}
	checkResults(t, jobs, results)
	if st := co.Stats(); st.WorkerDeaths != 1 {
		t.Errorf("WorkerDeaths = %d, want exactly 1 for one draining worker", st.WorkerDeaths)
	}
}

func TestCoordinatorHedgesStragglers(t *testing.T) {
	slow, fast := newFakeWorker(t), newFakeWorker(t)
	slow.delay = 300 * time.Millisecond
	cfg := testConfig(slow, fast)
	cfg.HedgeAfter = 20 * time.Millisecond
	cfg.BatchSize = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(12)
	start := time.Now()
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)
	st := co.Stats()
	if st.JobsHedged == 0 {
		t.Error("JobsHedged = 0, want >0 with a straggling worker")
	}
	// Without hedging the slow worker's ~6 keys serialize at 300ms per
	// batch; hedged onto the fast worker the sweep finishes far sooner.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("sweep took %v; hedging should have routed around the straggler", elapsed)
	}
}

func TestCoordinatorFailsWhenPoolDies(t *testing.T) {
	w := newFakeWorker(t)
	cfg := testConfig(w)
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.srv.Close()
	// Probe sees the dead worker: ErrNoWorkers before anything dispatches.
	if _, err := co.Run(context.Background(), makeJobs(4)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestCoordinatorAbortsOnTerminalRejection(t *testing.T) {
	w := newFakeWorker(t)
	w.perJob = func(key string, seen int) *wire.JobResult {
		return &wire.JobResult{Error: "unknown scheme", Status: http.StatusNotFound}
	}
	co, err := New(testConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.Run(context.Background(), makeJobs(3))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want terminal rejection", err)
	}
}

func TestCoordinatorExhaustsJobAttempts(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	broken := func(key string, seen int) *wire.JobResult {
		return &wire.JobResult{Error: "internal", Status: http.StatusInternalServerError}
	}
	w1.perJob, w2.perJob = broken, broken
	cfg := testConfig(w1, w2)
	cfg.MaxAttempts = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background(), makeJobs(3)); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("err = %v, want ErrWorkerFailed", err)
	}
}

func TestNewRejectsEmptyPool(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if _, err := New(Config{Endpoints: []string{"", "  "}}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers for blank endpoints", err)
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	w := newFakeWorker(t)
	w.delay = time.Second
	co, err := New(testConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := co.Run(ctx, makeJobs(4)); err == nil {
		t.Fatal("want cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Run held for %v past cancellation", elapsed)
	}
}

// TestCoordinatorBreakerRecoversWorker pins the circuit-breaker cycle on a
// single-worker pool: the worker drains long enough to open its breaker
// (with nowhere to fail over, its jobs park), the cooldown elapses, the
// half-open probe batch comes back clean, and the sweep finishes on the
// recovered worker. Under the old retire-forever behavior this sweep could
// only fail.
func TestCoordinatorBreakerRecoversWorker(t *testing.T) {
	w := newFakeWorker(t)
	// Every key 503s on first sight and succeeds afterwards: the first two
	// batches open the breaker, and everything after the half-open probe is
	// healthy. One batch in flight keeps that order: with two, the
	// requeued first batch can come back clean before the second answers
	// and reset the strike count, and the breaker never opens.
	w.perJob = func(key string, seen int) *wire.JobResult {
		if seen == 1 {
			return &wire.JobResult{Error: "draining", Status: http.StatusServiceUnavailable, RetryAfterMS: 1}
		}
		return nil
	}
	cfg := testConfig(w)
	cfg.InFlight = 1
	cfg.MaxAttempts = 6
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.BreakerMaxCooldown = 200 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(8)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("sweep failed despite the worker recovering: %v", err)
	}
	checkResults(t, jobs, results)
	st := co.Stats()
	if st.WorkerDeaths == 0 {
		t.Error("WorkerDeaths = 0, want >0 — the breaker never opened")
	}
	if st.BreakerCloses == 0 {
		t.Error("BreakerCloses = 0, want >0 — the breaker never closed after its probe")
	}
}

// TestCoordinatorMembershipAddsWorkerMidSweep grows the pool under a
// running sweep: the membership file starts with one slow worker, a second
// is added mid-flight, and by sweep end the newcomer must have been probed,
// admitted and handed its rendezvous share of the keys.
func TestCoordinatorMembershipAddsWorkerMidSweep(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.delay = 25 * time.Millisecond

	dir := t.TempDir()
	path := filepath.Join(dir, "members.json")
	writeMembers := func(eps ...string) {
		raw, _ := json.Marshal(wire.Membership{Workers: eps})
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	writeMembers(w1.srv.URL)

	cfg := Config{
		MembershipFile:     path,
		MembershipInterval: 10 * time.Millisecond,
		BatchSize:          2,
		InFlight:           1,
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(80 * time.Millisecond)
		writeMembers(w1.srv.URL, w2.srv.URL)
	}()
	jobs := makeJobs(40)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)
	if st := co.Stats(); st.WorkersJoined == 0 {
		t.Error("WorkersJoined = 0, want >0 after adding w2 to the membership file")
	}
	if len(w2.servedKeys()) == 0 {
		t.Error("joined worker served nothing — rebalance never handed it keys")
	}
}

// TestCoordinatorMembershipRemovesWorkerMidSweep shrinks the pool under a
// running sweep: a worker dropped from the membership file is retired, its
// queued keys move, and the sweep completes on the survivor.
func TestCoordinatorMembershipRemovesWorkerMidSweep(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.delay = 20 * time.Millisecond
	w2.delay = 20 * time.Millisecond

	path := filepath.Join(t.TempDir(), "members.json")
	writeMembers := func(eps ...string) {
		raw, _ := json.Marshal(wire.Membership{Workers: eps})
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	writeMembers(w1.srv.URL, w2.srv.URL)

	cfg := Config{
		MembershipFile:     path,
		MembershipInterval: 10 * time.Millisecond,
		BatchSize:          2,
		InFlight:           1,
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		writeMembers(w2.srv.URL)
	}()
	jobs := makeJobs(30)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)
	if st := co.Stats(); st.WorkersRemoved == 0 {
		t.Error("WorkersRemoved = 0, want >0 after dropping w1 from the membership file")
	}
	view := co.MembershipView()
	var w1State string
	for _, row := range view.Workers {
		if row.Endpoint == w1.srv.URL {
			w1State = row.State
		}
	}
	if w1State != "dead" {
		t.Errorf("removed worker reports state %q in the membership view, want dead", w1State)
	}
}

// TestCoordinatorCellTimeoutCapsRetryWallClock pins the CellTimeout
// semantics: a cell stuck behind an endless 429 storm never exhausts its
// attempt budget (429s are free), but its wall-clock budget still burns and
// the sweep fails with ErrCellTimeout instead of spinning forever.
func TestCoordinatorCellTimeoutCapsRetryWallClock(t *testing.T) {
	w := newFakeWorker(t)
	w.perJob = func(key string, seen int) *wire.JobResult {
		return &wire.JobResult{Error: "queue full", Status: http.StatusTooManyRequests, RetryAfterMS: 5}
	}
	cfg := testConfig(w)
	cfg.MaxAttempts = 1000
	cfg.CellTimeout = 150 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = co.Run(context.Background(), makeJobs(3))
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sweep spun for %v before timing out; the cap is 150ms", elapsed)
	}
}

// mapJournal is an in-memory Journal: the store's two methods over a map.
type mapJournal map[string][]byte

func (m mapJournal) Get(key string) ([]byte, bool) {
	raw, ok := m[key]
	return raw, ok
}

func (m mapJournal) Put(key string, payload []byte) error {
	m[key] = payload
	return nil
}

// TestCoordinatorResumesFromJournal pins the resume contract: cells already
// in the journal are answered from it byte-for-byte with zero dispatches —
// even against a dead pool for a fully journaled sweep — and only the
// remainder is computed (JobsResumed + JobsCompleted covers the matrix
// exactly).
func TestCoordinatorResumesFromJournal(t *testing.T) {
	w := newFakeWorker(t)
	jobs := makeJobs(12)
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i] = jobs[i].Key
	}

	// A prior coordinator journaled the first half before crashing.
	journal := mapJournal{}
	for i := 0; i < 6; i++ {
		journal[keys[i]] = okResult(keys[i])
	}

	cfg := testConfig(w)
	cfg.Journal = journal
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)
	st := co.Stats()
	if st.JobsResumed != 6 {
		t.Errorf("JobsResumed = %d, want 6", st.JobsResumed)
	}
	if st.JobsCompleted != 6 {
		t.Errorf("JobsCompleted = %d, want exactly the 6 non-journaled cells", st.JobsCompleted)
	}
	served := w.servedKeys()
	for i := 0; i < 6; i++ {
		if served[keys[i]] != 0 {
			t.Errorf("journaled cell %q was re-dispatched", keys[i])
		}
	}

	// The finished journal now covers the whole sweep: a rerun against a
	// dead pool must still produce every result without touching the
	// network.
	w.srv.Close()
	co2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results2, err := co2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("fully journaled sweep failed against a dead pool: %v", err)
	}
	checkResults(t, jobs, results2)
	for i := range results {
		if string(results[i].Result) != string(results2[i].Result) {
			t.Fatalf("cell %d not byte-identical across resume", i)
		}
	}
	if st2 := co2.Stats(); st2.JobsResumed != 12 {
		t.Errorf("second run JobsResumed = %d, want 12", st2.JobsResumed)
	}
}

// TestJournaledSweepLeavesWorkersUnprobed pins the state of a worker no
// health probe has reached: a sweep answered wholly from its journal never
// probes the pool, so its one worker, an endpoint nothing listens on, must
// report "unprobed" — not routable, not alive, and counted apart from live
// workers — in Stats and in the membership view, before the run and after.
// Once a probe answers, the worker is live.
func TestJournaledSweepLeavesWorkersUnprobed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	endpoint := "http://" + ln.Addr().String()
	ln.Close()

	jobs := makeJobs(4)
	journal := mapJournal{}
	for _, j := range jobs {
		journal[j.Key] = okResult(j.Key)
	}
	co, err := New(Config{Endpoints: []string{endpoint}, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	requireState := func(when, want string) {
		t.Helper()
		ws := co.Stats().Workers
		if len(ws) != 1 || ws[0].State != want || ws[0].Alive != (want == "live") {
			t.Errorf("%s: Stats().Workers = %+v, want one %s worker", when, ws, want)
		}
		v := co.MembershipView()
		if len(v.Workers) != 1 || v.Workers[0].State != want {
			t.Errorf("%s: membership rows = %+v, want one %s worker", when, v.Workers, want)
		}
		if unprobed := want == "unprobed"; (v.Unprobed == 1) != unprobed || (v.Live == 1) == unprobed {
			t.Errorf("%s: membership counts unprobed %d, live %d; want the worker counted as %s", when, v.Unprobed, v.Live, want)
		}
	}
	requireState("before the run", "unprobed")
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("fully journaled sweep failed: %v", err)
	}
	checkResults(t, jobs, results)
	requireState("after a journal-only run", "unprobed")

	w := newFakeWorker(t)
	co, err = New(testConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	requireState("before a probed run", "unprobed")
	if _, err := co.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	requireState("after a probed run", "live")
}

// failingJournal holds nothing and fails every Put, as a full disk would.
type failingJournal struct{}

func (failingJournal) Get(string) ([]byte, bool) { return nil, false }
func (failingJournal) Put(string, []byte) error  { return errors.New("disk full") }

// TestCoordinatorSurvivesFailedJournalPuts pins that a journal which stops
// persisting costs resumability, not the sweep: every cell completes, and
// the sweep counts once in JournalErrors.
func TestCoordinatorSurvivesFailedJournalPuts(t *testing.T) {
	w := newFakeWorker(t)
	cfg := testConfig(w)
	cfg.Journal = failingJournal{}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := makeJobs(5)
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("a failing journal failed the sweep: %v", err)
	}
	checkResults(t, jobs, results)
	if st := co.Stats(); st.JournalErrors != 1 || st.JobsCompleted != 5 {
		t.Errorf("JournalErrors = %d, JobsCompleted = %d; want 1 and 5", st.JournalErrors, st.JobsCompleted)
	}
}

// TestCoordinatorTraceCoversResumedAndRetriedCells pins the sweep-trace
// completeness contract on the two paths the root end-to-end test never
// reaches: journal-resumed cells must still appear exactly once in the
// trace (as zero-length resumed spans at the sweep epoch), and a cell that
// saw a 429 must emit a "retry" instant span and flip the distinct-cell
// CellsRetried counter — which, unlike the trace, must also work with
// tracing off.
func TestCoordinatorTraceCoversResumedAndRetriedCells(t *testing.T) {
	w := newFakeWorker(t)
	// Reject the first offer of every job with a 429 so each dispatched
	// cell is requeued exactly once before succeeding.
	w.perJob = func(key string, seen int) *wire.JobResult {
		if seen == 1 {
			return &wire.JobResult{Error: "queue full", Status: http.StatusTooManyRequests, RetryAfterMS: 1}
		}
		return nil
	}

	jobs := makeJobs(8)
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i] = jobs[i].Key
	}
	// A prior coordinator journaled the first half before crashing.
	journal := mapJournal{}
	for i := 0; i < 4; i++ {
		journal[keys[i]] = okResult(keys[i])
	}

	cfg := testConfig(w)
	cfg.Journal = journal
	cfg.Trace = obs.NewCollector(0)
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, jobs, results)

	st := co.Stats()
	if st.CellsTotal != 8 {
		t.Errorf("CellsTotal = %d, want 8 (resumed + dispatched)", st.CellsTotal)
	}
	if st.CellsRetried != 4 {
		t.Errorf("CellsRetried = %d, want the 4 dispatched cells (one 429 each)", st.CellsRetried)
	}

	cells := make(map[string]int)    // key -> "cell" span count
	resumed := make(map[string]bool) // key -> resumed arg on its cell span
	retries := make(map[string]int)  // key -> "retry" instant count
	for _, s := range cfg.Trace.Spans() {
		if s.TraceID != cfg.Trace.ID() {
			t.Fatalf("span %q carries trace ID %q, want the run's %q", s.Name, s.TraceID, cfg.Trace.ID())
		}
		args := make(map[string]any, len(s.Args))
		for _, a := range s.Args {
			args[a.Key] = a.Value
		}
		key, _ := args["key"].(string)
		switch s.Name {
		case "cell":
			cells[key]++
			r, _ := args["resumed"].(bool)
			resumed[key] = r
		case "retry":
			if !s.Instant {
				t.Errorf("retry span for %q is not an instant event", key)
			}
			retries[key]++
		}
	}
	for i, key := range keys {
		if cells[key] != 1 {
			t.Errorf("cell %q has %d cell spans, want exactly 1", key, cells[key])
		}
		wantResumed := i < 4
		if resumed[key] != wantResumed {
			t.Errorf("cell %q resumed = %v, want %v", key, resumed[key], wantResumed)
		}
		if wantResumed {
			if retries[key] != 0 {
				t.Errorf("journal-resumed cell %q has %d retry spans, want 0", key, retries[key])
			}
		} else if retries[key] != 1 {
			t.Errorf("dispatched cell %q has %d retry spans, want 1 (one 429)", key, retries[key])
		}
	}
}

func TestMetricsHandlerServesPrometheusText(t *testing.T) {
	w := newFakeWorker(t)
	co, err := New(testConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background(), makeJobs(5)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	co.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"boomsim_coordinator_jobs_completed_total 5",
		"boomsim_coordinator_jobs_dispatched_total",
		"boomsim_coordinator_cache_hit_ratio",
		"boomsim_coordinator_worker_alive{worker=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}
