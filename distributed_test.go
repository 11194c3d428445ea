package boomsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/frontend"
	"boomsim/internal/server"
	"boomsim/internal/wire"
)

// testWorker is one in-process boomsimd: the real service handler on a real
// HTTP listener.
type testWorker struct {
	srv  *server.Server
	http *httptest.Server
}

func startWorkers(t *testing.T, n int) []*testWorker {
	t.Helper()
	workers := make([]*testWorker, n)
	for i := range workers {
		srv := server.New(server.Config{QueueDepth: 512})
		hs := httptest.NewServer(srv.Handler())
		workers[i] = &testWorker{srv: srv, http: hs}
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Close)
	}
	return workers
}

func endpoints(workers []*testWorker) []string {
	eps := make([]string, len(workers))
	for i, w := range workers {
		eps[i] = w.http.URL
	}
	return eps
}

// runDistributed runs sims on a fresh coordinator built from opts.
func runDistributed(ctx context.Context, sims []*boomsim.Simulation, opts ...boomsim.ClusterOption) ([]boomsim.Result, error) {
	cl, err := boomsim.NewCluster(opts...)
	if err != nil {
		return nil, err
	}
	return cl.RunMatrix(ctx, sims)
}

// fullMatrix is the paper's full figure matrix at CI scale: every
// registered scheme (18) on the golden three-workload subset.
func fullMatrix(t *testing.T, imageSeed, walkSeed, warm, measure uint64) []*boomsim.Simulation {
	t.Helper()
	var sims []*boomsim.Simulation
	for _, sch := range boomsim.Schemes() {
		for _, wl := range []string{"Apache", "DB2", "SPEC-like"} {
			s, err := boomsim.New(
				boomsim.WithScheme(sch.Name),
				boomsim.WithWorkload(wl),
				boomsim.WithFootprintKB(64),
				boomsim.WithWindow(warm, measure),
				boomsim.WithSeeds(imageSeed, walkSeed),
			)
			if err != nil {
				t.Fatalf("New(%s, %s): %v", sch.Name, wl, err)
			}
			sims = append(sims, s)
		}
	}
	if len(sims) < 18*3 {
		t.Fatalf("matrix has %d cells, want >= %d", len(sims), 18*3)
	}
	return sims
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedMatrixMatchesLocal is the fabric's core contract: a full
// 18-scheme x 3-workload matrix sharded over 3 workers returns byte-for-
// byte the JSON a local RunMatrix produces, and a repeated identical sweep
// is answered almost entirely from the workers' caches thanks to key-affine
// routing.
func TestDistributedMatrixMatchesLocal(t *testing.T) {
	workers := startWorkers(t, 3)
	sims := fullMatrix(t, 7, 11, 1000, 5000)
	ctx := context.Background()

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}

	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithBatchSize(4),
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	// Route through RunMatrix's WithCluster option so the public switch
	// between local and distributed execution is what's under test.
	dist, err := boomsim.RunMatrix(ctx, sims, boomsim.WithCluster(cl))
	if err != nil {
		t.Fatalf("distributed RunMatrix: %v", err)
	}
	if lraw, draw := mustJSON(t, local), mustJSON(t, dist); !bytes.Equal(lraw, draw) {
		t.Fatalf("distributed results differ from local:\nlocal: %.400s\ndist:  %.400s", lraw, draw)
	}

	stats := cl.Stats()
	if stats.JobsCompleted != uint64(len(sims)) {
		t.Errorf("JobsCompleted = %d, want %d", stats.JobsCompleted, len(sims))
	}
	spread := 0
	for _, w := range stats.Workers {
		if w.Jobs > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("only %d of 3 workers served cells — rendezvous routing did not spread the matrix", spread)
	}

	// Identical sweep, fresh coordinator: key-affine routing must land
	// every cell on the worker that already holds it.
	repeat, err := runDistributed(ctx, sims,
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithBatchSize(4),
	)
	if err != nil {
		t.Fatalf("repeat distributed sweep: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, repeat)) {
		t.Fatal("repeat sweep results differ from local")
	}
	var served uint64
	for _, w := range workers {
		served += w.srv.Stats().CacheHits
	}
	// The coordinator's own observation is the acceptance metric: >90% of
	// the repeat sweep must be cache hits (it is 100% when routing is
	// perfectly affine; the threshold leaves room for a hedged duplicate).
	// Only the second coordinator's stats cover the repeat sweep alone.
	if ratio := hitRatioOfRepeatSweep(t, ctx, workers, sims); ratio < 0.9 {
		t.Errorf("coordinator-observed cache-hit ratio on repeat sweep = %.2f, want > 0.9", ratio)
	}
	if served == 0 {
		t.Error("workers report zero cache hits after an identical repeat sweep")
	}
}

// hitRatioOfRepeatSweep reruns the sweep once more on a fresh coordinator
// and returns its observed cache-hit ratio.
func hitRatioOfRepeatSweep(t *testing.T, ctx context.Context, workers []*testWorker, sims []*boomsim.Simulation) float64 {
	t.Helper()
	cl, err := boomsim.NewCluster(boomsim.WithEndpoints(endpoints(workers)...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunMatrix(ctx, sims); err != nil {
		t.Fatal(err)
	}
	return cl.Stats().CacheHitRatio()
}

// TestDistributedSurvivesWorkerDeath kills one of three workers while the
// sweep is in flight: its in-flight and queued cells must re-dispatch to
// the survivors and the reassembled matrix must still be byte-identical to
// the local run.
func TestDistributedSurvivesWorkerDeath(t *testing.T) {
	workers := startWorkers(t, 3)
	// Distinct seeds from the other test so every worker cache is cold and
	// the victim actually owns unfinished work when it dies.
	sims := fullMatrix(t, 13, 17, 2000, 10000)
	ctx := context.Background()

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}

	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithBatchSize(3),
		boomsim.WithWorkerInFlight(1),
		boomsim.WithJobAttempts(10),
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cl.Stats().JobsCompleted >= 2 {
				// Refuse new connections, then sever live ones: the worker
				// is gone as far as the coordinator can tell. In the other
				// order a dispatch landing between the two opens a fresh
				// keep-alive connection that survives, and the victim
				// quietly finishes its shard.
				workers[1].http.Listener.Close()
				workers[1].http.CloseClientConnections()
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	dist, err := cl.RunMatrix(ctx, sims)
	<-killed
	if err != nil {
		t.Fatalf("distributed sweep with worker death: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, dist)) {
		t.Fatal("post-death distributed results differ from local")
	}
	stats := cl.Stats()
	if stats.WorkerDeaths == 0 {
		t.Error("WorkerDeaths = 0, want >= 1 after killing a worker mid-sweep")
	}
	if stats.JobsRetried == 0 {
		t.Error("JobsRetried = 0, want >= 1 — the dead worker's cells must have re-dispatched")
	}
}

// TestDistributedNoWorkers pins the typed error for an empty/dead pool.
func TestDistributedNoWorkers(t *testing.T) {
	if _, err := boomsim.NewCluster(); !errors.Is(err, boomsim.ErrNoWorkers) {
		t.Fatalf("NewCluster() err = %v, want ErrNoWorkers", err)
	}

	dead := httptest.NewServer(nil)
	dead.Close()
	sims := []*boomsim.Simulation{mustSim(t)}
	_, err := runDistributed(context.Background(), sims,
		boomsim.WithEndpoints(dead.URL))
	if !errors.Is(err, boomsim.ErrNoWorkers) {
		t.Fatalf("distributed run err = %v, want ErrNoWorkers", err)
	}
}

// TestDistributedRecorderOverflowFails pins that a cell whose flight
// recorder overflows fails a distributed sweep the way it fails a local
// one: the worker's 400 names the full recorder, and the coordinator stops
// instead of retrying the cell on another worker.
func TestDistributedRecorderOverflowFails(t *testing.T) {
	workers := startWorkers(t, 2)
	sims := []*boomsim.Simulation{
		mustSim(t),
		mustSim(t, boomsim.WithWindow(0, 100_000), boomsim.WithFlightRecorder(1)),
	}
	cl, err := boomsim.NewCluster(boomsim.WithEndpoints(endpoints(workers)...))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.RunMatrix(context.Background(), sims)
	if err == nil || !strings.Contains(err.Error(), "flight recorder full") {
		t.Fatalf("err = %v, want the worker's full-recorder rejection", err)
	}
	if !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Errorf("err = %v, want ErrInvalidOption as a local run returns", err)
	}
	if st := cl.Stats(); st.JobsRetried != 0 || st.CellsRetried != 0 {
		t.Errorf("stats = %+v, want no retry of a rejected cell", st)
	}
}

// TestDistributedLargeRecorderResultMatchesLocal runs a cell whose
// flight-recorder timeline is near the recorder's epoch cap (about 59K
// epochs; its /v1/jobs answer is about 19 MB) through a one-worker cluster:
// the coordinator must read the whole answer and return the local run's
// bytes.
func TestDistributedLargeRecorderResultMatchesLocal(t *testing.T) {
	workers := startWorkers(t, 1)
	sim, err := boomsim.New(boomsim.WithWorkload("Apache"),
		boomsim.WithWindow(0, 100_000), boomsim.WithFlightRecorder(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local, err := sim.Run(ctx)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if len(local.Epochs) < frontend.MaxEpochs/2 {
		t.Fatalf("local run recorded %d epochs; the cell no longer yields a large answer", len(local.Epochs))
	}
	dist, err := runDistributed(ctx, []*boomsim.Simulation{sim}, boomsim.WithEndpoints(endpoints(workers)...))
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, dist[0])) {
		t.Fatal("distributed result differs from the local run")
	}
}

// TestMaxJobResultBytesHoldsLargestResult pins wire.MaxJobResultBytes, the
// coordinator's per-job read cap, above the largest /v1/jobs entry a worker
// can write: a Result with frontend.MaxEpochs epochs, every counter at its
// longest encoding, every statistic any built-in scheme registers, and a
// custom scheme name as long as a request body may be, made of characters
// JSON escapes to six bytes each. The epochs are nearly all of it: the
// compact one-job answer is 29,692,614 bytes.
func TestMaxJobResultBytesHoldsLargestResult(t *testing.T) {
	var sims []*boomsim.Simulation
	for _, sch := range boomsim.Schemes() {
		sims = append(sims, mustSim(t, boomsim.WithScheme(sch.Name)))
	}
	runs, err := boomsim.RunMatrix(context.Background(), sims)
	if err != nil {
		t.Fatal(err)
	}
	// -1.2345678901234567e-06 encodes as -0.0000012345678901234567, the
	// longest float64 JSON encoding.
	const longFloat = -1.2345678901234567e-06
	stats := make(map[string]float64)
	for _, r := range runs {
		for k := range r.Stats {
			stats[k] = longFloat
		}
	}
	workload := ""
	for _, wl := range boomsim.Workloads() {
		if len(wl.Name) > len(workload) {
			workload = wl.Name
		}
	}
	const u, i = uint64(math.MaxUint64), int64(math.MaxInt64)
	r := boomsim.Result{
		Scheme: strings.Repeat("<", 1<<20), Workload: workload,
		Instructions: u, Cycles: i, IPC: longFloat,
		FetchStallCycles: u, StallFraction: longFloat,
		StallCycles:             boomsim.ClassCounts{Sequential: u, Conditional: u, Unconditional: u},
		MispredictSquashesPerKI: longFloat, BTBMissSquashesPerKI: longFloat,
		BTBLookups: u, BTBMisses: u, BTBMissRate: longFloat, L1IMissesPerKI: longFloat,
		Prefetches: u, LLCAccesses: u, LLCMisses: u, PredecodedLines: u, PrefetchMetaBytes: u,
		StorageOverheadKB: longFloat, Stats: stats,
		Epochs: make([]boomsim.Epoch, frontend.MaxEpochs),
	}
	for k := range r.Epochs {
		r.Epochs[k] = boomsim.Epoch{StartCycle: i, Cycles: i, Instructions: u, FetchStallCycles: u,
			FTQEmptyCycles: u, BTBMisses: u, Squashes: u, Prefetches: u, PrefetchHits: u, DemandMisses: u}
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	// boomsimd writes a /v1/jobs answer compact, with a trailing newline.
	jr := wire.JobResult{Key: sims[0].Fingerprint(), Cached: true, Result: raw, SimNanos: i, Warm: "fresh"}
	answer, err := json.Marshal(wire.JobsResponse{Jobs: []wire.JobResult{jr}})
	if err != nil {
		t.Fatal(err)
	}
	answer = append(answer, '\n')
	t.Logf("largest one-job /v1/jobs answer: %d bytes, cap %d", len(answer), wire.MaxJobResultBytes)
	if len(answer) > wire.MaxJobResultBytes {
		t.Fatalf("a one-job answer takes %d bytes, above wire.MaxJobResultBytes = %d", len(answer), wire.MaxJobResultBytes)
	}
}

func mustSim(t *testing.T, opts ...boomsim.Option) *boomsim.Simulation {
	t.Helper()
	opts = append([]boomsim.Option{
		boomsim.WithFootprintKB(64),
		boomsim.WithWindow(500, 2000),
	}, opts...)
	s, err := boomsim.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDistributedCustomSchemeConfig is the config plane's end-to-end
// acceptance: a custom declarative scheme loaded from a JSON file — one no
// worker has registered — runs through the cluster fabric, its config
// traveling inline on the wire, and comes back byte-identical to a local
// run, per-component registry stats included.
func TestDistributedCustomSchemeConfig(t *testing.T) {
	workers := startWorkers(t, 2)
	cfg, err := boomsim.LoadSchemeConfig("testdata/schemes/boomerang-ftq64.json")
	if err != nil {
		t.Fatal(err)
	}
	var sims []*boomsim.Simulation
	for _, wl := range []string{"Apache", "DB2"} {
		sims = append(sims,
			mustSim(t, boomsim.WithSchemeConfig(cfg), boomsim.WithWorkload(wl)),
			mustSim(t, boomsim.WithScheme("Boomerang"), boomsim.WithWorkload(wl)))
	}
	ctx := context.Background()

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	dist, err := runDistributed(ctx, sims,
		boomsim.WithEndpoints(endpoints(workers)...),
	)
	if err != nil {
		t.Fatalf("distributed RunMatrix: %v", err)
	}
	if lraw, draw := mustJSON(t, local), mustJSON(t, dist); !bytes.Equal(lraw, draw) {
		t.Fatalf("custom-scheme distributed results differ from local:\nlocal: %.400s\ndist:  %.400s", lraw, draw)
	}
	if dist[0].Scheme != "Boomerang-FTQ64" {
		t.Errorf("distributed result reports scheme %q, want the config's name", dist[0].Scheme)
	}
	if len(dist[0].Stats) == 0 || dist[0].Stats["boomerang.probes"] == 0 {
		t.Errorf("custom scheme's per-component stats did not survive the wire: %v", dist[0].Stats)
	}
	// The custom cell and the stock Boomerang cell must not alias in the
	// workers' content-addressed caches.
	if sims[0].Fingerprint() == sims[1].Fingerprint() {
		t.Error("custom and stock Boomerang cells share a fingerprint")
	}
}
