// Chaos end-to-end suite: the crash-safety acceptance tests. Each test
// injects faults — worker and coordinator death, transport kills and 5xx
// storms, torn journal entries, torn store writes — and asserts the one
// invariant that matters: a recovered sweep produces bytes identical to an
// unfaulted local RunMatrix, recomputing only what was genuinely lost.
//
// Faults come from internal/chaos (seeded, deterministic) or from explicit
// process-level kills (listener close + context cancel), so a failing run
// reproduces from its seed.
package boomsim_test

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/chaos"
	"boomsim/internal/server"
	"boomsim/internal/store"
)

// allWorkloadsMatrix is the full 18-scheme x 7-workload sweep (126 cells) at
// CI scale — the acceptance matrix for the crash-safety tests.
func allWorkloadsMatrix(t *testing.T, imageSeed, walkSeed uint64) []*boomsim.Simulation {
	t.Helper()
	var sims []*boomsim.Simulation
	for _, sch := range boomsim.Schemes() {
		for _, wl := range boomsim.Workloads() {
			s, err := boomsim.New(
				boomsim.WithScheme(sch.Name),
				boomsim.WithWorkload(wl.Name),
				boomsim.WithFootprintKB(64),
				boomsim.WithWindow(500, 2000),
				boomsim.WithSeeds(imageSeed, walkSeed),
			)
			if err != nil {
				t.Fatalf("New(%s, %s): %v", sch.Name, wl.Name, err)
			}
			sims = append(sims, s)
		}
	}
	if len(sims) < 18*7 {
		t.Fatalf("matrix has %d cells, want >= %d", len(sims), 18*7)
	}
	return sims
}

// durableWorker is one boomsimd with a disk-backed result store on a fixed
// address, so a "restarted" worker comes back where the coordinator (and
// rendezvous hashing) expects it — with its store contents intact.
type durableWorker struct {
	t       *testing.T
	dir     string
	addr    string
	srv     *server.Server
	hs      *http.Server
	st      *store.Store
	stopped bool
}

func startDurableWorker(t *testing.T, dir string) *durableWorker {
	t.Helper()
	w := &durableWorker{t: t, dir: dir}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = l.Addr().String()
	w.serve(l)
	return w
}

func (w *durableWorker) serve(l net.Listener) {
	w.t.Helper()
	st, err := store.Open(w.dir, store.Options{})
	if err != nil {
		w.t.Fatal(err)
	}
	w.st = st
	w.srv = server.New(server.Config{QueueDepth: 512, Store: st})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.stopped = false
	go w.hs.Serve(l)
	w.t.Cleanup(w.stop)
}

// stop kills the worker process as far as the coordinator can tell: the
// listener refuses new connections and live ones are severed.
func (w *durableWorker) stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	w.hs.Close()
	w.srv.Close()
}

// restart brings the worker back on its original address with a fresh
// in-memory cache but the same store directory.
func (w *durableWorker) restart() {
	w.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if l, err = net.Listen("tcp", w.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		w.t.Fatalf("rebinding %s: %v", w.addr, err)
	}
	w.serve(l)
}

func (w *durableWorker) url() string { return "http://" + w.addr }

// journalEntries counts the completed cells a journal directory holds, as a
// freshly opened store sees them.
func journalEntries(t *testing.T, dir string) int {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return int(st.Stats().Entries)
}

// TestCrashSafeSweepSurvivesWorkerAndCoordinatorDeath is the acceptance
// test: mid-way through the full 18x7 sweep a worker dies AND the
// coordinator is killed. Both restart — the worker on its original address
// with its durable store, the coordinator against the same journal — and
// the resumed sweep must complete byte-identical to an unfaulted local
// RunMatrix, recomputing exactly the cells the journal never recorded.
func TestCrashSafeSweepSurvivesWorkerAndCoordinatorDeath(t *testing.T) {
	sims := allWorkloadsMatrix(t, 23, 29)
	ctx := context.Background()

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}

	workers := make([]*durableWorker, 3)
	for i := range workers {
		workers[i] = startDurableWorker(t, filepath.Join(t.TempDir(), "store"))
	}
	eps := []string{workers[0].url(), workers[1].url(), workers[2].url()}
	journal := filepath.Join(t.TempDir(), "journal")
	opts := func() []boomsim.ClusterOption {
		return []boomsim.ClusterOption{
			boomsim.WithEndpoints(eps...),
			boomsim.WithBatchSize(3),
			boomsim.WithWorkerInFlight(1),
			boomsim.WithJobAttempts(10),
			boomsim.WithJournal(journal),
		}
	}

	cl1, err := boomsim.NewCluster(opts()...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	runCtx, kill := context.WithCancel(ctx)
	defer kill()
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			// Crash once real progress exists and the victim worker has
			// durable state to prove survives: kill the worker, then the
			// coordinator.
			if cl1.Stats().JobsCompleted >= 10 && workers[1].st.Stats().Writes > 0 {
				workers[1].stop()
				kill()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	_, err = cl1.RunMatrix(runCtx, sims)
	<-crashed
	if err == nil {
		t.Fatal("sweep completed before the injected crash — it never ran through the fault window")
	}

	journaled := journalEntries(t, journal)
	if journaled == 0 || journaled >= len(sims) {
		t.Fatalf("journal holds %d of %d cells at crash time; the crash must land mid-sweep", journaled, len(sims))
	}

	workers[1].restart()
	if got := workers[1].st.Stats().Entries; got == 0 {
		t.Error("restarted worker recovered 0 store entries — results did not survive the restart")
	}

	cl2, err := boomsim.NewCluster(opts()...)
	if err != nil {
		t.Fatalf("NewCluster (resume): %v", err)
	}
	resumed, err := cl2.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("resumed RunMatrix: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, resumed)) {
		t.Fatal("resumed sweep results differ from the unfaulted local run")
	}
	st := cl2.Stats()
	if st.JobsResumed != uint64(journaled) {
		t.Errorf("JobsResumed = %d, want the journal's %d entries", st.JobsResumed, journaled)
	}
	if want := uint64(len(sims) - journaled); st.JobsCompleted != want {
		t.Errorf("recomputed %d cells, want exactly the %d non-journaled ones", st.JobsCompleted, want)
	}
}

// TestChaosTransportSweepByteIdentical drives a sweep through a seeded
// fault-injecting transport — connection kills, 503 storms, 500s, stragglers
// — and asserts the retry/breaker machinery still delivers bytes identical
// to a local run.
func TestChaosTransportSweepByteIdentical(t *testing.T) {
	workers := startWorkers(t, 3)
	sims := fullMatrix(t, 31, 37, 1000, 5000)
	ctx := context.Background()

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}

	const seed = 42
	tr := chaos.NewTransport(nil, seed, chaos.Plan{
		PKill:     0.08,
		P503:      0.08,
		P500:      0.05,
		PSlow:     0.05,
		SlowDelay: 5 * time.Millisecond,
		MaxFaults: 60,
	})
	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithClusterClient(&http.Client{Transport: tr}),
		boomsim.WithBatchSize(3),
		boomsim.WithJobAttempts(20),
		boomsim.WithBreakerCooldown(10*time.Millisecond, 50*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	dist, err := cl.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("sweep under chaos transport (seed %d): %v", seed, err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, dist)) {
		t.Fatalf("chaos-transport results differ from local (seed %d)", seed)
	}
	kills, f503s, f500s, slows, passed := tr.Counts()
	t.Logf("chaos seed %d: %d kills, %d 503s, %d 500s, %d slows, %d passed",
		seed, kills, f503s, f500s, slows, passed)
	if kills+f503s+f500s+slows == 0 {
		t.Error("the chaos plan injected nothing — the test proved nothing")
	}
}

// TestChaosTornJournalResume completes a journaled sweep, tears one entry
// of the journal directory (bytes lost off its end, as power loss during a
// write leaves a file), and resumes: the torn cell — and only the torn cell —
// is quarantined and recomputed, and the results stay byte-identical.
func TestChaosTornJournalResume(t *testing.T) {
	workers := startWorkers(t, 2)
	sims := fullMatrix(t, 41, 43, 500, 2000)
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "journal")

	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	first, err := runDistributed(ctx, sims,
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithJournal(journal),
	)
	if err != nil {
		t.Fatalf("journaled sweep: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, first)) {
		t.Fatal("journaled sweep differs from local before any fault")
	}
	if got := journalEntries(t, journal); got != len(sims) {
		t.Fatalf("journal holds %d entries after a complete sweep, want %d", got, len(sims))
	}

	torn := sims[len(sims)/2].Fingerprint()
	if err := chaos.Tear(filepath.Join(journal, torn[:2], torn), 9); err != nil {
		t.Fatal(err)
	}

	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithJournal(journal),
	)
	if err != nil {
		t.Fatalf("NewCluster (resume): %v", err)
	}
	resumed, err := cl.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("resume after torn journal: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, resumed)) {
		t.Fatal("post-tear resumed results differ from local")
	}
	st := cl.Stats()
	if want := uint64(len(sims) - 1); st.JobsResumed != want {
		t.Errorf("JobsResumed = %d, want %d — the torn entry must not be trusted", st.JobsResumed, want)
	}
	if st.JobsCompleted != 1 {
		t.Errorf("recomputed %d cells, want exactly the torn one", st.JobsCompleted)
	}
	if _, err := os.Stat(filepath.Join(journal, "quarantine", torn)); err != nil {
		t.Errorf("the torn entry was not quarantined: %v", err)
	}
	if got := journalEntries(t, journal); got != len(sims) {
		t.Errorf("journal holds %d entries after the resume, want %d: the recomputed cell is stored again", got, len(sims))
	}
}

// TestResumeSharesCellsAcrossMatrices runs one matrix against a journal,
// then an overlapping one against the same journal on fresh workers: the
// second sweep resumes exactly the cells the two matrices share, computes
// only the rest, and matches a local run byte for byte. Each cell is a pure
// function of its fingerprint, so a journal is not tied to the matrix that
// wrote it.
func TestResumeSharesCellsAcrossMatrices(t *testing.T) {
	all := fullMatrix(t, 59, 61, 500, 2000)
	first, second := all[:2*len(all)/3], all[len(all)/3:]
	shared := len(first) + len(second) - len(all)
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "journal")

	if _, err := runDistributed(ctx, first,
		boomsim.WithEndpoints(endpoints(startWorkers(t, 2))...),
		boomsim.WithJournal(journal),
	); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	local, err := boomsim.RunMatrix(ctx, second)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(startWorkers(t, 2))...),
		boomsim.WithJournal(journal),
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	resumed, err := cl.RunMatrix(ctx, second)
	if err != nil {
		t.Fatalf("second sweep against the first one's journal: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, resumed)) {
		t.Fatal("second sweep differs from its local run")
	}
	st := cl.Stats()
	if st.JobsResumed != uint64(shared) {
		t.Errorf("JobsResumed = %d, want the %d shared cells", st.JobsResumed, shared)
	}
	if want := uint64(len(second) - shared); st.JobsCompleted != want || st.CacheHits != 0 {
		t.Errorf("computed %d cells (%d worker cache hits), want the %d unshared ones, none cached",
			st.JobsCompleted, st.CacheHits, want)
	}
	if got := journalEntries(t, journal); got != len(all) {
		t.Errorf("journal holds %d entries, want the union's %d", got, len(all))
	}
}

// TestResumeFromWorkerStoreAgainstDeadPool passes a durable worker's -store
// directory to WithJournal: worker and coordinator share one format, so
// every cell that worker computed resumes from its store, with no dispatch,
// while the worker itself is dead.
func TestResumeFromWorkerStoreAgainstDeadPool(t *testing.T) {
	sims := fullMatrix(t, 71, 73, 500, 2000)
	ctx := context.Background()
	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	w := startDurableWorker(t, filepath.Join(t.TempDir(), "store"))
	if _, err := runDistributed(ctx, sims, boomsim.WithEndpoints(w.url())); err != nil {
		t.Fatalf("sweep through the durable worker: %v", err)
	}
	w.stop()

	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(w.url()),
		boomsim.WithJournal(w.dir),
	)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	resumed, err := cl.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("sweep resumed from the worker's store against a dead pool: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, resumed)) {
		t.Fatal("cells resumed from the worker's store differ from the local run")
	}
	st := cl.Stats()
	if st.JobsResumed != uint64(len(sims)) || st.JobsDispatched != 0 {
		t.Errorf("resumed %d and dispatched %d of %d cells, want all resumed and none dispatched",
			st.JobsResumed, st.JobsDispatched, len(sims))
	}
}

// TestChaosStoreCorruptionNeverServed runs a worker whose store suffers
// seeded torn writes, then flips bits in the entries that did land,
// restarts the worker onto the same directory, and re-runs the identical
// sweep. Torn writes must be rejected at Put time (no torn entry ever
// becomes visible), bit-rotted entries must be quarantined and recomputed
// on read, and the results stay byte-identical throughout.
func TestChaosStoreCorruptionNeverServed(t *testing.T) {
	dir := t.TempDir()
	const seed = 7
	ffs := chaos.NewFS(nil, seed, chaos.FSPlan{PTornWrite: 0.3})
	st1, err := store.Open(dir, store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{QueueDepth: 512, Store: st1})
	hs1 := httptest.NewServer(srv1.Handler())
	t.Cleanup(srv1.Close)

	sims := fullMatrix(t, 47, 53, 500, 2000)
	ctx := context.Background()
	local, err := boomsim.RunMatrix(ctx, sims)
	if err != nil {
		t.Fatalf("local RunMatrix: %v", err)
	}
	first, err := runDistributed(ctx, sims, boomsim.WithEndpoints(hs1.URL))
	if err != nil {
		t.Fatalf("sweep over faulty store: %v", err)
	}
	// Write-through faults must never leak into served results.
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, first)) {
		t.Fatal("results differ while the store was tearing writes")
	}
	hs1.Close()
	srv1.Close()
	torn, _ := ffs.FSCounts()
	if torn == 0 {
		t.Fatalf("FS plan (seed %d) tore no writes — the test proved nothing", seed)
	}
	// Torn writes are caught before the rename makes them visible: they are
	// write errors, not entries.
	s1 := st1.Stats()
	if s1.WriteErrors != uint64(torn) {
		t.Errorf("WriteErrors = %d, want all %d torn writes rejected at Put time", s1.WriteErrors, torn)
	}
	if s1.Entries+int64(torn) != int64(len(sims)) {
		t.Errorf("store holds %d entries after %d of %d writes tore; want the difference", s1.Entries, torn, len(sims))
	}

	// Bit-rot the surviving entries in place (length-preserving tail
	// corruption — exactly what the fingerprint check exists for).
	rotted := 0
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || shard.Name() == "quarantine" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if rotted >= 5 {
				break
			}
			if err := chaos.Corrupt(filepath.Join(dir, shard.Name(), f.Name())); err != nil {
				t.Fatal(err)
			}
			rotted++
		}
	}
	if rotted == 0 {
		t.Fatal("no entries on disk to corrupt")
	}

	// Restart: fresh in-memory cache, same directory, honest filesystem.
	// Every cell now goes through store.Get, so each rotted entry is read,
	// detected, quarantined and recomputed.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(server.Config{QueueDepth: 512, Store: st2})
	hs2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(hs2.Close)
	t.Cleanup(srv2.Close)

	second, err := runDistributed(ctx, sims, boomsim.WithEndpoints(hs2.URL))
	if err != nil {
		t.Fatalf("sweep over recovered store: %v", err)
	}
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, second)) {
		t.Fatal("recovered-store results differ from local — a corrupt entry was served")
	}
	ss := st2.Stats()
	if ss.Quarantined != uint64(rotted) {
		t.Errorf("quarantined %d entries, want all %d rotted ones caught on read", ss.Quarantined, rotted)
	}
	if ss.Hits == 0 {
		t.Error("store served no intact entries — durability gave the repeat sweep nothing")
	}
}
