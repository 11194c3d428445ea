// Command boomctl runs a simulation matrix across a pool of boomsimd
// workers: the paper's scheme x workload x seed sweep, sharded by the
// distributed experiment fabric (rendezvous routing on each cell's
// configuration key, worker backpressure, straggler hedging, re-dispatch on
// worker death) and reassembled in deterministic matrix order — the same
// bytes a local run would produce.
//
// boomctl is also the hypothesis-driven experiment entry point, and the way
// to regenerate the paper's figures:
//
//	boomctl experiment testdata/experiments/fig9-speedup.json
//	boomctl experiment -endpoints http://sim-1:8080,http://sim-2:8080 spec.json
//
// loads a declarative experiment spec (hypothesis, baseline, candidates,
// workloads, seeds, parameter matrix, success criteria), runs the matrix
// locally or across the pool, aggregates metrics over seeds into mean ±
// 95% confidence intervals, and exits nonzero on a FAIL verdict — see
// EXPERIMENTS.md for the spec format and which spec reproduces which
// figure.
//
// Sweep examples:
//
//	boomctl -workers http://sim-1:8080,http://sim-2:8080,http://sim-3:8080
//	boomctl -workers ... -schemes Base,FDIP,Boomerang -workloads Apache,DB2
//	boomctl -workers ... -schemes all -workloads all -image-seeds 1,2,3 -json
//	boomctl -workers ... -scheme-file deep-ftq.json,wide-boom.json -workloads Apache
//	boomctl -workers ... -hedge 30s -metrics-addr :9090
//	boomctl -workers ... -journal sweep.d              # crash-safe sweep
//	boomctl -resume sweep.d -workers ...               # pick it back up
//	boomctl -membership members.json -journal sweep.d
//	boomctl -workers ... -trace-out sweep.trace.json   # Perfetto-loadable trace
//	boomctl -workers ... -log-level debug -flight-every 50000 -json
//
// Crash safety: -journal names a result store directory, the format
// boomsimd -store writes. Every completed cell is stored durably under its
// configuration fingerprint, and a sweep against the same directory
// (-resume is the self-documenting alias) computes only the cells it does
// not hold: the unfinished remainder of a crashed sweep, or whatever
// another matrix did not share. A worker's -store directory resumes the
// cells that worker computed.
// With -membership the worker pool is re-read from a JSON file during the
// sweep, so workers can be added or drained mid-run. -cell-timeout caps how
// long any single cell may keep failing before the sweep gives up.
//
// Observability: -trace-out writes the whole sweep as Chrome trace_event
// JSON — one row per cell with queue/dispatch/sim phases, retries and
// hedges marked, all under one trace ID that also travels to the workers —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. -log-level
// tunes the coordinator's structured logs on stderr (a -resume always logs
// its one-line journaled-vs-recomputed summary), and -flight-every attaches
// the simulator flight recorder so -json results carry per-epoch counters.
//
// The run summary (dispatch, retry, hedge and cache-hit counters plus
// per-worker load and the slowest cells) goes to stderr; results go to
// stdout as a table, or as JSON with -json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"boomsim"
	"boomsim/internal/obs"
)

func main() {
	// Subcommand dispatch: `boomctl experiment <spec.json>` is the
	// hypothesis-driven entry point; bare boomctl remains the raw matrix
	// sweeper.
	if len(os.Args) > 1 && os.Args[1] == "experiment" {
		runExperimentCmd(os.Args[2:])
		return
	}

	var (
		workers     = flag.String("workers", "", "comma-separated boomsimd endpoints, e.g. http://sim-1:8080,http://sim-2:8080 (this or -membership is required)")
		schemesCSV  = flag.String("schemes", "all", `schemes to sweep ("all" = every registered scheme)`)
		schemeFiles = flag.String("scheme-file", "", "comma-separated JSON scheme files swept alongside -schemes (custom declarative scenarios; see EXPERIMENTS.md)")
		workloadCSV = flag.String("workloads", "Apache,DB2,SPEC-like", `workloads to sweep ("all" = every registered workload)`)
		predictor   = flag.String("predictor", "", "FDIP direction predictor: tage|bimodal|never-taken")
		btb         = flag.Int("btb", 0, "override BTB entries (0 = Table I default)")
		llc         = flag.Int("llc", 0, "override LLC latency in cycles (0 = default)")
		footprint   = flag.Int("footprint", 0, "override workload footprint in KB (0 = profile's own)")
		warm        = flag.Uint64("warm", boomsim.DefaultWarmInstrs, "warmup instructions per cell")
		measure     = flag.Uint64("measure", boomsim.DefaultMeasureInstrs, "measured instructions per cell")
		imageSeeds  = flag.String("image-seeds", "1", "comma-separated code-image seeds")
		walkSeeds   = flag.String("walk-seeds", "1", "comma-separated oracle-walk seeds")

		inflight    = flag.Int("inflight", 2, "max in-flight batches per worker")
		batch       = flag.Int("batch", 4, "cells per worker request")
		retries     = flag.Int("retries", 4, "posts per cell before the sweep fails (a failed post or per-job error uses one; a per-job 429 does not)")
		hedge       = flag.Duration("hedge", 0, "duplicate straggling cells after this in-flight time (0 = off)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "per-batch request timeout: one post, from send to the last byte of the answer")
		journal     = flag.String("journal", "", "result store directory that records completed cells; a sweep against it computes only the cells it lacks")
		resume      = flag.String("resume", "", "resume a crashed sweep from this journal directory (same as -journal, but it must exist)")
		membership  = flag.String("membership", "", `membership file ({"workers":[...]}) re-read during the sweep; overrides -workers as the authoritative pool`)
		cellTimeout = flag.Duration("cell-timeout", 0, "max wall-clock a single cell may spend being retried (0 = unbounded)")
		metricsAddr = flag.String("metrics-addr", "", "serve coordinator Prometheus metrics and /healthz (membership view) on this address during the run")
		jsonOut     = flag.Bool("json", false, "emit results as a JSON array instead of a table")
		traceOut    = flag.String("trace-out", "", "write the sweep as Chrome trace_event JSON (load in Perfetto or chrome://tracing)")
		flightEvery = flag.Int64("flight-every", 0, "attach the simulator flight recorder at this epoch granularity in cycles (0 = off; epochs ride on -json results)")
		logLevel    = flag.String("log-level", "warn", "coordinator log floor on stderr: debug, info, warn or error")
	)
	flag.Parse()
	if *workers == "" && *membership == "" {
		fatalf("-workers or -membership is required")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level)
	journalPath := *journal
	if *resume != "" {
		// A resume always narrates itself: the one-line journaled-vs-recomputed
		// summary should not require turning the log floor down first.
		if level > slog.LevelInfo {
			logger = obs.NewLogger(os.Stderr, slog.LevelInfo)
		}
		if journalPath != "" && journalPath != *resume {
			fatalf("-journal and -resume disagree (%s vs %s); pass one", journalPath, *resume)
		}
		if _, err := os.Stat(*resume); err != nil {
			fatalf("-resume: %v (nothing to resume; use -journal to start a fresh crash-safe sweep)", err)
		}
		journalPath = *resume
	}

	// "none" is a scheme-only escape hatch (sweep just the -scheme-file
	// cells); an empty workload list stays a hard error.
	var schemes []string
	if *schemesCSV != "none" {
		schemes = resolveNames(*schemesCSV, schemeNames())
	}
	workloads := resolveNames(*workloadCSV, workloadNames())
	iseeds := parseSeeds("image-seeds", *imageSeeds)
	wseeds := parseSeeds("walk-seeds", *walkSeeds)

	// Cells sweep the named registry schemes plus any custom declarative
	// schemes loaded from JSON files; each cell is either a name or an
	// inline config that travels to the workers over the wire.
	type schemeCell struct {
		name string
		cfg  *boomsim.SchemeConfig
	}
	var cells []schemeCell
	for _, sch := range schemes {
		cells = append(cells, schemeCell{name: sch})
	}
	if *schemeFiles != "" {
		for _, path := range strings.Split(*schemeFiles, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			cfg, err := boomsim.LoadSchemeConfig(path)
			if err != nil {
				fatalf("%v", err)
			}
			cells = append(cells, schemeCell{name: cfg.Name, cfg: &cfg})
		}
	}
	if len(cells) == 0 {
		fatalf("no schemes to sweep (-schemes none needs -scheme-file)")
	}

	// Matrix order is deterministic: seeds outermost, then workload, then
	// scheme — the order the paper's figures group by.
	var sims []*boomsim.Simulation
	for _, is := range iseeds {
		for _, ws := range wseeds {
			for _, wl := range workloads {
				for _, cell := range cells {
					opts := []boomsim.Option{
						boomsim.WithScheme(cell.name),
						boomsim.WithWorkload(wl),
						boomsim.WithSeeds(is, ws),
						boomsim.WithWindow(*warm, *measure),
					}
					if *flightEvery > 0 {
						opts = append(opts, boomsim.WithFlightRecorder(*flightEvery))
					}
					if cell.cfg != nil {
						opts = append(opts, boomsim.WithSchemeConfig(*cell.cfg))
					}
					if *predictor != "" {
						opts = append(opts, boomsim.WithPredictor(*predictor))
					}
					if *btb > 0 {
						opts = append(opts, boomsim.WithBTBEntries(*btb))
					}
					if *llc > 0 {
						opts = append(opts, boomsim.WithLLCLatency(*llc))
					}
					if *footprint > 0 {
						opts = append(opts, boomsim.WithFootprintKB(*footprint))
					}
					s, err := boomsim.New(opts...)
					if err != nil {
						fatalf("%s on %s: %v", cell.name, wl, err)
					}
					sims = append(sims, s)
				}
			}
		}
	}

	clOpts := []boomsim.ClusterOption{
		boomsim.WithWorkerInFlight(*inflight),
		boomsim.WithBatchSize(*batch),
		boomsim.WithJobAttempts(*retries),
		boomsim.WithClusterTimeout(*timeout),
		boomsim.WithClusterLogger(logger),
	}
	var trace *boomsim.Trace
	if *traceOut != "" {
		trace = boomsim.NewTrace()
		clOpts = append(clOpts, boomsim.WithClusterTrace(trace))
		fmt.Fprintf(os.Stderr, "boomctl: tracing sweep, trace id %s\n", trace.ID())
	}
	if *workers != "" {
		clOpts = append(clOpts, boomsim.WithEndpoints(strings.Split(*workers, ",")...))
	}
	if *membership != "" {
		clOpts = append(clOpts, boomsim.WithMembershipFile(*membership))
	}
	if journalPath != "" {
		clOpts = append(clOpts, boomsim.WithJournal(journalPath))
	}
	if *cellTimeout > 0 {
		clOpts = append(clOpts, boomsim.WithCellTimeout(*cellTimeout))
	}
	if *hedge > 0 {
		clOpts = append(clOpts, boomsim.WithHedgeAfter(*hedge))
	}
	cl, err := boomsim.NewCluster(clOpts...)
	if err != nil {
		fatalf("%v", err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", cl.MetricsHandler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			// Cell-level visibility rides on /healthz whether or not the
			// sweep is traced: totals, distinct retried cells, and the
			// slowest-cells leaderboard.
			st := cl.Stats()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"status":          "ok",
				"membership":      cl.MembershipView(),
				"cells_total":     st.CellsTotal,
				"cells_retried":   st.CellsRetried,
				"slowest_cell_ms": st.SlowestCellMS,
				"slowest_cells":   st.SlowestCells,
			})
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "boomctl: metrics listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pool := "membership file " + *membership
	if *workers != "" {
		pool = fmt.Sprintf("%d workers", len(strings.Split(*workers, ",")))
	}
	fmt.Fprintf(os.Stderr, "boomctl: %d cells (%d schemes x %d workloads x %d seed pairs) across %s\n",
		len(sims), len(cells), len(workloads), len(iseeds)*len(wseeds), pool)
	start := time.Now()
	results, err := cl.RunMatrix(ctx, sims)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatalf("encoding results: %v", err)
		}
	} else {
		printTable(results, len(cells)*len(workloads))
	}
	printSummary(cl.Stats(), len(sims), elapsed)

	if trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("-trace-out: %v", err)
		}
		if err := trace.WriteChromeTrace(f); err != nil {
			fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "boomctl: wrote %d spans (%d dropped) to %s — load it at ui.perfetto.dev\n",
			trace.Len(), trace.Dropped(), *traceOut)
	}
}

// printTable renders one row per cell; when Base is part of the sweep each
// row also shows speedup over Base for the same workload cell — the
// paper's Figure 9 axis. Cells sharing a seed pair form one contiguous
// block of perBlock rows (seeds are the outermost sweep dimension), and
// each block's speedups are computed against the Base rows of that same
// block — never against another seed's baseline.
func printTable(results []boomsim.Result, perBlock int) {
	hasBase := false
	for _, r := range results {
		if r.Scheme == "Base" {
			hasBase = true
			break
		}
	}
	fmt.Printf("%-22s %-12s %8s %8s %10s", "SCHEME", "WORKLOAD", "IPC", "MPKI", "STALL%")
	if hasBase {
		fmt.Printf(" %9s", "SPEEDUP")
	}
	fmt.Println()
	for start := 0; start < len(results); start += perBlock {
		block := results[start:min(start+perBlock, len(results))]
		base := make(map[string]boomsim.Result)
		for _, r := range block {
			if r.Scheme == "Base" {
				base[r.Workload] = r
			}
		}
		for _, r := range block {
			fmt.Printf("%-22s %-12s %8.3f %8.2f %9.1f%%",
				r.Scheme, r.Workload, r.IPC, r.L1IMissesPerKI, 100*r.StallFraction)
			if b, ok := base[r.Workload]; ok {
				fmt.Printf(" %8.3fx", boomsim.Speedup(b, r))
			}
			fmt.Println()
		}
	}
}

func printSummary(st boomsim.ClusterStats, cells int, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr,
		"boomctl: %d cells in %v — dispatched %d, resumed %d, retried %d, hedged %d, cache hits %d (%.0f%%), worker deaths %d\n",
		cells, elapsed.Round(time.Millisecond), st.JobsDispatched, st.JobsResumed, st.JobsRetried, st.JobsHedged,
		st.CacheHits, 100*st.CacheHitRatio(), st.WorkerDeaths)
	for _, w := range st.Workers {
		avg := time.Duration(0)
		if w.Requests > 0 {
			avg = time.Duration(w.LatencyNanos / w.Requests)
		}
		fmt.Fprintf(os.Stderr, "boomctl:   %-30s %7s  jobs %4d  requests %4d  failures %2d  avg batch %v\n",
			w.Endpoint, w.State, w.Jobs, w.Requests, w.Failures, avg.Round(time.Millisecond))
	}
	if len(st.SlowestCells) > 0 {
		fmt.Fprintf(os.Stderr, "boomctl: slowest cells:\n")
		for _, c := range st.SlowestCells {
			key := c.Key
			if len(key) > 16 {
				key = key[:16]
			}
			fmt.Fprintf(os.Stderr, "boomctl:   %-16s %8.0fms  %s\n", key, c.MS, c.Worker)
		}
	}
}

func resolveNames(csv string, all []string) []string {
	if csv == "all" {
		return all
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		fatalf("empty name list %q", csv)
	}
	return out
}

func parseSeeds(flagName, csv string) []uint64 {
	var out []uint64
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fatalf("-%s: %q is not a seed: %v", flagName, s, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("-%s: no seeds in %q", flagName, csv)
	}
	return out
}

func schemeNames() []string {
	infos := boomsim.Schemes()
	out := make([]string, len(infos))
	for i, s := range infos {
		out[i] = s.Name
	}
	return out
}

func workloadNames() []string {
	infos := boomsim.Workloads()
	out := make([]string, len(infos))
	for i, w := range infos {
		out[i] = w.Name
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "boomctl: "+format+"\n", args...)
	os.Exit(1)
}
