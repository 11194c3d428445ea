// Command boomsim runs one simulation: a control-flow-delivery scheme on a
// workload under a configurable core, and prints the headline statistics.
// It consumes only the public boomsim API; Ctrl-C cancels a run cleanly
// through the context.
//
// Examples:
//
//	boomsim -scheme Boomerang -workload DB2
//	boomsim -scheme FDIP -workload Apache -btb 32768 -llc 18
//	boomsim -scheme FDIP -workload Zeus -predictor never-taken
//	boomsim -scheme Boomerang -workload Apache -json
//	boomsim -scheme-file my-scheme.json -workload DB2 -stats
//	boomsim -remote http://sim-1:8080 -scheme FDIP -workload DB2 -baseline
//	boomsim -remote http://sim-1:8080 -scheme-file my-scheme.json -json
//	boomsim -scheme Boomerang -workload Apache -flight-every 50000 -json
//	boomsim -scheme Boomerang -workload Apache -trace-out run.trace.json
//	boomsim -list
//
// Observability: -flight-every attaches the simulator flight recorder at
// that epoch granularity (cycles); -json results then carry per-epoch
// windowed counters (fetch bubbles, BTB misses, prefetch activity,
// squashes), and text output summarises the epochs. -trace-out writes the
// run (and its -baseline, when asked) as Chrome trace_event JSON loadable
// in Perfetto or chrome://tracing.
//
// -remote runs the same simulations on a boomsimd worker instead of locally
// and prints exactly what the local run prints; with -trace-out the trace
// then holds each run's queue, dispatch and worker-side sim spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"boomsim"
)

func main() {
	var (
		schemeName  = flag.String("scheme", "Boomerang", "scheme: "+strings.Join(schemeNames(), ", "))
		wlName      = flag.String("workload", "Apache", "workload: "+strings.Join(workloadNames(), ", "))
		btb         = flag.Int("btb", 0, "override BTB entries (default Table I: 2048)")
		llc         = flag.Int("llc", 0, "override LLC round-trip latency in cycles (default 30)")
		predictor   = flag.String("predictor", "", "FDIP direction predictor: tage|bimodal|never-taken")
		warm        = flag.Uint64("warm", 300_000, "warmup instructions")
		measure     = flag.Uint64("measure", 1_000_000, "measured instructions")
		imageSeed   = flag.Uint64("image-seed", 1, "code image generation seed")
		walkSeed    = flag.Uint64("walk-seed", 1, "oracle execution seed")
		baseline    = flag.Bool("baseline", false, "also run the Base scheme and report speedup/coverage")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON instead of text")
		list        = flag.Bool("list", false, "list registered schemes and workloads, then exit")
		remote      = flag.String("remote", "", "run on a boomsimd at this base URL instead of locally")
		schemeFile  = flag.String("scheme-file", "", "run a custom declarative scheme from this JSON file instead of -scheme (see EXPERIMENTS.md)")
		showStats   = flag.Bool("stats", false, "also print the full per-component statistics registry, grouped by namespace")
		flightEvery = flag.Int64("flight-every", 0, "attach the simulator flight recorder at this epoch granularity in cycles (0 = off)")
		traceOut    = flag.String("trace-out", "", "write the run as Chrome trace_event JSON (load in Perfetto or chrome://tracing)")
	)
	flag.Parse()

	if *list {
		printRegistry()
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A custom declarative scheme loads once and substitutes for -scheme
	// everywhere (local and remote runs).
	var customScheme *boomsim.SchemeConfig
	if *schemeFile != "" {
		cfg, err := boomsim.LoadSchemeConfig(*schemeFile)
		if err != nil {
			fatalf("%v", err)
		}
		customScheme = &cfg
	}

	newSim := func(scheme string) (*boomsim.Simulation, error) {
		opts := []boomsim.Option{
			boomsim.WithScheme(scheme),
			boomsim.WithWorkload(*wlName),
			boomsim.WithPredictor(*predictor),
			boomsim.WithWindow(*warm, *measure),
			boomsim.WithSeeds(*imageSeed, *walkSeed),
		}
		if customScheme != nil && scheme != "Base" {
			opts = append(opts, boomsim.WithSchemeConfig(*customScheme))
		}
		if *btb > 0 {
			opts = append(opts, boomsim.WithBTBEntries(*btb))
		}
		if *llc > 0 {
			opts = append(opts, boomsim.WithLLCLatency(*llc))
		}
		if *flightEvery > 0 {
			opts = append(opts, boomsim.WithFlightRecorder(*flightEvery))
		}
		return boomsim.New(opts...)
	}

	s, err := newSim(*schemeName)
	if err != nil {
		fatalf("%v", err)
	}

	// A remote or traced run goes through RunMatrix, where the cluster and
	// span recording live; results are identical either way.
	var trace *boomsim.Trace
	if *traceOut != "" {
		trace = boomsim.NewTrace()
	}
	var matrixOpts []boomsim.MatrixOption
	if *remote != "" {
		clusterOpts := []boomsim.ClusterOption{boomsim.WithEndpoints(*remote)}
		if trace != nil {
			clusterOpts = append(clusterOpts, boomsim.WithClusterTrace(trace))
		}
		cl, err := boomsim.NewCluster(clusterOpts...)
		if err != nil {
			fatalf("%v", err)
		}
		matrixOpts = append(matrixOpts, boomsim.WithCluster(cl))
	} else if trace != nil {
		matrixOpts = append(matrixOpts, boomsim.WithMatrixTrace(trace))
	}
	runOne := func(s *boomsim.Simulation) (boomsim.Result, error) {
		if len(matrixOpts) == 0 {
			return s.Run(ctx)
		}
		rs, err := boomsim.RunMatrix(ctx, []*boomsim.Simulation{s}, matrixOpts...)
		if err != nil {
			return boomsim.Result{}, err
		}
		return rs[0], nil
	}
	writeTrace := func() {
		if trace == nil {
			return
		}
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
		fmt.Fprintf(os.Stderr, "boomsim: wrote %d spans to %s — load it at ui.perfetto.dev\n",
			trace.Len(), *traceOut)
	}

	r, err := runOne(s)
	if err != nil {
		fatalf("%v", err)
	}
	if *jsonOut && !*baseline {
		emitJSON(r)
		writeTrace()
		return
	}
	if !*jsonOut {
		printResult(r)
		if len(r.Epochs) > 0 {
			printEpochs(r, *flightEvery)
		}
		if *showStats {
			printStats(r)
		}
	}

	if *baseline {
		bs, err := newSim("Base")
		if err != nil {
			fatalf("baseline: %v", err)
		}
		b, err := runOne(bs)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		if *jsonOut {
			emitJSON(struct {
				Result   boomsim.Result `json:"result"`
				Baseline boomsim.Result `json:"baseline"`
				Speedup  float64        `json:"speedup"`
				Coverage float64        `json:"coverage"`
			}{r, b, boomsim.Speedup(b, r), boomsim.Coverage(b, r)})
			writeTrace()
			return
		}
		fmt.Printf("\nvs Base (IPC %.3f):\n", b.IPC)
		fmt.Printf("  speedup             %.3fx\n", boomsim.Speedup(b, r))
		fmt.Printf("  stall cycle coverage %.1f%%\n", 100*boomsim.Coverage(b, r))
	}
	writeTrace()
}

// printEpochs summarises the flight recorder's windowed counters: the
// best- and worst-IPC epochs bracket how much the run's behaviour moves
// within the measurement window — the time-resolved view a single
// end-of-run average hides.
func printEpochs(r boomsim.Result, every int64) {
	worst, best := -1, -1
	var worstIPC, bestIPC float64
	for i, e := range r.Epochs {
		if e.Cycles == 0 {
			continue
		}
		ipc := float64(e.Instructions) / float64(e.Cycles)
		if worst < 0 || ipc < worstIPC {
			worst, worstIPC = i, ipc
		}
		if best < 0 || ipc > bestIPC {
			best, bestIPC = i, ipc
		}
	}
	fmt.Printf("  flight recorder      %d epochs of %d cycles\n", len(r.Epochs), every)
	if worst >= 0 {
		we, be := r.Epochs[worst], r.Epochs[best]
		fmt.Printf("    worst epoch        #%d IPC %.3f (cycle %d, %d BTB misses, %d squashes)\n",
			worst, worstIPC, we.StartCycle, we.BTBMisses, we.Squashes)
		fmt.Printf("    best epoch         #%d IPC %.3f (cycle %d, %d prefetch hits)\n",
			best, bestIPC, be.StartCycle, be.PrefetchHits)
	}
}

func printResult(r boomsim.Result) {
	fmt.Printf("%s on %s\n", r.Scheme, r.Workload)
	fmt.Printf("  instructions retired %d in %d cycles (IPC %.3f)\n",
		r.Instructions, r.Cycles, r.IPC)
	fmt.Printf("  fetch stall cycles   %d (%.1f%% of cycles)\n",
		r.FetchStallCycles, 100*r.StallFraction)
	fmt.Printf("  stalls by class      seq=%d cond=%d uncond=%d\n",
		r.StallCycles.Sequential, r.StallCycles.Conditional, r.StallCycles.Unconditional)
	fmt.Printf("  squashes/kilo-instr  mispredict=%.2f btb-miss=%.2f\n",
		r.MispredictSquashesPerKI, r.BTBMissSquashesPerKI)
	fmt.Printf("  BTB miss rate        %.2f%% (%d/%d lookups)\n",
		100*r.BTBMissRate, r.BTBMisses, r.BTBLookups)
	fmt.Printf("  L1-I demand misses   %.2f MPKI\n", r.L1IMissesPerKI)
	fmt.Printf("  hierarchy            prefetches=%d LLC accesses=%d LLC misses=%d\n",
		r.Prefetches, r.LLCAccesses, r.LLCMisses)
	fmt.Printf("  scheme metadata      %.2f KB/core\n", r.StorageOverheadKB)
}

// printStats renders the full per-component registry grouped by namespace:
// every counter each component registered, not just the headline fields.
func printStats(r boomsim.Result) {
	names := make([]string, 0, len(r.Stats))
	for n := range r.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("\nper-component stats:")
	lastNS := ""
	for _, n := range names {
		ns, rest, _ := strings.Cut(n, ".")
		if ns != lastNS {
			fmt.Printf("  [%s]\n", ns)
			lastNS = ns
		}
		fmt.Printf("    %-40s %g\n", rest, r.Stats[n])
	}
}

func printRegistry() {
	fmt.Println("schemes:")
	for _, s := range boomsim.Schemes() {
		fmt.Printf("  %-22s %7.2f KB  %s\n", s.Name, s.StorageOverheadKB, s.Description)
	}
	fmt.Println("workloads:")
	for _, w := range boomsim.Workloads() {
		fmt.Printf("  %-22s %5d KB  %s\n", w.Name, w.FootprintKB, w.Description)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("encoding JSON: %v", err)
	}
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "boomsim: "+format+"\n", args...)
	os.Exit(1)
}
