// Command bench is boomsim's performance benchmark: it runs one workload in
// its own process, checks that the simulator's outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"op_p50_ms":{"value":…,"unit":"ms"},…}}
//
// Run it from the repository root (README.md has the details):
//
//	bash bench/run.sh --workload steady-db2 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh compare base.jsonl head.jsonl
//
// With --trace 1 it prints the per-layer metrics instead and writes a
// Chrome trace (Perfetto loads it) of the calls it made into each module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"boomsim/internal/obs"
)

// The benchmark uses at most two OS threads' worth of parallelism: the
// reference machine has two cores, and every number is recorded under
// these settings.
const (
	procs       = 2 // GOMAXPROCS
	parallelism = 2 // RunMatrix WithParallelism
	workers     = 2 // boomsimd Workers
	clients     = 2 // concurrent HTTP clients
)

var workloads = map[string]func(*runner) error{
	"steady-db2":   runSteady,
	"stall-llc600": runStall,
	"sweep-cold":   runSweepCold,
	"sweep-rerun":  runSweepRerun,
	"serve-mixed":  runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	update   bool
	record   string
	expected string // checked-in output digests
	traceOut string // Chrome trace of a traced run; empty means .bench_build/trace-<workload>.json
}

func main() {
	if os.Getenv(coldPassEnv) != "" {
		os.Exit(coldPassMain(os.Stdin, os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	o := options{expected: filepath.Join("bench", "testdata", "expected.json")}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "orders the operations and picks serve-mixed's request stream; the simulated inputs are fixed")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the timed loop runs")
	fs.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones, and writes .bench_build/trace-<workload>.json")
	fs.BoolVar(&o.quick, "quick", false, "tiny windows and footprints, for tests")
	fs.BoolVar(&o.update, "update", false, "rewrite this workload's output digest in bench/testdata/expected.json instead of checking it")
	fs.StringVar(&o.record, "record", "", "append this run's result as one JSON line to the file (input to compare)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if o.record != "" {
		if err := appendRecord(o.record, o, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final line's schema.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's configuration and collects what it measures.
type runner struct {
	opts   options
	traced bool
	until  time.Duration // timed-loop length
	col    *obs.Collector
	log    io.Writer

	setups   []float64 // seconds per set-up
	opMS     []float64 // untraced operation latencies
	tracedMS []float64 // traced operation latencies (traced run only)
	rssMB    []float64 // resident sets measured by the workload itself; empty means this process's

	attempted, failed int
	problems          []string
	layers            map[string]float64
}

// fail records a failed or wrong operation.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) layer(name string, v float64) { r.layers[name] = v }

// timeSetup runs one set-up and records its duration.
func (r *runner) timeSetup(fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return nil
}

// loop runs op back to back, starting no operation the run's time would
// likely not cover. In a traced run odd-numbered operations are traced and
// even ones are not, so the two interleave and trace_overhead_pct compares
// like with like. An operation's latency is the time the loop measures
// around it, unless op returns a positive duration it measured itself.
func (r *runner) loop(op func(i int, traced bool) (own time.Duration, err error)) {
	minOps := 1
	if r.traced {
		minOps = 2
	}
	before := memStats()
	start := time.Now()
	for i := 0; ; i++ {
		if elapsed := time.Since(start); i >= minOps && elapsed+elapsed/time.Duration(i) > r.until {
			break
		}
		traced := r.traced && i%2 == 1
		t0 := time.Now()
		own, err := op(i, traced)
		d := time.Since(t0)
		if own > 0 {
			d = own
		}
		r.attempted++
		if err != nil {
			r.fail("operation %d: %v", i, err)
			continue
		}
		if traced {
			r.tracedMS = append(r.tracedMS, ms(d))
		} else {
			r.opMS = append(r.opMS, ms(d))
		}
	}
	r.processLayers(before, r.attempted)
}

func (r *runner) processLayers(before runtime.MemStats, ops int) {
	after := memStats()
	if ops < 1 {
		ops = 1
	}
	r.layer("process.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(ops))
	r.layer("process.gc_per_op", float64(after.NumGC-before.NumGC)/float64(ops))
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// run executes one workload and assembles its result line.
func run(o options, log io.Writer) (result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	runtime.GOMAXPROCS(procs)
	r := &runner{
		opts:   o,
		traced: o.trace == 1,
		until:  time.Duration(o.seconds * float64(time.Second)),
		log:    log,
		layers: map[string]float64{},
	}
	if r.traced {
		r.col = obs.NewCollector(obs.DefaultMaxSpans)
	}
	fmt.Fprintf(log, "workload %s  seed %d  seconds %g  trace %d  quick %t\n", o.workload, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(log, "settings: GOMAXPROCS %d  RunMatrix parallelism %d  server workers %d  clients %d  %s\n",
		procs, parallelism, workers, clients, runtime.Version())
	if err := fn(r); err != nil {
		return result{}, err
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.traced {
		if err := r.writeTrace(); err != nil {
			return result{}, err
		}
		r.layer("trace_overhead_pct", 100*(median(r.tracedMS)-median(r.opMS))/median(r.opMS))
		for _, m := range perLayer {
			v, ok := r.layers[m.Name]
			if !ok {
				return result{}, fmt.Errorf("workload %s did not measure %s", o.workload, m.Name)
			}
			res.Metrics[m.Name] = metric{v, m.Unit}
			fmt.Fprintf(log, "%-38s %12.4g %s\n", m.Name, v, m.Unit)
		}
	} else {
		if len(r.rssMB) == 0 {
			rss, err := residentMB()
			if err != nil {
				return result{}, err
			}
			r.rssMB = []float64{rss}
		}
		samples := map[string][]float64{"op_p50_ms": r.opMS, "setup_s": r.setups, "resident_mb": r.rssMB}
		for name, v := range samples {
			res.Metrics[name] = metric{median(v), unitOf(name)}
		}
		for _, m := range endToEnd {
			fmt.Fprintf(log, "%-12s %12.6g %-3s  %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, summarize(samples[m.Name]))
		}
	}
	res.Correct = r.failed == 0
	fmt.Fprintf(log, "attempted %d  failed %d  error rate %.4g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintln(log, "FAILED:", p)
	}
	return res, nil
}

// residentMB is the process's resident set (VmRSS, in MiB) after a full
// collection that returns freed memory to the system: the warm masters,
// images and caches the workload holds. The peak (VmHWM) would also count
// garbage awaiting collection, which varies from run to run with the
// collector's timing.
func residentMB() (float64, error) {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

func (r *runner) writeTrace() error {
	path := r.opts.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+r.opts.workload+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.col.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(r.log, "trace: %s (%d spans, %d dropped)\n", path, r.col.Len(), r.col.Dropped())
	return nil
}

// record is one line of a -record file: a run's result tagged with what ran.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, o options, res result) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
