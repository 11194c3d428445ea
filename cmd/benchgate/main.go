// Command benchgate turns `go test -bench` output into the repo's recorded
// performance trajectory and gates regressions in CI.
//
// It parses benchmark output on stdin (or -in), extracts the headline
// simulation-speed metrics from BenchmarkSimulatorThroughput — simulated
// MIPS, its reciprocal ns/instr, and the hot loop's allocs/op — and the full
// 18x7 sweep wall-clock from BenchmarkMatrix18x7 (matrix_ms), plus every
// custom metric of every other benchmark, and writes them to BENCH_<pr>.json
// in -dir. The earlier BENCH_<n>.json (highest n below -pr) is the gate's
// baseline: benchgate compares ns/instr against it (exiting non-zero on a
// regression beyond -threshold, default 10%) and matrix_ms (beyond
// -matrix-threshold, default 30% — wall-clock over a whole sweep is noisier
// than the steady-state loop), so the perf trajectory is both populated and
// enforced by the same step. A missing or unparsable baseline is itself a
// hard failure — a broken trajectory must never silently gate on nothing —
// except under -first, which acknowledges the repo's first recorded PR.
//
// The headline must come from a steady-state run: the throughput benchmark
// warms up before its timer starts and reports setup cost separately
// (setup_ms, recorded alongside the headline), but at -benchtime=1x the
// timed loop is a floor-sized probe dominated by timer granularity. Gate on
// a long measured loop, appended last so its numbers take precedence over
// any 1x probe in the same stream:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem . > out.txt
//	go test -run '^$' -bench SimulatorThroughput -benchtime=2000000x -benchmem . >> out.txt
//	benchgate -pr 6 -in out.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one PR's recorded performance point.
type Record struct {
	PR int `json:"pr"`
	// CPU is the `cpu:` line of the benchmark run. ns/instr is only
	// comparable between equal machines, so the gate skips (with a notice)
	// when the previous record came from different hardware.
	CPU string `json:"cpu,omitempty"`
	// MIPS is BenchmarkSimulatorThroughput's simulated million instructions
	// per wall-clock second measured over the steady-state loop only (setup
	// and warm-up run before the benchmark timer starts); NsPerInstr is its
	// reciprocal, the repo's headline cost metric (see
	// internal/server/metrics.go NsPerInstr).
	MIPS       float64 `json:"mips"`
	NsPerInstr float64 `json:"ns_per_instr"`
	// SetupMillis is the one-time cost the steady-state loop excludes —
	// image generation, scheme construction and the warm window — recorded
	// so cold-start regressions stay visible without polluting the gate.
	SetupMillis float64 `json:"setup_ms,omitempty"`
	// AllocsPerOp pins the measured loop's zero-allocation contract.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MatrixMillis is BenchmarkMatrix18x7's mean wall-clock (ms) for one
	// full 18-scheme x 7-workload RunMatrix at fixed parallelism with warm
	// reuse on — the sweep-level headline the snapshot/fork plane optimises,
	// complementing the per-instruction steady-state cost above.
	MatrixMillis float64 `json:"matrix_ms,omitempty"`
	// Metrics holds every parsed "<benchmark>/<unit>" value for trajectory
	// analysis beyond the headline (every benchmark's custom metrics included).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		pr         = flag.Int("pr", 0, "PR number to record under (required; output file is BENCH_<pr>.json)")
		in         = flag.String("in", "", "benchmark output file (default stdin)")
		dir        = flag.String("dir", ".", "directory holding BENCH_*.json records")
		threshold  = flag.Float64("threshold", 0.10, "maximum tolerated ns/instr regression vs the previous record")
		matrixThr  = flag.Float64("matrix-threshold", 0.30, "maximum tolerated matrix_ms regression vs the previous record")
		recordOnly = flag.Bool("record-only", false, "write the record but never fail on regression (push-to-main runs)")
		first      = flag.Bool("first", false, "allow a missing previous record (only for the repo's first recorded PR)")
	)
	flag.Parse()
	if *pr <= 0 {
		fatalf("-pr is required and must be positive")
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	rec, err := parse(src)
	if err != nil {
		fatalf("%v", err)
	}
	rec.PR = *pr

	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	out = append(out, '\n')
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", *pr))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s (steady loop %.1f MIPS, %.1f ns/instr, %g allocs/op; setup %.0f ms)\n",
		path, rec.MIPS, rec.NsPerInstr, rec.AllocsPerOp, rec.SetupMillis)

	prev, ok, err := previous(*dir, *pr)
	if err != nil {
		// A baseline that exists but cannot be read or parsed is a broken
		// trajectory, not an absent one — gating on nothing here would let
		// regressions slide in silently behind a corrupt file.
		fatalf("loading previous record: %v", err)
	}
	if !ok {
		// Likewise a missing baseline: every PR after the first must have a
		// predecessor record checked in, so "nothing to gate against" means
		// the trajectory went dark. Fail loudly; -first acknowledges the one
		// legitimate case (the repo's very first recorded PR).
		if *first {
			fmt.Fprintln(os.Stderr, "benchgate: no previous record (-first); recording without a gate")
			return
		}
		fatalf("no previous BENCH_<n>.json below PR %d in %s: the bench trajectory is broken (pass -first only for the repo's first recorded PR)", *pr, *dir)
	}
	// Wall-clock metrics measured on different hardware gate the machine,
	// not the code; record the point and report, but do not fail.
	if prev.CPU != rec.CPU {
		fmt.Fprintf(os.Stderr, "benchgate: previous record is from different hardware (%q vs %q); skipping the gates\n",
			prev.CPU, rec.CPU)
		return
	}
	failed := false
	gate := func(metric string, prevV, curV, thr float64) {
		if prevV <= 0 || curV <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: missing %s on one side; skipping its gate\n", metric)
			return
		}
		ratio := curV/prevV - 1
		fmt.Fprintf(os.Stderr, "benchgate: %s %.2f -> %.2f vs PR %d (%+.1f%%)\n",
			metric, prevV, curV, prev.PR, 100*ratio)
		switch {
		case *recordOnly:
			fmt.Fprintln(os.Stderr, "benchgate: record-only mode; not gating")
		case ratio > thr:
			fmt.Fprintf(os.Stderr, "benchgate: %s regressed %.1f%% vs PR %d (threshold %.0f%%)\n",
				metric, 100*ratio, prev.PR, 100*thr)
			failed = true
		}
	}
	gate("ns/instr", prev.NsPerInstr, rec.NsPerInstr, *threshold)
	gate("matrix_ms", prev.MatrixMillis, rec.MatrixMillis, *matrixThr)
	if failed {
		os.Exit(1)
	}
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parse extracts every "value unit" metric pair from benchmark output.
func parse(r io.Reader) (Record, error) {
	rec := Record{Metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			rec.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		if i := strings.IndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			rec.Metrics[name+"/"+fields[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	if len(rec.Metrics) == 0 {
		return rec, fmt.Errorf("no benchmark lines found in input")
	}
	if mips, ok := rec.Metrics["SimulatorThroughput/MIPS"]; ok && mips > 0 {
		rec.MIPS = mips
		rec.NsPerInstr = 1000 / mips
	}
	if allocs, ok := rec.Metrics["SimulatorThroughput/allocs/op"]; ok {
		rec.AllocsPerOp = allocs
	}
	if setup, ok := rec.Metrics["SimulatorThroughput/setup_ms"]; ok {
		rec.SetupMillis = setup
	}
	if ms, ok := rec.Metrics["Matrix18x7/matrix_ms"]; ok {
		rec.MatrixMillis = ms
	}
	return rec, nil
}

// previous loads the highest-numbered BENCH_<n>.json with n < pr.
func previous(dir string, pr int) (Record, bool, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return Record{}, false, err
	}
	sort.Strings(entries)
	best, found := Record{}, false
	for _, path := range entries {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		n, err := strconv.Atoi(base)
		if err != nil || n >= pr {
			continue
		}
		if found && n <= best.PR {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return Record{}, false, err
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return Record{}, false, fmt.Errorf("%s: %w", path, err)
		}
		if rec.PR == 0 {
			rec.PR = n
		}
		best, found = rec, true
	}
	return best, found, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
