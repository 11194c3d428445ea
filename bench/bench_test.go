package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as a cold-pass child, as the
// benchmark binary does (see coldPass).
func TestMain(m *testing.M) {
	if os.Getenv(coldPassEnv) != "" {
		os.Exit(coldPassMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestServeTracedAndUntracedBothMiss checks that a traced serve-mixed run
// splits its misses between the traced and untraced requests, so
// trace_overhead_pct compares like with like.
func TestServeTracedAndUntracedBothMiss(t *testing.T) {
	misses := map[bool]int{}
	for i := 0; i < 4*missEvery; i++ {
		if isMiss(i) {
			misses[isTraced(i)]++
		}
	}
	if misses[true] != misses[false] || misses[true] == 0 {
		t.Errorf("misses: %d traced, %d untraced; want equal and non-zero", misses[true], misses[false])
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON holds the harness and BENCHMARK.json to the
// same workloads and metrics, in both directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", wl, workloadNames())
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness prints %v", e2e, endToEnd)
	}
	var layers []metricDef
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness prints %v", layers, perLayer)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("BENCHMARK.json paths %v, want [bench]", b.Paths)
	}
}

func names(list []metricDef) []string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestQuickWorkloads runs every workload at quick scale, untraced and
// traced, with output verification on: each must succeed, print exactly
// its catalogue of metrics, and (traced) write a trace Perfetto can load.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(w+map[int]string{0: "", 1: "/traced"}[trace], func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				var log strings.Builder
				res, err := run(options{
					workload: w, seed: 1, seconds: 0.3, trace: trace, quick: true,
					traceOut: traceOut, expected: filepath.Join("testdata", "expected.json"),
				}, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %t, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				want := names(endToEnd)
				if trace == 1 {
					want = names(perLayer)
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if m.Unit != unitOf(name) {
						t.Errorf("%s has unit %q, catalogue says %q", name, m.Unit, unitOf(name))
					}
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed metrics %v, want %v", got, want)
				}
				if trace == 1 {
					checkChromeTrace(t, traceOut)
				}
			})
		}
	}
}

// checkChromeTrace checks the fields Perfetto's JSON importer requires on
// every event.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("trace event %v lacks %q", e, k)
			}
		}
		if e["ph"] == "X" {
			spans++
			if _, ok := e["ts"]; !ok {
				t.Fatalf("span %v lacks ts", e)
			}
		}
	}
	if spans == 0 {
		t.Fatal("trace holds no spans")
	}
}

// TestCompare runs compare over two record files and checks each verdict
// reaches its row and a regression sets the exit code.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms []float64) string {
		var b strings.Builder
		for _, v := range ms {
			line, err := json.Marshal(record{Workload: "steady-db2", Seed: 1, result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"op_p50_ms": {v, "ms"}, "resident_mb": {v / 2, "MB"}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100.5, 99.5})
	slow := write("slow.jsonl", []float64{130, 131, 129, 130.5, 129.5})
	t.Chdir("..") // compare reads BENCHMARK.json from the repository root

	var out strings.Builder
	if code := compareMain([]string{base, base}, &out); code != 0 {
		t.Fatalf("identical runs: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("identical runs should be within bound:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out); code != 1 {
		t.Fatalf("30%% slower runs: exit %d, want 1\n%s", code, out.String())
	}
	for _, row := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.Contains(row, verdictWorse) && !strings.Contains(row, verdictBetter) {
			t.Errorf("row should judge the 30%% change: %s", row)
		}
	}
}
