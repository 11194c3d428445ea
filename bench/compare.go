package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// runs maps workload → metric → one value per untraced, correct run.
type runs map[string]map[string][]float64

// loadRecords reads a -record file. Traced runs carry no end-to-end metrics
// and are skipped; failed runs are counted and left out.
func loadRecords(path string) (runs, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := runs{}
	failed := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			failed++
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, failed, sc.Err()
}

// compareMain implements `bench compare A B`, run from the repository root:
// one row per workload and end-to-end metric with both sides' medians and
// quartiles and a verdict of B against A under BENCHMARK.json's bounds. It
// exits 1 when any row is worse.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2]runs
	for i, path := range args {
		var failed int
		if sides[i], failed, err = loadRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		if failed > 0 {
			fmt.Fprintf(out, "%s: %d failed runs left out\n", path, failed)
		}
	}
	var names []string
	for w := range sides[0] {
		if sides[1][w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tn\tB median\tB q1..q3\tn\tchange\tbound\tverdict")
	worse := false
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			a, b := sides[0][w][m.Name], sides[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "higher", m.Bound)
			worse = worse || v == verdictWorse
			sa, sb := summarize(a), summarize(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g..%.4g\t%d\t%.4g %s\t%.4g..%.4g\t%d\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, sa.Median, m.Unit, sa.Q1, sa.Q3, sa.N, sb.Median, m.Unit, sb.Q1, sb.Q3, sb.N,
				100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
