package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"boomsim"
)

// runExperimentCmd implements `boomctl experiment <spec.json>`: load a
// declarative experiment spec, run its simulation matrix (locally, or
// fanned out over a boomsimd pool with -endpoints), aggregate metrics
// across seeds into mean ± 95% CI, judge every success criterion, and emit
// the report. The process exits 0 on PASS or INCONCLUSIVE and 1 on a FAIL
// verdict — CI gates on the exit code — and 2 on operational errors.
func runExperimentCmd(args []string) {
	fs := flag.NewFlagSet("boomctl experiment", flag.ExitOnError)
	var (
		endpoints = fs.String("endpoints", "", "comma-separated boomsimd workers to fan the matrix out over (empty = run locally)")
		out       = fs.String("out", "", "also write the JSON report to this file")
		jsonOut   = fs.Bool("json", false, "print the JSON report to stdout instead of the human-readable one")
		jobs      = fs.Int("j", 0, "local worker pool size (0 = GOMAXPROCS; ignored with -endpoints)")
		determ    = fs.Bool("deterministic", false, "omit the generated_at timestamp so the report is a pure function of the spec")
		timeout   = fs.Duration("timeout", 5*time.Minute, "per-batch request timeout for distributed runs: one post, from send to the last byte of the answer")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: boomctl experiment [flags] <spec.json>

Runs one declarative experiment spec end to end and reports a
PASS/FAIL/INCONCLUSIVE verdict per success criterion. The paper's own
claims live under testdata/experiments/; EXPERIMENTS.md documents the spec
format. Exits 1 on a FAIL verdict.

`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	spec, err := boomsim.LoadExperimentSpec(fs.Arg(0))
	if err != nil {
		experimentFatalf("%v", err)
	}

	var opts []boomsim.MatrixOption
	if *endpoints != "" {
		cl, err := boomsim.NewCluster(
			boomsim.WithEndpoints(strings.Split(*endpoints, ",")...),
			boomsim.WithClusterTimeout(*timeout),
		)
		if err != nil {
			experimentFatalf("%v", err)
		}
		opts = append(opts, boomsim.WithCluster(cl))
	} else if *jobs > 0 {
		opts = append(opts, boomsim.WithParallelism(*jobs))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cells := len(spec.Matrix.Points()) * len(spec.Seeds) * len(spec.Workloads) *
		(1 + len(spec.Candidates) + len(spec.SchemeConfigs))
	where := "locally"
	if *endpoints != "" {
		where = fmt.Sprintf("across %d workers", len(strings.Split(*endpoints, ",")))
	}
	fmt.Fprintf(os.Stderr, "boomctl: experiment %q — %d cells %s\n", spec.Name, cells, where)

	start := time.Now()
	report, err := boomsim.RunExperiment(ctx, spec, opts...)
	if err != nil {
		experimentFatalf("%v", err)
	}
	if !*determ {
		report.Header.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	}
	fmt.Fprintf(os.Stderr, "boomctl: experiment completed in %v\n", time.Since(start).Round(time.Millisecond))

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			experimentFatalf("encoding report: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			experimentFatalf("writing report: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			experimentFatalf("encoding report: %v", err)
		}
	} else {
		report.Render(os.Stdout)
	}

	if report.Verdict == boomsim.VerdictFail {
		fmt.Fprintf(os.Stderr, "boomctl: experiment %q FAILED its success criteria\n", spec.Name)
		os.Exit(1)
	}
}

func experimentFatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "boomctl: "+format+"\n", args...)
	os.Exit(2)
}
