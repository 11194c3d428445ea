// Go benchmarks of simulator cost, not reproduction: steady-state
// throughput (recorder off and on), the stall-heavy cycle-skip regime and
// the 18x7 sweep wall-clock. They are quick probes for a profile or a
// benchstat comparison; the performance record is bench/ (bench/README.md),
// and the paper's figures are experiment specs under testdata/experiments/,
// run with `boomctl experiment` (EXPERIMENTS.md).
package boomsim_test

import (
	"context"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/workload"
)

// BenchmarkSimulatorThroughput measures steady-state simulation speed:
// simulated instructions per wall-clock second for the Boomerang
// configuration. Setup (image generation, scheme construction, LLC preload)
// and the warm-up window run before the timer starts — their cost is
// reported separately as setup_ms — so the timed region is only the
// measured loop and the MIPS headline means the same thing at every
// -benchtime. Run it with a large -benchtime (e.g. -benchtime=2000000x, one
// op per simulated instruction) so the loop dominates timer granularity;
// -benchmem pins its zero-allocation contract (0 allocs/op).
func BenchmarkSimulatorThroughput(b *testing.B) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Boomerang(), apache)
	spec.WarmInstrs = 50_000

	setupStart := time.Now()
	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}
	setup := time.Since(setupStart)

	// One benchmark op = one simulated instruction, floored so a 1x probe
	// run still simulates enough to produce a meaningful rate.
	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	b.ResetTimer()
	inst.Engine.Run(instrs, 0)
	b.StopTimer()
	b.ReportMetric(float64(setup.Milliseconds()), "setup_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
	}
}

// BenchmarkSimulatorThroughputRecorded is the flight recorder's overhead
// control: the same measured loop with the recorder attached at a 10K-cycle
// epoch. BenchmarkSimulatorThroughput above stays recorder-off, so any
// recorder cost shows up here as a MIPS delta against it.
func BenchmarkSimulatorThroughputRecorded(b *testing.B) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Boomerang(), apache)
	spec.WarmInstrs = 50_000

	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}

	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	inst.Engine.StartFlightRecorder(10_000)
	b.ResetTimer()
	inst.Engine.Run(instrs, 0)
	b.StopTimer()
	epochs, err := inst.Engine.StopFlightRecorder()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(epochs)), "epochs")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs/1e6, "MIPS")
	}
}

// BenchmarkStallHeavy measures event-horizon cycle skipping on the regime it
// exists for: the no-prefetch baseline against a 20× LLC round trip (the high-latency
// end of the Fig 11 sweep regime), where the front end spends the overwhelming majority
// of cycles stalled on fills and a per-cycle loop burns a full Tick per
// stall. One op = one simulated instruction, warmed before the timer like
// BenchmarkSimulatorThroughput. Beyond wall-clock it reports
// stall_ns_per_instr (this regime's headline cost) and skipped_cycle_pct
// (the fraction of simulated cycles fast-forwarded rather than ticked).
// BenchmarkStallHeavyNoSkip is the per-cycle control — byte-identical
// results, no skipping — so the ratio of the two stall_ns_per_instr values
// is the skip's speedup.
func BenchmarkStallHeavy(b *testing.B)       { benchStallHeavy(b, true) }
func BenchmarkStallHeavyNoSkip(b *testing.B) { benchStallHeavy(b, false) }

func benchStallHeavy(b *testing.B, skip bool) {
	apache, _ := workload.ByName("Apache")
	apache.Gen.FootprintKB = 768
	spec := sim.DefaultSpec(scheme.Base(), apache)
	spec.Cfg = spec.Cfg.WithLLCLatency(600)
	spec.WarmInstrs = 50_000
	spec.DisableCycleSkip = !skip

	setupStart := time.Now()
	inst, err := sim.WarmInstance(spec)
	if err != nil {
		b.Fatal(err)
	}
	setup := time.Since(setupStart)

	instrs := uint64(b.N)
	if instrs < 100_000 {
		instrs = 100_000
	}
	b.ResetTimer()
	st := inst.Engine.Run(instrs, 0)
	b.StopTimer()
	b.ReportMetric(float64(setup.Milliseconds()), "setup_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(secs*1e9/float64(instrs), "stall_ns_per_instr")
	}
	if st.Cycles > 0 {
		b.ReportMetric(100*float64(inst.Engine.SkippedCycles())/float64(st.Cycles), "skipped_cycle_pct")
	}
}

// The full sweep grid: every built-in scheme crossed with every built-in
// workload. The names are pinned here (rather than read from Schemes() /
// Workloads()) so the grid stays exactly 18x7 even when tests in the same
// binary register extra schemes before the benchmarks run.
var (
	benchMatrixSchemes = []string{
		"Base", "Next Line", "DIP", "FDIP", "SHIFT", "Confluence", "Boomerang",
		"PIF", "Perfect L1-I", "Perfect L1-I + BTB", "2-Level BTB", "PhantomBTB",
		"Boomerang-Unthrottled",
		"Boomerang-N0", "Boomerang-N1", "Boomerang-N2", "Boomerang-N4", "Boomerang-N8",
	}
	benchMatrixWorkloads = []string{
		"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2", "SPEC-like",
	}
)

// benchMatrixParallelism fixes the matrix worker count so matrix_ms is
// comparable across runs regardless of the host's GOMAXPROCS.
const benchMatrixParallelism = 8

// matrix18x7Sims builds the full 126-cell grid through the public API at
// bench scale (reduced footprint and window, default seeds).
func matrix18x7Sims(b *testing.B, reuse bool) []*boomsim.Simulation {
	sims := make([]*boomsim.Simulation, 0, len(benchMatrixSchemes)*len(benchMatrixWorkloads))
	for _, w := range benchMatrixWorkloads {
		for _, s := range benchMatrixSchemes {
			sm, err := boomsim.New(
				boomsim.WithScheme(s),
				boomsim.WithWorkload(w),
				boomsim.WithFootprintKB(512),
				boomsim.WithWindow(150_000, 200_000),
				boomsim.WithWarmReuse(reuse),
			)
			if err != nil {
				b.Fatal(err)
			}
			sims = append(sims, sm)
		}
	}
	return sims
}

// runMatrix18x7 times RunMatrix over the full grid and reports the mean
// wall-clock per matrix as matrix_ms. One untimed priming pass runs first so
// the timed iterations measure the steady state a sweep loop actually sees:
// with warm reuse on, every cell forks its arena snapshot instead of
// re-simulating the warm window; with reuse off the priming pass changes
// nothing, keeping the two benchmarks structurally identical.
func runMatrix18x7(b *testing.B, reuse bool) {
	sims := matrix18x7Sims(b, reuse)
	ctx := context.Background()
	if _, err := boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(benchMatrixParallelism)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(benchMatrixParallelism)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "matrix_ms")
	}
}

// BenchmarkMatrix18x7 measures the full 18-scheme x 7-workload sweep with
// warm-state reuse on (the default), reported as matrix_ms.
func BenchmarkMatrix18x7(b *testing.B) { runMatrix18x7(b, true) }

// BenchmarkMatrix18x7NoReuse is the control: the same grid with warm reuse
// disabled, so every cell re-simulates its warm window. The matrix_ms gap
// against BenchmarkMatrix18x7 is the measured win of the snapshot plane.
func BenchmarkMatrix18x7NoReuse(b *testing.B) { runMatrix18x7(b, false) }
