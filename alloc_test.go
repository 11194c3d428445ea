package boomsim_test

import (
	"fmt"
	"runtime"
	"testing"

	"boomsim/internal/config"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/workload"
)

// TestMeasureLoopAllocationFree enforces the frontend package's
// zero-allocation contract: once warmed, the measured simulation loop —
// BPU, FTQ, fetch engine, backend window, cache hierarchy, Boomerang miss
// handling and the oracle walker — must not touch the heap at all. This is
// the property behind the simulator's throughput (the per-instruction
// allocation it replaces was ~40% of wall-clock in allocator and GC time).
func TestMeasureLoopAllocationFree(t *testing.T) {
	apache, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("Apache profile missing")
	}
	apache.Gen.FootprintKB = 512
	img, err := apache.Image(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []scheme.Scheme{scheme.Boomerang(), scheme.FDIP(), scheme.Confluence()} {
		t.Run(s.Name, func(t *testing.T) {
			inst := s.Build(scheme.Env{Cfg: config.Default(), Img: img, WalkSeed: 1})
			// Warm caches, predictors and every scratch structure to steady
			// state before measuring. The flight recorder is detached here
			// (its default), so this also proves the recorder-off hot path —
			// one nil compare per cycle — costs zero allocations.
			inst.Engine.Run(150_000, 0)
			allocs := testing.AllocsPerRun(5, func() {
				inst.Engine.ResetStats()
				inst.Engine.Run(20_000, 0)
			})
			if allocs != 0 {
				t.Fatalf("steady-state measure loop allocated %v times per 20K instructions; want 0", allocs)
			}

			// Recorder-on variant: the recorder preallocates its epoch buffer
			// at attach, so steady-state recording — snapshotting windowed
			// counters every 1K cycles — must also never touch the heap.
			// Attach outside the measured closure (the one-time buffer
			// allocation is the contract's explicit exception).
			inst.Engine.StartFlightRecorder(1_000)
			allocs = testing.AllocsPerRun(5, func() {
				inst.Engine.Run(20_000, 0)
			})
			inst.Engine.StopFlightRecorder()
			if allocs != 0 {
				t.Fatalf("recording measure loop allocated %v times per 20K instructions; want 0", allocs)
			}
		})
	}

	// The first Run after a warm, as BenchmarkSimulatorThroughput times it
	// (Apache at 768 KB, 50K warm, 100K measured), and after a longer warm:
	// a scratch buffer that first outgrows its warm-window size in the
	// measured window allocates once there, and AllocsPerRun's warm-up call
	// would absorb that, so count the heap allocations of the one Run
	// directly. Schemes whose occupancy-sized state is still filling after
	// the warm grow it in this window by design and are absent: the
	// temporal history of PIF, SHIFT and Confluence, and the second BTB
	// level of 2-Level BTB and PhantomBTB.
	bench := apache
	bench.Gen.FootprintKB = 768
	t.Run("FirstRunAfterWarm", func(t *testing.T) {
		for _, c := range []struct {
			s    scheme.Scheme
			warm uint64
		}{
			{scheme.Base(), 50_000}, {scheme.NextLine(), 50_000}, {scheme.DIP(), 50_000},
			{scheme.FDIP(), 50_000}, {scheme.Boomerang(), 50_000}, {scheme.Boomerang(), 200_000},
			{scheme.BoomerangUnthrottled(), 50_000}, {scheme.PerfectCF(), 50_000},
		} {
			name := c.s.Name
			if c.warm != 50_000 {
				name = fmt.Sprintf("%s after %dK warm", name, c.warm/1000)
			}
			t.Run(name, func(t *testing.T) {
				spec := sim.DefaultSpec(c.s, bench)
				spec.WarmInstrs = c.warm
				inst, err := sim.WarmInstance(spec)
				if err != nil {
					t.Fatal(err)
				}
				// Finish a collection the warm started here, so its
				// cleanups do not allocate inside the measured window.
				runtime.GC()
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				inst.Engine.Run(100_000, 0)
				runtime.ReadMemStats(&after)
				if n := after.Mallocs - before.Mallocs; n != 0 {
					t.Fatalf("first measure run after a %dK warm allocated %d times (%d B); want 0",
						c.warm/1000, n, after.TotalAlloc-before.TotalAlloc)
				}
			})
		}
	})
}
