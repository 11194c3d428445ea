package boomsim_test

import (
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
	// (Apache at 768 KB, 50K warm, 100K measured): a scratch buffer that
	// first outgrows its warm-window size in the measured window allocates
	// once there, and AllocsPerRun's warm-up call would absorb that, so
	// count the heap allocations of the one Run directly. Schemes whose
	// occupancy-sized state is still filling after 50K instructions grow it
	// in this window by design and are absent: the temporal history of PIF,
	// SHIFT and Confluence, and the second BTB level of 2-Level BTB and
	// PhantomBTB. So is DIP, whose prefetch bursts keep more fills in flight
	// than the hierarchy's MSHR index holds before its first growth.
	bench := apache
	bench.Gen.FootprintKB = 768
	t.Run("FirstRunAfterWarm", func(t *testing.T) {
		for _, s := range []scheme.Scheme{
			scheme.Base(), scheme.NextLine(), scheme.FDIP(), scheme.Boomerang(),
			scheme.BoomerangUnthrottled(), scheme.PerfectCF(),
		} {
			t.Run(s.Name, func(t *testing.T) {
				spec := sim.DefaultSpec(s, bench)
				spec.WarmInstrs = 50_000
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
					t.Fatalf("first measure run after a 50K warm allocated %d times (%d B); want 0",
						n, after.TotalAlloc-before.TotalAlloc)
				}
			})
		}
	})
}
