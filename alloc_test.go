package boomsim_test

import (
	"testing"

	"boomsim/internal/config"
	"boomsim/internal/scheme"
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
}
