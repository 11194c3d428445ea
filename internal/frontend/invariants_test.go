package frontend

import (
	"testing"
	"testing/quick"

	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/isa"
	"boomsim/internal/workload"
)

// These tests pin down cross-cutting engine invariants that the behavioural
// tests in engine_test.go do not directly observe.

func TestInstructionConservation(t *testing.T) {
	// Retired instructions must exactly track the oracle: run the engine and
	// an independent walker for the same block count and compare totals.
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	st := e.Run(200_000, 40_000_000)
	if st.RetiredBlocks == 0 {
		t.Fatal("no blocks retired")
	}
	// Instructions per block must average what the oracle produces: rerun
	// the oracle for the same number of blocks.
	w := workload.NewWalker(img, 7)
	var instrs uint64
	for i := uint64(0); i < st.RetiredBlocks; i++ {
		instrs += uint64(w.Next().Block.NInstr)
	}
	next := uint64(w.Next().Block.NInstr)
	// The measurement window can end mid-block: fully-retired blocks bound
	// the retired instruction count from below, plus at most one partial.
	if st.RetiredInstrs < instrs || st.RetiredInstrs >= instrs+next {
		t.Fatalf("engine retired %d instructions, oracle says [%d, %d) for %d(+1) blocks",
			st.RetiredInstrs, instrs, instrs+next, st.RetiredBlocks)
	}
}

func TestSquashesMatchOracleDivergence(t *testing.T) {
	// With a perfect L1 and perfect BTB there must be no BTB-miss squashes,
	// and direction squashes must equal the TAGE-vs-oracle disagreement on
	// the correct path — we bound-check it against plausible rates.
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{
		cfg:     config.Default(),
		perfect: true,
		miss:    &perfectMiss{img: img},
		depth:   4,
	})
	st := e.Run(200_000, 40_000_000)
	if st.Squashes[SquashBTBMiss] != 0 {
		t.Fatal("BTB-miss squashes with a perfect BTB")
	}
	dirKI := st.SquashesPerKI(SquashDirection)
	if dirKI < 1 || dirKI > 40 {
		t.Fatalf("direction squash rate %.2f/KI implausible", dirKI)
	}
}

func TestStallLevelAttributionSums(t *testing.T) {
	img := testImage(t, 256)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), depth: 4})
	st := e.Run(200_000, 40_000_000)
	var sum uint64
	for _, v := range st.StallByLevel {
		sum += v
	}
	if sum != st.FetchStallCycles {
		t.Fatalf("level attribution %d != total %d", sum, st.FetchStallCycles)
	}
	if st.StallByLevel[cache.HitL1] != 0 {
		t.Fatal("L1 hits cannot stall")
	}
}

func TestFTQNeverExceedsDepth(t *testing.T) {
	img := testImage(t, 128)
	for _, depth := range []int{1, 4, 32} {
		e := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true, depth: depth})
		for i := 0; i < 100_000; i++ {
			e.Tick()
			if e.ftq.len() > depth {
				t.Fatalf("FTQ grew to %d entries (depth %d)", e.ftq.len(), depth)
			}
		}
	}
}

func TestInflightRingBounded(t *testing.T) {
	// The in-flight entry ring must not leak: it is bounded by the ROB plus
	// the resolution window.
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	for i := 0; i < 300_000; i++ {
		e.Tick()
		if e.inflight.len() > e.cfg.ROBSize {
			t.Fatalf("inflight ring %d exceeds ROB %d at cycle %d",
				e.inflight.len(), e.cfg.ROBSize, i)
		}
	}
}

func TestROBLimitRespected(t *testing.T) {
	img := testImage(t, 128)
	cfg := config.Default()
	cfg.ROBSize = 16
	e := buildEngine(t, img, engCfg{cfg: cfg, perfect: true, depth: 8})
	st := e.Run(50_000, 20_000_000)
	if st.ROBStallCycles == 0 {
		t.Fatal("a 16-entry window must throttle a perfect front end")
	}
}

func TestRedirectResetsToOraclePath(t *testing.T) {
	// After any number of squashes the engine must remain synchronised with
	// the oracle (the verify() panic would fire otherwise); run a
	// mispredict-heavy configuration to exercise recovery hard.
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{cfg: config.Default().WithBTB(64), depth: 4})
	st := e.Run(150_000, 40_000_000)
	if st.TotalSquashes() < 100 {
		t.Fatal("expected a squash-heavy run")
	}
	if st.RetiredInstrs < 150_000 {
		t.Fatal("engine lost sync with the oracle")
	}
}

func TestNeverTakenEngineStillCorrect(t *testing.T) {
	// The never-taken predictor squashes on every taken conditional; the
	// engine must still retire the exact oracle stream.
	img := testImage(t, 128)
	cfg := config.Default()
	e := New(Options{
		Config:     cfg,
		Image:      img,
		WalkSeed:   7,
		Hierarchy:  cache.NewHierarchy(cfg, 0),
		Direction:  bpu.NewNeverTaken(),
		BTB:        btb.New(cfg.BTBEntries, cfg.BTBAssoc),
		FDIPProbes: true,
	})
	st := e.Run(100_000, 40_000_000)
	if st.RetiredInstrs < 100_000 {
		t.Fatal("never-taken engine failed to make progress")
	}
	if st.Squashes[SquashDirection] == 0 {
		t.Fatal("never-taken must squash on taken branches")
	}
}

func TestEntryLines(t *testing.T) {
	if err := quick.Check(func(rawStart uint32, n uint8) bool {
		start := isa.Addr(rawStart) &^ 3
		ni := uint16(n%32) + 1
		e := Entry{Start: start, NInstr: ni}
		first, last := e.Lines()
		return first == cache.LineOf(start) &&
			last == cache.LineOf(start+isa.Addr(ni-1)*isa.InstrBytes) &&
			first <= last
	}, nil); err != nil {
		t.Fatal(err)
	}
}
