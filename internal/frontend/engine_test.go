package frontend

import (
	"testing"

	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/isa"
	"boomsim/internal/program"
)

func testImage(t testing.TB, kb int) *program.Image {
	t.Helper()
	g := program.DefaultGenParams()
	g.FootprintKB = kb
	g.Layers = 4
	img, err := program.Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

type engCfg struct {
	cfg     config.Core
	probes  bool
	perfect bool
	miss    MissHandler
	pf      Prefetcher
	depth   int
}

func buildEngine(t testing.TB, img *program.Image, ec engCfg) *Engine {
	t.Helper()
	return New(Options{
		Config:         ec.cfg,
		Image:          img,
		WalkSeed:       7,
		Hierarchy:      cache.NewHierarchy(ec.cfg, 0),
		Direction:      bpu.NewTAGE(ec.cfg.TAGEStorageKB),
		BTB:            btb.New(ec.cfg.BTBEntries, ec.cfg.BTBAssoc),
		MissHandler:    ec.miss,
		Prefetcher:     ec.pf,
		FDIPProbes:     ec.probes,
		PerfectL1:      ec.perfect,
		DecoupledDepth: ec.depth,
	})
}

const testInstrs = 300000

func TestBaselineRuns(t *testing.T) {
	img := testImage(t, 256)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), depth: 4})
	st := e.Run(testInstrs, 50_000_000)
	if st.RetiredInstrs < testInstrs {
		t.Fatalf("retired only %d instructions", st.RetiredInstrs)
	}
	if ipc := st.IPC(); ipc <= 0.05 || ipc > 3 {
		t.Fatalf("implausible IPC %v", ipc)
	}
	if st.TotalSquashes() == 0 {
		t.Fatal("a 2K BTB + real predictor must squash sometimes")
	}
	if st.FetchStallCycles == 0 {
		t.Fatal("a 256KB-footprint workload must stall the 32KB L1-I")
	}
}

func TestDeterminism(t *testing.T) {
	img := testImage(t, 128)
	a := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	b := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	sa := a.Run(100000, 20_000_000)
	sb := b.Run(100000, 20_000_000)
	if sa.Cycles != sb.Cycles || sa.TotalSquashes() != sb.TotalSquashes() ||
		sa.FetchStallCycles != sb.FetchStallCycles {
		t.Fatalf("nondeterministic: %+v vs %+v", sa, sb)
	}
}

func TestFDIPReducesStalls(t *testing.T) {
	img := testImage(t, 256)
	base := buildEngine(t, img, engCfg{cfg: config.Default(), depth: 4})
	fdip := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	sb := base.Run(testInstrs, 50_000_000)
	sf := fdip.Run(testInstrs, 50_000_000)
	if sf.FetchStallCycles >= sb.FetchStallCycles {
		t.Fatalf("FDIP stalls %d >= baseline %d", sf.FetchStallCycles, sb.FetchStallCycles)
	}
	cov := 1 - float64(sf.FetchStallCycles)/float64(sb.FetchStallCycles)
	if cov < 0.2 {
		t.Fatalf("FDIP stall coverage only %.2f", cov)
	}
	if sf.IPC() <= sb.IPC() {
		t.Fatalf("FDIP IPC %.3f <= baseline %.3f", sf.IPC(), sb.IPC())
	}
}

func TestPerfectL1HasNoFetchStalls(t *testing.T) {
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), perfect: true, depth: 4})
	st := e.Run(100000, 20_000_000)
	if st.FetchStallCycles != 0 {
		t.Fatalf("perfect L1 stalled %d cycles", st.FetchStallCycles)
	}
}

func TestPerfectL1Faster(t *testing.T) {
	img := testImage(t, 256)
	base := buildEngine(t, img, engCfg{cfg: config.Default(), depth: 4})
	perf := buildEngine(t, img, engCfg{cfg: config.Default(), perfect: true, depth: 4})
	sb := base.Run(testInstrs, 50_000_000)
	sp := perf.Run(testInstrs, 50_000_000)
	if sp.IPC() <= sb.IPC() {
		t.Fatalf("perfect L1 IPC %.3f <= baseline %.3f", sp.IPC(), sb.IPC())
	}
}

// perfectMiss synthesises correct entries straight from the image — the
// Figure 1 "Perfect BTB" model.
type perfectMiss struct{ img *program.Image }

func (p *perfectMiss) Handle(pc isa.Addr, now int64) (btb.Entry, int64, bool) {
	blk, ok := p.img.BlockContaining(pc)
	if !ok {
		return btb.Entry{}, now, false
	}
	e := btb.Entry{
		Start:  pc,
		NInstr: blk.NInstr - uint16((pc-blk.Addr)/isa.InstrBytes),
		Kind:   blk.Term.Kind,
	}
	switch blk.Term.Kind {
	case isa.CondDirect, isa.UncondDirect, isa.CallDirect:
		e.Target = blk.Term.Target
	}
	return e, now, true
}

func TestPerfectBTBEliminatesBTBSquashes(t *testing.T) {
	img := testImage(t, 256)
	e := buildEngine(t, img, engCfg{
		cfg:   config.Default(),
		miss:  &perfectMiss{img: img},
		depth: 4,
	})
	st := e.Run(testInstrs, 50_000_000)
	if st.Squashes[SquashBTBMiss] != 0 {
		t.Fatalf("perfect BTB still had %d BTB-miss squashes", st.Squashes[SquashBTBMiss])
	}
	if st.Squashes[SquashDirection] == 0 {
		t.Fatal("direction mispredicts should remain with a perfect BTB")
	}
}

func TestBTBMissSquashesHappenWithTinyBTB(t *testing.T) {
	img := testImage(t, 256)
	cfg := config.Default().WithBTB(64)
	e := buildEngine(t, img, engCfg{cfg: cfg, depth: 4})
	st := e.Run(testInstrs, 50_000_000)
	if st.Squashes[SquashBTBMiss] == 0 {
		t.Fatal("a 64-entry BTB must cause BTB-miss squashes")
	}
	if st.BTBMissRate() < 0.05 {
		t.Fatalf("BTB miss rate %.3f suspiciously low for 64 entries", st.BTBMissRate())
	}
}

func TestBiggerBTBFewerMissSquashes(t *testing.T) {
	img := testImage(t, 256)
	small := buildEngine(t, img, engCfg{cfg: config.Default().WithBTB(256), depth: 4})
	big := buildEngine(t, img, engCfg{cfg: config.Default().WithBTB(32768), depth: 4})
	ss := small.Run(testInstrs, 50_000_000)
	sb := big.Run(testInstrs, 50_000_000)
	if sb.SquashesPerKI(SquashBTBMiss) >= ss.SquashesPerKI(SquashBTBMiss) {
		t.Fatalf("32K BTB squash rate %.2f >= 256-entry %.2f",
			sb.SquashesPerKI(SquashBTBMiss), ss.SquashesPerKI(SquashBTBMiss))
	}
}

func TestResetStatsKeepsState(t *testing.T) {
	img := testImage(t, 128)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	e.Run(100000, 20_000_000)
	warm := e.Stats()
	e.ResetStats()
	st := e.Stats()
	if st.RetiredInstrs != 0 || st.Cycles != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	st = e.Run(100000, 20_000_000)
	// The warmed run should not be drastically slower than the cold run.
	if st.IPC() < warm.IPC()*0.8 {
		t.Fatalf("post-warmup IPC %.3f collapsed vs %.3f", st.IPC(), warm.IPC())
	}
}

func TestStallClassAttribution(t *testing.T) {
	img := testImage(t, 256)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), depth: 4})
	st := e.Run(testInstrs, 50_000_000)
	var sum uint64
	for _, v := range st.StallByClass {
		sum += v
	}
	if sum != st.FetchStallCycles {
		t.Fatalf("class attribution %d != total stalls %d", sum, st.FetchStallCycles)
	}
	if st.StallByClass[isa.Sequential] == 0 {
		t.Fatal("sequential misses should dominate server workloads")
	}
}

func TestLatencySensitivity(t *testing.T) {
	img := testImage(t, 256)
	fast := buildEngine(t, img, engCfg{cfg: config.Default().WithLLCLatency(5), depth: 4})
	slow := buildEngine(t, img, engCfg{cfg: config.Default().WithLLCLatency(70), depth: 4})
	sf := fast.Run(testInstrs, 80_000_000)
	ss := slow.Run(testInstrs, 80_000_000)
	if sf.IPC() <= ss.IPC() {
		t.Fatalf("lower LLC latency must raise IPC: %.3f vs %.3f", sf.IPC(), ss.IPC())
	}
}

func TestWrongPathActivityExists(t *testing.T) {
	img := testImage(t, 256)
	e := buildEngine(t, img, engCfg{cfg: config.Default(), probes: true})
	st := e.Run(testInstrs, 50_000_000)
	if st.WrongPathEntries == 0 {
		t.Fatal("decoupled front end must fetch down wrong paths")
	}
}

func TestSquashClassString(t *testing.T) {
	for c := SquashNone; c < numSquashClasses; c++ {
		if c.String() == "" {
			t.Fatal("empty squash class name")
		}
	}
}

func BenchmarkEngineFDIP(b *testing.B) {
	img := testImage(b, 512)
	e := buildEngine(b, img, engCfg{cfg: config.Default(), probes: true})
	b.ResetTimer()
	e.Run(uint64(b.N), 0)
}
