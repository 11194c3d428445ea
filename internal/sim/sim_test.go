package sim

import (
	"testing"

	"boomsim/internal/config"
	"boomsim/internal/frontend"
	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/stats"
	"boomsim/internal/workload"
)

// fastProfile shrinks a workload for test runtime while keeping its shape.
func fastProfile(name string) workload.Profile {
	p, ok := workload.ByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	p.Gen.FootprintKB = 384
	p.Name = name + "-test"
	return p
}

// speedup and coverage are the paper's two headline ratios of a run
// against its baseline on the same workload.
func speedup(base, r Result) float64 { return r.IPC / base.IPC }

func coverage(base, r Result) float64 {
	return stats.Coverage(float64(base.Stats.FetchStallCycles), float64(base.Stats.RetiredInstrs),
		float64(r.Stats.FetchStallCycles), float64(r.Stats.RetiredInstrs))
}

func fastSpec(s scheme.Scheme, w workload.Profile) Spec {
	spec := DefaultSpec(s, w)
	spec.WarmInstrs = 100_000
	spec.MeasureInstrs = 400_000
	spec.MaxCycles = 50_000_000
	return spec
}

func TestRunAllSchemes(t *testing.T) {
	w := fastProfile("Apache")
	for _, s := range scheme.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r := MustRun(fastSpec(s, w))
			if r.Stats.RetiredInstrs < 400_000 {
				t.Fatalf("%s retired only %d", s.Name, r.Stats.RetiredInstrs)
			}
			if r.IPC <= 0 || r.IPC > 3 {
				t.Fatalf("%s IPC %v implausible", s.Name, r.IPC)
			}
		})
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The headline sanity property: every prefetching scheme beats Base,
	// and the full control-flow-delivery schemes (Boomerang) beat plain
	// FDIP on a BTB-pressured workload.
	w := fastProfile("DB2")
	base := MustRun(fastSpec(scheme.Base(), w))
	fdip := MustRun(fastSpec(scheme.FDIP(), w))
	boom := MustRun(fastSpec(scheme.Boomerang(), w))

	if s := speedup(base, fdip); s <= 1.0 {
		t.Fatalf("FDIP speedup %v <= 1", s)
	}
	if s := speedup(base, boom); s <= 1.0 {
		t.Fatalf("Boomerang speedup %v <= 1", s)
	}
	if boom.IPC <= fdip.IPC {
		t.Fatalf("Boomerang (%.3f) must beat FDIP (%.3f) on a BTB-heavy workload",
			boom.IPC, fdip.IPC)
	}
}

func TestBoomerangKillsBTBMissSquashes(t *testing.T) {
	w := fastProfile("DB2")
	fdip := MustRun(fastSpec(scheme.FDIP(), w))
	boom := MustRun(fastSpec(scheme.Boomerang(), w))
	fRate := fdip.Stats.SquashesPerKI(frontend.SquashBTBMiss)
	bRate := boom.Stats.SquashesPerKI(frontend.SquashBTBMiss)
	if fRate == 0 {
		t.Fatal("FDIP should suffer BTB-miss squashes on DB2")
	}
	reduction := 1 - bRate/fRate
	if reduction < 0.85 {
		t.Fatalf("Boomerang eliminated only %.0f%% of BTB-miss squashes (paper: >85%%)",
			reduction*100)
	}
}

func TestConfluenceReducesBTBMissSquashes(t *testing.T) {
	w := fastProfile("Apache")
	shift := MustRun(fastSpec(scheme.SHIFT(), w))
	conf := MustRun(fastSpec(scheme.Confluence(), w))
	sRate := shift.Stats.SquashesPerKI(frontend.SquashBTBMiss)
	cRate := conf.Stats.SquashesPerKI(frontend.SquashBTBMiss)
	if cRate >= sRate {
		t.Fatalf("Confluence BTB-miss squash rate %.2f >= SHIFT %.2f", cRate, sRate)
	}
}

func TestCoverageMetric(t *testing.T) {
	w := fastProfile("Zeus")
	base := MustRun(fastSpec(scheme.Base(), w))
	fdip := MustRun(fastSpec(scheme.FDIP(), w))
	cov := coverage(base, fdip)
	if cov < 0.2 || cov > 1 {
		t.Fatalf("FDIP coverage %v out of plausible range", cov)
	}
	if coverage(base, base) != 0 {
		t.Fatal("self-coverage must be 0")
	}
}

func TestPerfectSchemesBound(t *testing.T) {
	w := fastProfile("Nutch")
	base := MustRun(fastSpec(scheme.Base(), w))
	pl1 := MustRun(fastSpec(scheme.PerfectL1I(), w))
	pcf := MustRun(fastSpec(scheme.PerfectCF(), w))
	if speedup(base, pl1) <= 1.0 {
		t.Fatal("perfect L1-I must speed up the baseline")
	}
	if pcf.IPC <= pl1.IPC {
		t.Fatal("perfect BTB must add speedup over perfect L1-I")
	}
	if pcf.Stats.Squashes[frontend.SquashBTBMiss] != 0 {
		t.Fatal("perfect CF must have zero BTB-miss squashes")
	}
}

func TestRunDeterminism(t *testing.T) {
	w := fastProfile("Zeus")
	a := MustRun(fastSpec(scheme.Boomerang(), w))
	b := MustRun(fastSpec(scheme.Boomerang(), w))
	if a.IPC != b.IPC || a.Stats.TotalSquashes() != b.Stats.TotalSquashes() {
		t.Fatal("identical specs produced different results")
	}
}

func TestPredictorOverride(t *testing.T) {
	w := fastProfile("Apache")
	spec := fastSpec(scheme.FDIP(), w)
	spec.Predictor = "never-taken"
	r := MustRun(spec)
	if r.Stats.RetiredInstrs < 400_000 {
		t.Fatal("never-taken FDIP did not complete")
	}
	tage := MustRun(fastSpec(scheme.FDIP(), w))
	if r.Stats.TotalSquashes() <= tage.Stats.TotalSquashes() {
		t.Fatal("never-taken must squash more than TAGE")
	}
}

func TestImageCacheReuse(t *testing.T) {
	w := fastProfile("Zeus")
	img1, err := imageFor(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := imageFor(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if img1 != img2 {
		t.Fatal("image cache returned distinct images for the same key")
	}
	var img3 *program.Image
	if img3, err = imageFor(w, 4); err != nil {
		t.Fatal(err)
	}
	if img3 == img1 {
		t.Fatal("different seeds must give different images")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	w := fastProfile("Zeus")
	spec := fastSpec(scheme.Base(), w)
	spec.Cfg = config.Default()
	spec.Cfg.FetchWidth = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBoomerangStorageTiny(t *testing.T) {
	// Section VI-D: Boomerang's overhead is 540 bytes; Confluence's SHIFT
	// machinery alone is two orders of magnitude bigger in aggregate.
	b := scheme.Boomerang()
	if b.StorageOverheadKB > 1 {
		t.Fatalf("Boomerang overhead %.2f KB, want < 1 KB", b.StorageOverheadKB)
	}
	p := scheme.PIF()
	if p.StorageOverheadKB < 100 {
		t.Fatalf("PIF overhead %.0f KB implausibly small", p.StorageOverheadKB)
	}
}
