package boomsim_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"boomsim"
)

// The figure specs under testdata/experiments state the paper's claims at the
// quick method, and the CI experiment job judges them. The tests below keep
// each figure's qualitative shape under `go test`: they load one spec, narrow
// it to one or two workloads, seed 1, a 256 KB footprint and a 50K-warm /
// 200K-measured window, run it through RunExperiment, and check the ordering
// the figure shows.

// The ported specs share the legacy quick method so their numbers compare
// across files: Apache, DB2 and Streaming, three or more seeds, 100K warm +
// 400K measured instructions and 384 KB footprints. Motivation adds
// SPEC-like and keeps full footprints, since its claim is about whole
// programs.
func TestExperimentSpecsShareQuickMethod(t *testing.T) {
	quick := boomsim.ExperimentWindow{Warm: 100_000, Measure: 400_000}
	for _, path := range specPaths(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := boomsim.LoadExperimentSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			workloads := []string{"Apache", "DB2", "Streaming"}
			footprints := []int{384}
			if spec.Name == "motivation" {
				workloads = append([]string{"SPEC-like"}, workloads...)
				footprints = nil
			}
			if !slices.Equal(spec.Workloads, workloads) {
				t.Errorf("workloads %v, want %v", spec.Workloads, workloads)
			}
			if len(spec.Seeds) < 3 {
				t.Errorf("%d seeds, want at least 3", len(spec.Seeds))
			}
			if spec.Window == nil || *spec.Window != quick {
				t.Errorf("window %+v, want %+v", spec.Window, quick)
			}
			var got []int
			if spec.Matrix != nil {
				got = spec.Matrix.FootprintKB
			}
			if !slices.Equal(got, footprints) {
				t.Errorf("matrix.footprint_kb %v, want %v", got, footprints)
			}
		})
	}
}

// smallFigure loads a checked-in spec and narrows it to the given workloads,
// seed 1, a 50K-warm / 200K-measured window and, where the spec sweeps the
// footprint, 256 KB. Criteria restricted to a workload left out are dropped;
// the tests judge the cells, not the verdicts.
func smallFigure(t *testing.T, file string, workloads ...string) boomsim.ExperimentSpec {
	t.Helper()
	spec, err := boomsim.LoadExperimentSpec(filepath.Join(experimentsDir, file))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workloads = workloads
	spec.Seeds = []uint64{1}
	spec.Window = &boomsim.ExperimentWindow{Warm: 50_000, Measure: 200_000}
	if spec.Matrix != nil {
		m := *spec.Matrix
		if len(m.FootprintKB) > 0 {
			m.FootprintKB = []int{256}
		}
		spec.Matrix = &m
	}
	spec.Criteria = slices.DeleteFunc(spec.Criteria, func(c boomsim.ExperimentCriterion) bool {
		return c.Workload != "" && !slices.Contains(workloads, c.Workload)
	})
	return spec
}

type figureCell struct {
	scheme, workload string
	llc              int // matrix LLC latency; 0 where the spec does not sweep it
}

// figure holds one experiment's per-cell metric means.
type figure map[figureCell]map[string]float64

func runFigure(t *testing.T, spec boomsim.ExperimentSpec) figure {
	t.Helper()
	report, err := boomsim.RunExperiment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	f := figure{}
	for _, agg := range report.Aggregates {
		key := figureCell{scheme: agg.Scheme, workload: agg.Workload}
		if agg.Params != nil {
			key.llc = agg.Params.LLCLatency
		}
		means := map[string]float64{}
		for name, s := range agg.Metrics {
			means[name] = s.Mean
		}
		f[key] = means
	}
	return f
}

func (f figure) get(t *testing.T, scheme, workload string, llc int, metric string) float64 {
	t.Helper()
	v, ok := f[figureCell{scheme, workload, llc}][metric]
	if !ok {
		t.Fatalf("no %s for %s on %s (llc %d)", metric, scheme, workload, llc)
	}
	return v
}

func TestFig1(t *testing.T) {
	f := runFigure(t, smallFigure(t, "fig1-opportunity.json", "Apache"))
	l1 := f.get(t, "Perfect L1-I", "Apache", 0, "speedup")
	both := f.get(t, "Perfect L1-I + BTB", "Apache", 0, "speedup")
	if l1 <= 1.0 {
		t.Fatalf("perfect L1-I speedup %v <= 1", l1)
	}
	if both <= l1 {
		t.Fatalf("perfect BTB adds nothing: %v <= %v", both, l1)
	}
}

func TestFig2(t *testing.T) {
	spec := smallFigure(t, "fig2-predictors.json", "Apache")
	spec.Matrix.LLCLatency = []int{10, 50}
	f := runFigure(t, spec)
	for _, llc := range spec.Matrix.LLCLatency {
		tage := f.get(t, "FDIP", "Apache", llc, "coverage")
		if tage < 0.2 || tage > 1 {
			t.Fatalf("LLC=%d FDIP TAGE coverage %v implausible", llc, tage)
		}
		nt := f.get(t, "FDIP Never-Taken", "Apache", llc, "coverage")
		if nt < 0.1 {
			t.Fatalf("LLC=%d never-taken coverage %v too low — paper says it retains much of the benefit", llc, nt)
		}
	}
}

func TestFig3(t *testing.T) {
	spec := smallFigure(t, "fig3-miss-breakdown.json", "Apache")
	spec.Metrics = append(spec.Metrics, "stall_cycles_unconditional")
	f := runFigure(t, spec)
	seq := f.get(t, "Base", "Apache", 0, "stall_share_sequential")
	total := seq + f.get(t, "Base", "Apache", 0, "stall_share_conditional") +
		f.get(t, "Base", "Apache", 0, "stall_share_unconditional")
	if total < 0.99 || total > 1.01 {
		t.Fatalf("Base stall classes should sum to ~100%% of its stall cycles, got %v", total)
	}
	if seq < 0.3 {
		t.Fatalf("sequential share %v too small (paper: 40-54%%)", seq)
	}
	if c := f.get(t, "FDIP 32K BTB", "Apache", 0, "coverage"); c <= 0 {
		t.Fatalf("FDIP-32K must reduce stall cycles vs Base (coverage %v)", c)
	}
	// The 2K->32K BTB improvement should be visible in unconditional misses.
	if f.get(t, "FDIP 32K BTB", "Apache", 0, "stall_cycles_unconditional") >
		f.get(t, "FDIP", "Apache", 0, "stall_cycles_unconditional") {
		t.Fatal("bigger BTB should not increase unconditional misses")
	}
}

func TestFig5(t *testing.T) {
	spec := smallFigure(t, "fig5-btb-size.json", "Apache")
	spec.Matrix.LLCLatency = []int{30}
	f := runFigure(t, spec)
	small := f.get(t, "FDIP", "Apache", 30, "coverage")
	big := f.get(t, "FDIP 32K BTB", "Apache", 30, "coverage")
	if big < small {
		t.Fatalf("bigger BTB lowered coverage: %v < %v", big, small)
	}
}

// TestFigures789 reads Figs 7, 8 and 9 from one run of the Fig 7 spec, which
// runs the same schemes as Figs 8 and 9.
func TestFigures789(t *testing.T) {
	f := runFigure(t, smallFigure(t, "fig7-squashes.json", "DB2"))
	// Fig 7: Boomerang eliminates most BTB-miss squashes vs FDIP.
	fdipBTB := f.get(t, "FDIP", "DB2", 0, "btb_miss_squashes_per_ki")
	boomBTB := f.get(t, "Boomerang", "DB2", 0, "btb_miss_squashes_per_ki")
	if fdipBTB == 0 {
		t.Fatal("FDIP shows no BTB-miss squashes on DB2")
	}
	if boomBTB > fdipBTB*0.15 {
		t.Fatalf("Boomerang left %.1f%% of BTB-miss squashes", 100*boomBTB/fdipBTB)
	}
	// Fig 8: coverage in range.
	for _, s := range []string{"FDIP", "Boomerang", "Confluence"} {
		if c := f.get(t, s, "DB2", 0, "coverage"); c < 0.1 || c > 1 {
			t.Fatalf("%s coverage %v implausible", s, c)
		}
	}
	// Fig 9: complete CF delivery beats L1-I-only prefetching.
	boom := f.get(t, "Boomerang", "DB2", 0, "speedup")
	if boom <= f.get(t, "FDIP", "DB2", 0, "speedup") {
		t.Fatal("Boomerang must outperform FDIP on DB2")
	}
	if boom <= 1 {
		t.Fatal("Boomerang speedup must exceed 1")
	}
}

func TestFig10(t *testing.T) {
	f := runFigure(t, smallFigure(t, "fig10-throttle.json", "DB2"))
	none := f.get(t, "Boomerang-N0", "DB2", 0, "speedup")
	two := f.get(t, "Boomerang-N2", "DB2", 0, "speedup")
	if two <= none {
		t.Fatalf("DB2 should gain from next-2 prefetch: %v <= %v (paper: +12%%)", two, none)
	}
}

func TestFig11(t *testing.T) {
	spec := smallFigure(t, "fig11-llc.json", "Apache")
	spec.Matrix.LLCLatency = []int{18}
	f := runFigure(t, spec)
	for _, s := range spec.Candidates {
		if v := f.get(t, s, "Apache", 18, "speedup"); v < 0.9 || v > 2.5 {
			t.Fatalf("%s speedup %v implausible at low latency", s, v)
		}
	}
}

func TestStorageTable(t *testing.T) {
	spec := smallFigure(t, "table3-storage.json", "Apache")
	// Storage is a property of the scheme, not of the run.
	spec.Window = &boomsim.ExperimentWindow{Warm: 2000, Measure: 10000}
	f := runFigure(t, spec)
	boom := f.get(t, "Boomerang", "Apache", 0, "storage_overhead_kb")
	if boom > 1 {
		t.Fatalf("Boomerang storage %v KB, want < 1", boom)
	}
	if f.get(t, "PIF", "Apache", 0, "storage_overhead_kb") < 100*boom {
		t.Fatal("PIF must dwarf Boomerang's storage")
	}
}

func TestTrafficTable(t *testing.T) {
	f := runFigure(t, smallFigure(t, "traffic.json", "Apache"))
	if f.get(t, "Base", "Apache", 0, "prefetches_per_ki") != 0 {
		t.Fatal("Base must not prefetch")
	}
	if f.get(t, "FDIP", "Apache", 0, "prefetches_per_ki") <= 0 {
		t.Fatal("FDIP must prefetch")
	}
	if f.get(t, "Boomerang", "Apache", 0, "llc_accesses_per_ki") <= 0 {
		t.Fatal("traffic accounting missing")
	}
}

func TestBTBAlternativesTable(t *testing.T) {
	f := runFigure(t, smallFigure(t, "btb-alternatives.json", "DB2"))
	fdipSq := f.get(t, "FDIP", "DB2", 0, "btb_miss_squashes_per_ki")
	twoSq := f.get(t, "2-Level BTB", "DB2", 0, "btb_miss_squashes_per_ki")
	boomSq := f.get(t, "Boomerang", "DB2", 0, "btb_miss_squashes_per_ki")
	if fdipSq == 0 {
		t.Fatal("FDIP must suffer BTB-miss squashes on DB2")
	}
	if twoSq >= fdipSq {
		t.Fatalf("2-level BTB squashes %v should be below FDIP %v", twoSq, fdipSq)
	}
	if boomSq != 0 {
		t.Fatalf("Boomerang squashes %v, want 0", boomSq)
	}
	if f.get(t, "Boomerang", "DB2", 0, "speedup") <= 1 {
		t.Fatal("Boomerang speedup must exceed 1")
	}
}

func TestMotivationTable(t *testing.T) {
	f := runFigure(t, smallFigure(t, "motivation.json", "SPEC-like", "DB2"))
	spec := f.get(t, "Base", "SPEC-like", 0, "stall_fraction")
	db2 := f.get(t, "Base", "DB2", 0, "stall_fraction")
	if spec > db2/3 {
		t.Fatalf("SPEC-like stall fraction %v should be far below DB2's %v", spec, db2)
	}
	if f.get(t, "Base", "SPEC-like", 0, "btb_miss_squashes_per_ki") > f.get(t, "Base", "DB2", 0, "btb_miss_squashes_per_ki") {
		t.Fatal("SPEC-like must have lower BTB pressure than DB2")
	}
	if f.get(t, "Base", "SPEC-like", 0, "ipc") <= f.get(t, "Base", "DB2", 0, "ipc") {
		t.Fatal("SPEC-like kernel should run faster than DB2 on the baseline")
	}
}

func TestMissPolicyTable(t *testing.T) {
	f := runFigure(t, smallFigure(t, "miss-policy.json", "DB2"))
	stall := f.get(t, "Boomerang-N0", "DB2", 0, "speedup")
	unthr := f.get(t, "Boomerang-Unthrottled", "DB2", 0, "speedup")
	thr := f.get(t, "Boomerang", "DB2", 0, "speedup")
	for _, v := range []float64{stall, unthr, thr} {
		if v <= 1 {
			t.Fatalf("every Boomerang variant must beat Base: %v/%v/%v", stall, unthr, thr)
		}
	}
	if thr <= stall {
		t.Fatalf("throttled next-2 (%v) should beat stalling without prefetch (%v)", thr, stall)
	}
}

func TestAblationBTBPrefetchBuffer(t *testing.T) {
	f := runFigure(t, smallFigure(t, "ablation-prefetch-buffer.json", "DB2"))
	none := f.get(t, "Boomerang pbuf=0", "DB2", 0, "speedup")
	full := f.get(t, "Boomerang", "DB2", 0, "speedup") // 32 entries
	if none <= 1 || full <= 1 {
		t.Fatalf("Boomerang variants must still beat Base: %v / %v", none, full)
	}
	if full < none*0.98 {
		t.Fatalf("the prefetch buffer should not hurt: %v vs %v", full, none)
	}
}

func TestAblationFTQDepth(t *testing.T) {
	f := runFigure(t, smallFigure(t, "ablation-ftq-depth.json", "Apache"))
	shallow := f.get(t, "FDIP FTQ=4", "Apache", 0, "coverage")
	deep := f.get(t, "FDIP", "Apache", 0, "coverage") // 32 entries
	if deep <= shallow {
		t.Fatalf("deep FTQ coverage %v should beat shallow %v", deep, shallow)
	}
}

func TestAblationPredecodeScan(t *testing.T) {
	f := runFigure(t, smallFigure(t, "ablation-scan-bound.json", "DB2"))
	// "Boomerang" scans up to 8 lines.
	for _, s := range []string{"Boomerang scan=1", "Boomerang"} {
		if v := f.get(t, s, "DB2", 0, "speedup"); v < 0.9 || v > 2.5 {
			t.Fatalf("%s speedup %v implausible", s, v)
		}
	}
}
