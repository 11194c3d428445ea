package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"boomsim/internal/frontend"
	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// requireResultsEqual fails unless a and b are byte-identical outcomes:
// every headline field and every registry counter.
func requireResultsEqual(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("%s: Stats differ:\n a=%+v\n b=%+v", label, a.Stats, b.Stats)
	}
	if a.Hier != b.Hier {
		t.Fatalf("%s: Hier stats differ:\n a=%+v\n b=%+v", label, a.Hier, b.Hier)
	}
	if a.IPC != b.IPC {
		t.Fatalf("%s: IPC %v != %v", label, a.IPC, b.IPC)
	}
	if a.PredecodedLines != b.PredecodedLines {
		t.Fatalf("%s: PredecodedLines %d != %d", label, a.PredecodedLines, b.PredecodedLines)
	}
	if a.PrefetchMetaBytes != b.PrefetchMetaBytes {
		t.Fatalf("%s: PrefetchMetaBytes %d != %d", label, a.PrefetchMetaBytes, b.PrefetchMetaBytes)
	}
	if !reflect.DeepEqual(a.Registry.Map(), b.Registry.Map()) {
		t.Fatalf("%s: registries differ:\n a=%v\n b=%v", label, a.Registry.Map(), b.Registry.Map())
	}
}

// builtinSchemes is every built-in configuration: the seven figure schemes,
// the limit studies, PIF, the hierarchical-BTB alternatives, and the
// throttle variants — the same set the public registry exposes.
func builtinSchemes() []scheme.Config {
	out := append(scheme.All(), scheme.PIF(), scheme.PerfectL1I(), scheme.PerfectCF(),
		scheme.TwoLevelBTB(), scheme.PhantomBTBScheme(), scheme.BoomerangUnthrottled())
	for _, n := range []int{0, 1, 4, 8} {
		s := scheme.BoomerangThrottled(n)
		s.Name = fmt.Sprintf("Boomerang-N%d", n)
		out = append(out, s)
	}
	return out
}

// TestWarmMeasureBoundary pins the invariant the snapshot plane relies on:
// WarmInstance followed by a measured Engine.Run is byte-identical to Run of
// the full spec. The full-spec results themselves are pinned by the golden
// corpus, so this transitively anchors the split run to the goldens.
func TestWarmMeasureBoundary(t *testing.T) {
	w := fastProfile("Apache")
	for _, s := range []scheme.Config{scheme.Base(), scheme.FDIP(), scheme.Boomerang(), scheme.Confluence()} {
		spec := fastSpec(s, w)
		spec.ReuseWarm = false
		full, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := WarmInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
		requireResultsEqual(t, s.Name, full, collectResult(spec, inst))
	}
}

// TestForkMatchesFreshWarm proves, for every built-in scheme, that a forked
// snapshot is indistinguishable from a fresh warm — and that forking and
// running a fork leaves the master untouched (a second, later fork behaves
// identically to the first).
func TestForkMatchesFreshWarm(t *testing.T) {
	w := fastProfile("DB2")
	for _, s := range builtinSchemes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			spec := fastSpec(s, w)
			spec.ReuseWarm = false
			spec.WarmInstrs = 30_000
			spec.MeasureInstrs = 60_000

			master, err := WarmInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			fork := master.Clone()
			if fork == nil {
				t.Fatalf("%s: instance not clonable", s.Name)
			}
			fresh, err := WarmInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			fork.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			fresh.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			requireResultsEqual(t, s.Name+" fork-vs-fresh",
				collectResult(spec, fork), collectResult(spec, fresh))

			// The measured fork must not have written through to the master:
			// a second fork taken afterwards behaves identically.
			fork2 := master.Clone()
			if fork2 == nil {
				t.Fatalf("%s: second fork not clonable", s.Name)
			}
			fork2.Engine.Run(spec.MeasureInstrs, spec.MaxCycles)
			requireResultsEqual(t, s.Name+" refork-vs-fresh",
				collectResult(spec, fork2), collectResult(spec, fresh))
		})
	}
}

// FuzzForkIdentity drives random configurations through the fork the warm
// arena hands out, a clone of the clone the arena keeps of a warmed
// instance, and requires fork-and-run to produce the Result JSON of one
// straight run without reuse. The input picks a built-in scheme, a BTB of
// 64 to 32,768 entries, a workload, a footprint of 16 to 526 KB, the warm
// and measure lengths, and a point inside the measure window where the
// running fork is forked once more: clones are taken from masters laid out
// compactly and from forks whose sets have grown since, and a field a Clone
// forgets shows up as a Result difference.
func FuzzForkIdentity(f *testing.F) {
	schemes := builtinSchemes()
	pick := func(name string) uint8 {
		for i, s := range schemes {
			if s.Name == name {
				return uint8(i)
			}
		}
		panic("no built-in scheme " + name)
	}
	f.Add(pick("Confluence"), uint8(2), uint16(16384-64), uint8(248), uint16(20_000), uint16(20_000), uint16(7_001))
	f.Add(pick("2-Level BTB"), uint8(5), uint16(2048-64), uint8(120), uint16(30_000), uint16(15_000), uint16(9_999))
	f.Add(pick("PhantomBTB"), uint8(4), uint16(1000), uint8(60), uint16(10_000), uint16(25_000), uint16(1))
	f.Add(pick("Boomerang"), uint8(0), uint16(0), uint8(0), uint16(0), uint16(5_000), uint16(0))
	f.Fuzz(func(t *testing.T, schemePick, wlPick uint8, btbEntries uint16, footprint uint8, warm, measure, forkAt uint16) {
		s := schemes[int(schemePick)%len(schemes)]
		s.BTBEntries = 64 + int(btbEntries)%(32_768-64+1)
		w := workload.Profiles[int(wlPick)%len(workload.Profiles)]
		w.Gen.FootprintKB = 16 + 2*int(footprint)
		spec := DefaultSpec(s, w)
		spec.WarmInstrs = uint64(warm)
		spec.MeasureInstrs = 1 + uint64(measure)
		spec.ReuseWarm = false
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}

		master, _, err := warmMaster(context.Background(), spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		fork := master.Clone()
		fork.Engine.Run(uint64(forkAt)%spec.MeasureInstrs, 0)
		refork := fork.Clone()
		refork.Engine.Run(spec.MeasureInstrs, 0)

		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(collectResult(spec, refork))
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s on %s (%d KB, BTB %d, warm %d, fork at %d of %d): fork-of-fork result differs from a straight run:\n fork:     %s\n straight: %s",
				s.Name, w.Name, w.Gen.FootprintKB, s.BTBEntries, spec.WarmInstrs, uint64(forkAt)%spec.MeasureInstrs,
				spec.MeasureInstrs, gotJSON, wantJSON)
		}
	})
}

// TestConcurrentForksOfOneMaster runs two forks of one warmed master at the
// same time, as the warm arena does for concurrent cells of one
// configuration. Forks share no mutable state, so both must produce the same
// stats (and -race must stay quiet). Base behind a 600-cycle LLC spends most
// cycles fast-forwarding, which drives the backend's FastRetire scratch.
func TestConcurrentForksOfOneMaster(t *testing.T) {
	w, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("no Apache workload")
	}
	w.Gen.FootprintKB = 768
	spec := DefaultSpec(scheme.Base(), w)
	spec.Cfg = spec.Cfg.WithLLCLatency(600)
	spec.WarmInstrs = 50_000
	master, err := WarmInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	forks := []*scheme.Instance{master.Clone(), master.Clone()}
	stats := make([]frontend.Stats, len(forks))
	var wg sync.WaitGroup
	for i, fork := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = fork.Engine.Run(100_000, 0)
		}()
	}
	wg.Wait()
	if stats[0] != stats[1] {
		t.Fatalf("concurrent forks diverged:\n a=%+v\n b=%+v", stats[0], stats[1])
	}
}

// TestRunContextWarmReuse pins that RunContext with reuse on — both the
// arena-miss (build master, measure a fork) and arena-hit (measure a fork of
// the cached master) paths — matches reuse off exactly.
func TestRunContextWarmReuse(t *testing.T) {
	spec := fastSpec(scheme.Boomerang(), fastProfile("Zeus"))
	spec.ReuseWarm = false
	off, err := RunContext(context.Background(), spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	spec.ReuseWarm = true
	miss, err := RunContext(context.Background(), spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := RunContext(context.Background(), spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "arena miss vs reuse off", miss, off)
	requireResultsEqual(t, "arena hit vs reuse off", hit, off)

	// Chunked execution (a cancellable ctx forces chunking) must not change
	// results either way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunked, err := RunContext(ctx, spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "chunked arena hit vs reuse off", chunked, off)
}

// cancelOnSecondErr embeds a cancellable context, so Done is non-nil and a
// run under it checks Err between chunks, and reports context.Canceled from
// its second Err call on: the run passes RunContext's entry check and stops
// after one warm chunk.
type cancelOnSecondErr struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelOnSecondErr) Err() error {
	if c.calls.Add(1) >= 2 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestCanceledWarmDoesNotPoisonArena pins the arena's no-poison rule end to
// end: a run canceled while it warms a master leaves nothing under its key,
// and the next run of the same spec warms a master into the arena, forks it
// and matches a run without reuse.
func TestCanceledWarmDoesNotPoisonArena(t *testing.T) {
	spec := fastSpec(scheme.FDIP(), fastProfile("Oracle"))
	spec.WalkSeed = 77 // a key no other test warms
	key := warmKeyOf(spec)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := RunContext(&cancelOnSecondErr{Context: live}, spec, Hooks{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if _, ok := warmArena.Get(key); ok {
		t.Fatal("the canceled warm left a master in the arena")
	}

	var source string
	got, err := RunContext(live, spec, Hooks{OnWarm: func(s string) { source = s }})
	if err != nil {
		t.Fatal(err)
	}
	if source != "fork" {
		t.Errorf("run after the canceled warm got %q warm state, want a fork of a new master", source)
	}
	spec.ReuseWarm = false
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "run after a canceled warm vs reuse off", got, want)
}

// TestNoSkipEnvForcesPerCycleLoop pins BOOMSIM_NO_SKIP=1, read where it is
// used: it stops a run that skips most of its cycles from skipping any, keys
// its warm masters apart, and leaves every counter as skipping had it.
func TestNoSkipEnvForcesPerCycleLoop(t *testing.T) {
	w, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("no Apache workload")
	}
	w.Gen.FootprintKB = 768
	spec := DefaultSpec(scheme.Base(), w)
	spec.Cfg = spec.Cfg.WithLLCLatency(600)
	spec.WarmInstrs = 50_000
	run := func() (st frontend.Stats, skipped int64, key string) {
		inst, err := WarmInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		st = inst.Engine.Run(100_000, 0)
		key = warmKeyOf(spec)
		return st, inst.Engine.SkippedCycles(), key
	}

	t.Setenv("BOOMSIM_NO_SKIP", "")
	skipSt, skipped, skipKey := run()
	if skipped == 0 {
		t.Fatal("the stall-heavy run skipped no cycles by default")
	}
	t.Setenv("BOOMSIM_NO_SKIP", "1")
	st, skipped, key := run()
	if skipped != 0 {
		t.Errorf("BOOMSIM_NO_SKIP=1 run skipped %d cycles, want 0", skipped)
	}
	if key == skipKey {
		t.Errorf("BOOMSIM_NO_SKIP=1 shares the skipping run's warm key %q", key)
	}
	if st != skipSt {
		t.Errorf("per-cycle stats differ from skipping stats:\n per-cycle=%+v\n skipping=%+v", st, skipSt)
	}
}

// wedgedEngine models an engine that stops retiring: Run consumes its full
// cycle allowance (its bound is absolute, like frontend.Engine's) without
// retiring anything beyond the preset count.
type wedgedEngine struct {
	retired uint64
	cycles  int64
}

func (w *wedgedEngine) Run(target uint64, maxCycles int64) frontend.Stats {
	if maxCycles > 0 && maxCycles > w.cycles {
		w.cycles = maxCycles
	}
	return frontend.Stats{RetiredInstrs: w.retired, Cycles: w.cycles}
}

func TestRunWindowNoProgress(t *testing.T) {
	// A wedged engine under chunking with no cycle bound must surface
	// ErrNoProgress instead of looping forever.
	err := runWindow(context.Background(), &wedgedEngine{}, 1_000, 0, 100, nil)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("wedged engine: got %v, want ErrNoProgress", err)
	}

	// Partial progress that then stops is still a wedge.
	err = runWindow(context.Background(), &wedgedEngine{retired: 500}, 1_000, 0, 100, nil)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("stalled engine: got %v, want ErrNoProgress", err)
	}

	// With a cycle budget the window ends at the budget, as documented —
	// that is a bounded run, not a wedge.
	if err := runWindow(context.Background(), &wedgedEngine{}, 1_000, 5_000, 100, nil); err != nil {
		t.Fatalf("cycle-bounded run: got %v, want nil", err)
	}

	// A healthy real engine is unaffected: full window, no error.
	spec := fastSpec(scheme.Base(), fastProfile("Apache"))
	spec.ReuseWarm = false
	inst, err := WarmInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := runWindow(context.Background(), inst.Engine, 50_000, 0, 10_000, nil); err != nil {
		t.Fatalf("healthy engine: got %v, want nil", err)
	}
}
