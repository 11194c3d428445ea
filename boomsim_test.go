package boomsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// fastOpts keeps public-API tests inside CI budgets: a small image, short
// warm and measure windows.
func fastOpts(extra ...boomsim.Option) []boomsim.Option {
	opts := []boomsim.Option{
		boomsim.WithFootprintKB(256),
		boomsim.WithWindow(20_000, 60_000),
	}
	return append(opts, extra...)
}

func TestRegistryLookup(t *testing.T) {
	schemes := boomsim.Schemes()
	if len(schemes) < 15 {
		t.Fatalf("Schemes() lists %d entries, want the full lineup (>= 15)", len(schemes))
	}
	names := map[string]bool{}
	for _, s := range schemes {
		names[s.Name] = true
	}
	for _, want := range []string{"Base", "FDIP", "SHIFT", "Confluence", "Boomerang",
		"PIF", "2-Level BTB", "PhantomBTB", "Boomerang-N0", "Boomerang-Unthrottled"} {
		if !names[want] {
			t.Errorf("scheme %q missing from registry", want)
		}
	}
	for _, name := range boomsim.DefaultSchemes() {
		if !names[name] {
			t.Errorf("DefaultSchemes includes %q which is not registered", name)
		}
	}

	// Count only the built-in entries: other tests may have extended the
	// process-global registry (test order is not guaranteed).
	workloads := boomsim.Workloads()
	builtins := map[string]bool{}
	for _, w := range workloads {
		if !strings.HasPrefix(w.Name, "TestCustom") {
			builtins[w.Name] = true
		}
	}
	if len(builtins) != 7 { // Table II's six + SPEC-like
		t.Fatalf("Workloads() lists %d built-in entries, want 7", len(builtins))
	}
	for _, want := range []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2", "SPEC-like"} {
		if !builtins[want] {
			t.Errorf("workload %q missing from registry", want)
		}
	}
	w, err := boomsim.LookupWorkload("DB2")
	if err != nil {
		t.Fatalf("LookupWorkload(DB2): %v", err)
	}
	if w.FootprintKB == 0 || w.Description == "" {
		t.Errorf("LookupWorkload(DB2) returned incomplete metadata: %+v", w)
	}
	s, err := boomsim.LookupScheme("Boomerang")
	if err != nil {
		t.Fatalf("LookupScheme(Boomerang): %v", err)
	}
	if s.StorageOverheadKB <= 0 || s.StorageOverheadKB > 1 {
		t.Errorf("Boomerang storage overhead = %v KB, want the paper's ~0.53", s.StorageOverheadKB)
	}
}

func TestUnknownNamesAreTypedErrors(t *testing.T) {
	if _, err := boomsim.New(boomsim.WithScheme("no-such-scheme")); !errors.Is(err, boomsim.ErrUnknownScheme) {
		t.Errorf("New(unknown scheme) = %v, want ErrUnknownScheme", err)
	} else if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Errorf("error %q does not name the offending scheme", err)
	}
	if _, err := boomsim.New(boomsim.WithWorkload("no-such-workload")); !errors.Is(err, boomsim.ErrUnknownWorkload) {
		t.Errorf("New(unknown workload) = %v, want ErrUnknownWorkload", err)
	}
	if _, err := boomsim.LookupScheme("nope"); !errors.Is(err, boomsim.ErrUnknownScheme) {
		t.Errorf("LookupScheme(nope) = %v, want ErrUnknownScheme", err)
	}
	if _, err := boomsim.LookupWorkload("nope"); !errors.Is(err, boomsim.ErrUnknownWorkload) {
		t.Errorf("LookupWorkload(nope) = %v, want ErrUnknownWorkload", err)
	}
	if _, err := boomsim.BuildImage("nope", 1); !errors.Is(err, boomsim.ErrUnknownWorkload) {
		t.Errorf("BuildImage(nope) = %v, want ErrUnknownWorkload", err)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  boomsim.Option
	}{
		{"zero measure window", boomsim.WithWindow(1000, 0)},
		{"negative BTB", boomsim.WithBTBEntries(-4)},
		{"zero BTB", boomsim.WithBTBEntries(0)},
		{"negative LLC latency", boomsim.WithLLCLatency(-1)},
		{"unknown predictor", boomsim.WithPredictor("oracle")},
		{"negative footprint", boomsim.WithFootprintKB(-1)},
		{"footprint below the generator's minimum", boomsim.WithFootprintKB(8)},
		{"footprint above 16 MB", boomsim.WithFootprintKB(16<<10 + 1)},
		{"BTB above 1M entries", boomsim.WithBTBEntries(1<<20 + 1)},
		{"BTB too large to allocate", boomsim.WithBTBEntries(math.MaxInt)},
		{"LLC latency above 4096 cycles", boomsim.WithLLCLatency(4097)},
		{"negative max cycles", boomsim.WithMaxCycles(-1)},
		{"nil progress", boomsim.WithProgress(10, nil)},
	}
	for _, c := range cases {
		if _, err := boomsim.New(c.opt); !errors.Is(err, boomsim.ErrInvalidOption) {
			t.Errorf("%s: New() = %v, want ErrInvalidOption", c.name, err)
		}
	}

	// The bounds themselves are accepted.
	for name, opt := range map[string]boomsim.Option{
		"default footprint": boomsim.WithFootprintKB(0),
		"16 KB footprint":   boomsim.WithFootprintKB(16),
		"16 MB footprint":   boomsim.WithFootprintKB(16 << 10),
		"1M-entry BTB":      boomsim.WithBTBEntries(1 << 20),
		"4096-cycle LLC":    boomsim.WithLLCLatency(4096),
	} {
		if _, err := boomsim.New(opt); err != nil {
			t.Errorf("%s: New() = %v, want it accepted", name, err)
		}
	}
}

func TestOptionApplication(t *testing.T) {
	s, err := boomsim.New(
		boomsim.WithScheme("FDIP"),
		boomsim.WithWorkload("Zeus"),
		boomsim.WithFootprintKB(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Scheme().Name; got != "FDIP" {
		t.Errorf("Scheme().Name = %q, want FDIP", got)
	}
	if got := s.Workload(); got.Name != "Zeus" || got.FootprintKB != 256 {
		t.Errorf("Workload() = %+v, want Zeus at 256 KB", got)
	}

	// Defaults: New() with no options is the paper's headline setup.
	d, err := boomsim.New()
	if err != nil {
		t.Fatal(err)
	}
	if d.Scheme().Name != "Boomerang" || d.Workload().Name != "Apache" {
		t.Errorf("defaults = %s on %s, want Boomerang on Apache",
			d.Scheme().Name, d.Workload().Name)
	}
}

func TestRegisterSchemeAndWorkload(t *testing.T) {
	// The registry is process-global and registration is permanent, so under
	// -count=N every pass after the first sees its own earlier entries:
	// treat already-registered as success for the initial registration.
	custom := scheme.Base()
	custom.Name = "TestCustomBase"
	custom.Description = "registered by TestRegisterSchemeAndWorkload"
	if err := boomsim.RegisterScheme(custom); err != nil && !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Fatalf("RegisterScheme: %v", err)
	}
	if err := boomsim.RegisterScheme(custom); !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Errorf("duplicate RegisterScheme = %v, want ErrInvalidOption", err)
	}
	if err := boomsim.RegisterScheme(scheme.Scheme{}); !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Errorf("empty-name RegisterScheme = %v, want ErrInvalidOption", err)
	}

	wl := workload.SPECLike()
	wl.Name = "TestCustomWorkload"
	if err := boomsim.RegisterWorkload(wl); err != nil && !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Fatalf("RegisterWorkload: %v", err)
	}
	if err := boomsim.RegisterWorkload(wl); !errors.Is(err, boomsim.ErrInvalidOption) {
		t.Errorf("duplicate RegisterWorkload = %v, want ErrInvalidOption", err)
	}

	// The registered pair is immediately runnable through the public path.
	s, err := boomsim.New(fastOpts(
		boomsim.WithScheme("TestCustomBase"),
		boomsim.WithWorkload("TestCustomWorkload"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "TestCustomBase" || r.Instructions < 60_000 {
		t.Errorf("custom run = %q with %d instructions, want TestCustomBase with >= 60000",
			r.Scheme, r.Instructions)
	}
}

func TestRunProducesJSONMarshalableResult(t *testing.T) {
	s, err := boomsim.New(fastOpts(boomsim.WithScheme("Boomerang"))...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.Cycles <= 0 {
		t.Fatalf("implausible result: %+v", r)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back boomsim.Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("result did not round-trip through JSON:\n got %+v\nwant %+v", back, r)
	}
}

func TestProgressCallback(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Uint64
	s, err := boomsim.New(fastOpts(
		boomsim.WithProgress(10_000, func(done, total uint64) {
			calls.Add(1)
			last.Store(done)
			if total != 60_000 {
				t.Errorf("progress total = %d, want 60000", total)
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got < 5 {
		t.Errorf("progress called %d times for a 60K window at 10K granularity, want >= 5", got)
	}
	if got := last.Load(); got != 60_000 {
		t.Errorf("final progress done = %d, want 60000", got)
	}
}

func TestCancellationReturnsErrCanceledPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the run at the first progress tick: the next
	// chunk boundary must observe it.
	s, err := boomsim.New(
		boomsim.WithFootprintKB(256),
		boomsim.WithWindow(0, 50_000_000), // far more work than the test budget allows
		boomsim.WithProgress(5_000, func(done, total uint64) { cancel() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, boomsim.ErrCanceled) {
		t.Fatalf("Run under canceled ctx = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ErrCanceled should wrap context.Canceled; got %v", err)
	}
	// 50M instructions would take tens of seconds; prompt cancellation
	// returns in well under one.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}

	// Pre-canceled context: no cycles at all.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.Run(pre); !errors.Is(err, boomsim.ErrCanceled) {
		t.Errorf("Run(pre-canceled) = %v, want ErrCanceled", err)
	}
}

func matrixSims(t *testing.T) []*boomsim.Simulation {
	t.Helper()
	var sims []*boomsim.Simulation
	for _, sc := range []string{"Base", "FDIP", "Boomerang"} {
		for _, wl := range []string{"Apache", "DB2"} {
			s, err := boomsim.New(fastOpts(
				boomsim.WithScheme(sc),
				boomsim.WithWorkload(wl),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, s)
		}
	}
	return sims
}

func TestRunMatrixDeterministicAcrossParallelism(t *testing.T) {
	sims := matrixSims(t)
	seq, err := boomsim.RunMatrix(context.Background(), sims, boomsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := boomsim.RunMatrix(context.Background(), sims, boomsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(sims) || len(par) != len(sims) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(sims))
	}
	for i := range seq {
		if seq[i].Scheme != sims[i].Scheme().Name || seq[i].Workload != sims[i].Workload().Name {
			t.Errorf("results[%d] = %s/%s, out of order (want %s/%s)",
				i, seq[i].Scheme, seq[i].Workload, sims[i].Scheme().Name, sims[i].Workload().Name)
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel results differ from sequential:\n seq %+v\n par %+v", seq, par)
	}
}

// TestRunMatrixReportsLowestIndexFailure pins RunMatrix's failure policy:
// the lowest-index genuine failure is reported, at any parallelism, and it
// is not mistaken for cancellation. Cells 1 and 3 fail because one-cycle
// flight-recorder epochs overflow the recorder.
func TestRunMatrixReportsLowestIndexFailure(t *testing.T) {
	sims := make([]*boomsim.Simulation, 4)
	for i := range sims {
		opts := []boomsim.Option{boomsim.WithFootprintKB(64), boomsim.WithWindow(0, 100_000)}
		if i%2 == 1 {
			opts = append(opts, boomsim.WithFlightRecorder(1))
		}
		s, err := boomsim.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	for _, p := range []int{1, 8} {
		_, err := boomsim.RunMatrix(context.Background(), sims, boomsim.WithParallelism(p))
		if err == nil || !strings.Contains(err.Error(), "sims[1]") ||
			!errors.Is(err, boomsim.ErrInvalidOption) || errors.Is(err, boomsim.ErrCanceled) {
			t.Errorf("parallelism %d: err = %v, want sims[1]'s ErrInvalidOption", p, err)
		}
	}
}

// TestWalkSeedsDiverge pins what a sweep over walk seeds relies on: the
// walk seed alone changes the executed path, so runs that differ only in it
// are distinct samples, while equal seeds reproduce a run exactly.
func TestWalkSeedsDiverge(t *testing.T) {
	var sims []*boomsim.Simulation
	for _, walk := range []uint64{1, 2, 1} {
		s, err := boomsim.New(fastOpts(boomsim.WithSeeds(1, walk))...)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, s)
	}
	res, err := boomsim.RunMatrix(context.Background(), sims)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], res[2]) {
		t.Errorf("equal seeds gave different results:\n%+v\n%+v", res[0], res[2])
	}
	if res[0].Cycles == res[1].Cycles && res[0].FetchStallCycles == res[1].FetchStallCycles &&
		res[0].BTBMisses == res[1].BTBMisses {
		t.Errorf("walk seeds 1 and 2 gave identical runs; the walk seed is not applied")
	}
}

// TestNoRetirementResultIsFinite pins the zero-retirement corner: a run
// whose cycle budget ends before anything retires reports finite (zero)
// rates, not NaN or Inf, so its Result still encodes as JSON.
func TestNoRetirementResultIsFinite(t *testing.T) {
	for _, name := range []string{"Base", "FDIP", "Boomerang", "Confluence"} {
		t.Run(name, func(t *testing.T) {
			s, err := boomsim.New(boomsim.WithScheme(name), boomsim.WithFootprintKB(64),
				boomsim.WithWindow(0, 1_000), boomsim.WithMaxCycles(1))
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if r.Instructions != 0 {
				t.Fatalf("retired %d instructions in one cycle; the test needs none", r.Instructions)
			}
			v := reflect.ValueOf(r)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
					t.Errorf("%s = %v", v.Type().Field(i).Name, f.Float())
				}
			}
			for k, x := range r.Stats {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("Stats[%q] = %v", k, x)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Fatalf("result does not encode: %v", err)
			}
		})
	}
}

func TestRunMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := boomsim.RunMatrix(ctx, matrixSims(t)); !errors.Is(err, boomsim.ErrCanceled) {
		t.Errorf("RunMatrix(pre-canceled) = %v, want ErrCanceled", err)
	}
}
