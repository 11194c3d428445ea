package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"boomsim/internal/frontend"
	"boomsim/internal/scheme"
)

// TestFlightRecorderEpochsTileWindow pins the epoch-boundary contract: the
// recorded epochs exactly tile the measurement window — contiguous, no gap,
// no overlap, no double-count at the window end — and every epoch counter
// sums back to the run total.
func TestFlightRecorderEpochsTileWindow(t *testing.T) {
	spec := fastSpec(scheme.Boomerang(), fastProfile("Apache"))
	spec.FlightEvery = 10_000
	r, err := RunContext(context.Background(), spec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) < 2 {
		t.Fatalf("expected multiple epochs over %d measured cycles, got %d",
			r.Stats.Cycles, len(r.Epochs))
	}
	var cursor int64
	var cycles, instrs, stalls, ftqEmpty, btbMisses, squashes, prefetches, pfHits, misses uint64
	for i, ep := range r.Epochs {
		if ep.StartCycle != cursor {
			t.Fatalf("epoch %d starts at cycle %d, want %d (gap or overlap)", i, ep.StartCycle, cursor)
		}
		if ep.Cycles <= 0 {
			t.Fatalf("epoch %d has non-positive length %d", i, ep.Cycles)
		}
		if i < len(r.Epochs)-1 && ep.Cycles != spec.FlightEvery {
			t.Fatalf("interior epoch %d spans %d cycles, want exactly %d", i, ep.Cycles, spec.FlightEvery)
		}
		cursor += ep.Cycles
		cycles += uint64(ep.Cycles)
		instrs += ep.Instructions
		stalls += ep.FetchStallCycles
		ftqEmpty += ep.FTQEmptyCycles
		btbMisses += ep.BTBMisses
		squashes += ep.Squashes
		prefetches += ep.Prefetches
		pfHits += ep.PrefetchHits
		misses += ep.DemandMisses
	}
	if cursor != r.Stats.Cycles {
		t.Fatalf("epochs cover %d cycles, measurement window ran %d", cursor, r.Stats.Cycles)
	}
	if cycles != uint64(r.Stats.Cycles) {
		t.Fatalf("epoch cycle sum %d != window cycles %d", cycles, r.Stats.Cycles)
	}
	if instrs != r.Stats.RetiredInstrs {
		t.Fatalf("epoch instruction sum %d != retired %d", instrs, r.Stats.RetiredInstrs)
	}
	if stalls != r.Stats.FetchStallCycles {
		t.Fatalf("epoch stall sum %d != total %d", stalls, r.Stats.FetchStallCycles)
	}
	if ftqEmpty != r.Stats.FTQEmptyCycles {
		t.Fatalf("epoch FTQ-empty sum %d != total %d", ftqEmpty, r.Stats.FTQEmptyCycles)
	}
	if btbMisses != r.Stats.BTBMisses {
		t.Fatalf("epoch BTB-miss sum %d != total %d", btbMisses, r.Stats.BTBMisses)
	}
	if squashes != r.Stats.TotalSquashes() {
		t.Fatalf("epoch squash sum %d != total %d", squashes, r.Stats.TotalSquashes())
	}
	if misses != r.Stats.DemandLineMisses {
		t.Fatalf("epoch demand-miss sum %d != total %d", misses, r.Stats.DemandLineMisses)
	}
	// Hierarchy counters are not rebased at the warm boundary (Result.Hier
	// spans warm + measure), so check them by granularity invariance: a
	// single coarse epoch covering the whole window must equal the
	// fine-grained sums field for field.
	coarse := spec
	coarse.FlightEvery = 1 << 40 // one partial epoch, flushed at stop
	cr, err := RunContext(context.Background(), coarse, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Epochs) != 1 {
		t.Fatalf("coarse run recorded %d epochs, want 1", len(cr.Epochs))
	}
	one := cr.Epochs[0]
	if one.Prefetches != prefetches {
		t.Fatalf("coarse prefetches %d != fine-grained sum %d", one.Prefetches, prefetches)
	}
	if one.PrefetchHits != pfHits {
		t.Fatalf("coarse prefetch hits %d != fine-grained sum %d", one.PrefetchHits, pfHits)
	}
	if int64(cycles) != one.Cycles || one.Instructions != instrs {
		t.Fatalf("coarse epoch (%d cycles, %d instrs) != fine-grained sums (%d, %d)",
			one.Cycles, one.Instructions, cycles, instrs)
	}
}

// TestFlightRecorderOverflowFails pins the recorder bound: a window that
// needs more than MaxEpochs epochs fails the run instead of returning a
// timeline that stops partway through it, and the error says by how much.
func TestFlightRecorderOverflowFails(t *testing.T) {
	spec := fastSpec(scheme.Base(), fastProfile("Apache"))
	window := MustRun(spec).Stats.Cycles
	if window <= frontend.MaxEpochs {
		t.Fatalf("window of %d cycles fits the recorder; the test needs one that does not", window)
	}
	spec.FlightEvery = 1
	r, err := RunContext(context.Background(), spec, Hooks{})
	if !errors.Is(err, frontend.ErrRecorderFull) {
		t.Fatalf("err = %v with %d epochs over a %d-cycle window, want ErrRecorderFull",
			err, len(r.Epochs), window)
	}
	want := fmt.Sprintf("1-cycle epochs over a %d-cycle window need %d epochs, over the bound of %d",
		window, window, frontend.MaxEpochs)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

// TestFlightRecorderDoesNotPerturbRun pins that recording is observation
// only: a recorded run's measured counters are byte-identical to an
// unrecorded run of the same spec.
func TestFlightRecorderDoesNotPerturbRun(t *testing.T) {
	spec := fastSpec(scheme.FDIP(), fastProfile("Apache"))
	plain := MustRun(spec)
	rec := spec
	rec.FlightEvery = 7_777 // deliberately not a divisor of anything
	recorded, err := RunContext(context.Background(), rec, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Epochs) == 0 {
		t.Fatal("recorded run returned no epochs")
	}
	recorded.Epochs = nil
	requireResultsEqual(t, "recorded vs plain", plain, recorded)
}

// TestFlightRecorderOnWarmHook pins the warm-source observation: a fresh
// warm reports "fresh", a warm-arena fork reports "fork".
func TestFlightRecorderOnWarmHook(t *testing.T) {
	spec := fastSpec(scheme.Base(), fastProfile("Zeus"))
	spec.ReuseWarm = false
	var src string
	if _, err := RunContext(context.Background(), spec, Hooks{OnWarm: func(s string) { src = s }}); err != nil {
		t.Fatal(err)
	}
	if src != "fresh" {
		t.Fatalf("non-reuse run reported warm source %q, want fresh", src)
	}
	spec.ReuseWarm = true
	if _, err := RunContext(context.Background(), spec, Hooks{OnWarm: func(s string) { src = s }}); err != nil {
		t.Fatal(err)
	}
	if src != "fork" {
		t.Fatalf("reuse run reported warm source %q, want fork", src)
	}
}
