package frontend

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"boomsim/internal/config"
)

// recordCycles runs a fresh engine for exactly cycles cycles under a
// recorder sampling every `every` cycles, and stops the recorder.
func recordCycles(t *testing.T, every, cycles int64) (*Engine, []Epoch, error) {
	t.Helper()
	e := buildEngine(t, testImage(t, 64), engCfg{cfg: config.Default()})
	e.StartFlightRecorder(every)
	if st := e.Run(math.MaxUint64, cycles); st.Cycles != cycles {
		t.Fatalf("ran %d cycles, want %d", st.Cycles, cycles)
	}
	epochs, err := e.StopFlightRecorder()
	return e, epochs, err
}

// TestFlightRecorderBound pins the recorder at its bound: a window that
// needs exactly MaxEpochs epochs (the last one partial or not) is recorded
// whole, and one more cycle fails with ErrRecorderFull instead of
// returning epochs that stop short of the window.
func TestFlightRecorderBound(t *testing.T) {
	cases := []struct {
		name          string
		every, cycles int64
		need          int64
	}{
		{"one-cycle epochs fill the bound", 1, MaxEpochs, MaxEpochs},
		{"one-cycle epochs one over", 1, MaxEpochs + 1, MaxEpochs + 1},
		{"partial last epoch fills the bound", 3, 3*MaxEpochs - 1, MaxEpochs},
		{"partial last epoch one over", 3, 3*MaxEpochs + 1, MaxEpochs + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, epochs, err := recordCycles(t, c.every, c.cycles)
			if c.need > MaxEpochs {
				want := fmt.Sprintf("%d-cycle epochs over a %d-cycle window need %d epochs, over the bound of %d",
					c.every, c.cycles, c.need, MaxEpochs)
				if !errors.Is(err, ErrRecorderFull) || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want ErrRecorderFull saying %q", err, want)
				}
				if epochs != nil {
					t.Fatalf("got %d epochs alongside the error, want none", len(epochs))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(epochs)) != c.need {
				t.Fatalf("got %d epochs, want %d", len(epochs), c.need)
			}
			var cycles int64
			var instrs uint64
			for _, ep := range epochs {
				cycles += ep.Cycles
				instrs += ep.Instructions
			}
			if cycles != c.cycles || instrs != e.Stats().RetiredInstrs {
				t.Fatalf("epochs cover %d cycles and %d instructions, want %d and %d",
					cycles, instrs, c.cycles, e.Stats().RetiredInstrs)
			}
		})
	}
}

// TestStopFlightRecorderDetaches pins that Stop detaches the recorder even
// when it fails: the overflow is reported once, and a recorder attached
// afterwards starts clean rather than inheriting the dropped epochs.
func TestStopFlightRecorderDetaches(t *testing.T) {
	e, _, err := recordCycles(t, 1, MaxEpochs+1)
	if !errors.Is(err, ErrRecorderFull) {
		t.Fatalf("err = %v, want ErrRecorderFull", err)
	}
	if epochs, err := e.StopFlightRecorder(); epochs != nil || err != nil {
		t.Fatalf("second Stop = %d epochs, %v; want nothing attached", len(epochs), err)
	}

	e.ResetStats()
	e.StartFlightRecorder(100)
	e.Run(math.MaxUint64, 1_000)
	epochs, err := e.StopFlightRecorder()
	if err != nil || len(epochs) != 10 || epochs[0].StartCycle != 0 {
		t.Fatalf("fresh recorder = %d epochs, %v; want 10 from cycle 0", len(epochs), err)
	}

	e.StartFlightRecorder(100)
	e.StartFlightRecorder(0)
	if epochs, err := e.StopFlightRecorder(); epochs != nil || err != nil {
		t.Fatalf("Stop after StartFlightRecorder(0) = %d epochs, %v; want nothing attached", len(epochs), err)
	}
}
