package frontend

import (
	"errors"
	"fmt"

	"boomsim/internal/cache"
)

// Epoch is one flight-recorder sample: the deltas of the timeline-relevant
// counters over a window of StartCycle..StartCycle+Cycles (cycles counted
// from recorder attach). Consecutive epochs tile the recorded window
// exactly — every cycle lands in exactly one epoch, and summing a counter
// across epochs reproduces the run total for that window.
//
// The field set mirrors the public boomsim.Epoch byte for byte (the public
// type is a direct conversion of this one); change them together.
type Epoch struct {
	StartCycle       int64
	Cycles           int64
	Instructions     uint64
	FetchStallCycles uint64
	FTQEmptyCycles   uint64
	BTBMisses        uint64
	Squashes         uint64
	Prefetches       uint64
	PrefetchHits     uint64
	DemandMisses     uint64
}

// MaxEpochs bounds a recorder: a 100M-cycle run at the documented 10K-cycle
// epoch is 10K epochs, so 64K covers every realistic window while capping
// recorder memory at a few MB.
const MaxEpochs = 65536

// ErrRecorderFull is returned by StopFlightRecorder when the recorded window
// needed more than MaxEpochs epochs: the epochs would no longer tile it.
var ErrRecorderFull = errors.New("frontend: flight recorder full")

// Recorder is the simulator flight recorder: it snapshots the engine's
// cheap value-type counters at every epoch boundary and stores the deltas.
// All storage is preallocated at attach, so a recording run still makes
// zero steady-state allocations; when no recorder is attached the engine's
// only cost is one nil pointer compare per cycle (the alloc-regression
// test pins the recorder-off hot path).
type Recorder struct {
	every     int64
	next      int64 // absolute engine cycle of the next boundary
	base      int64 // absolute engine cycle at attach
	lastCycle int64 // absolute engine cycle of the last captured boundary
	prevStats Stats
	prevHier  cache.HierarchyStats
	epochs    []Epoch
	dropped   uint64
}

// StartFlightRecorder attaches a recorder sampling every `every` cycles
// into at most MaxEpochs epochs; a window that needs more makes
// StopFlightRecorder fail with ErrRecorderFull. Attach after the warmup
// boundary (ResetStats) so the first epoch starts at measured-cycle zero. A
// second call replaces the previous recorder.
func (e *Engine) StartFlightRecorder(every int64) {
	if every <= 0 {
		e.rec = nil
		return
	}
	e.rec = &Recorder{
		every:     every,
		base:      e.cycle,
		next:      e.cycle + every,
		lastCycle: e.cycle,
		prevStats: e.Stats(),
		prevHier:  e.hier.Stats(),
		epochs:    make([]Epoch, 0, MaxEpochs),
	}
}

// StopFlightRecorder flushes the final (possibly partial) epoch, detaches
// the recorder, and returns the recorded epochs. It returns nil when no
// recorder was attached, and ErrRecorderFull when any epoch was dropped.
func (e *Engine) StopFlightRecorder() ([]Epoch, error) {
	r := e.rec
	if r == nil {
		return nil, nil
	}
	e.rec = nil
	if e.cycle > r.lastCycle {
		r.capture(e)
	}
	if r.dropped > 0 {
		window := e.cycle - r.base
		return nil, fmt.Errorf("%w: %d-cycle epochs over a %d-cycle window need %d epochs, over the bound of %d",
			ErrRecorderFull, r.every, window, (window+r.every-1)/r.every, MaxEpochs)
	}
	return r.epochs, nil
}

// roll captures the epoch ending at the current cycle and advances the
// boundary. Called from the Run loop exactly when e.cycle reaches next, so
// epochs tile the window without drift even across chunked Run calls.
func (r *Recorder) roll(e *Engine) {
	r.capture(e)
	r.next += r.every
}

func (r *Recorder) capture(e *Engine) {
	if len(r.epochs) == cap(r.epochs) {
		r.dropped++
		return
	}
	s := e.Stats()
	h := e.hier.Stats()
	r.epochs = append(r.epochs, Epoch{
		StartCycle:       r.lastCycle - r.base,
		Cycles:           e.cycle - r.lastCycle,
		Instructions:     s.RetiredInstrs - r.prevStats.RetiredInstrs,
		FetchStallCycles: s.FetchStallCycles - r.prevStats.FetchStallCycles,
		FTQEmptyCycles:   s.FTQEmptyCycles - r.prevStats.FTQEmptyCycles,
		BTBMisses:        s.BTBMisses - r.prevStats.BTBMisses,
		Squashes:         s.TotalSquashes() - r.prevStats.TotalSquashes(),
		Prefetches:       h.Prefetches - r.prevHier.Prefetches,
		PrefetchHits:     h.DemandPFBHits - r.prevHier.DemandPFBHits,
		DemandMisses:     s.DemandLineMisses - r.prevStats.DemandLineMisses,
	})
	r.prevStats = s
	r.prevHier = h
	r.lastCycle = e.cycle
}
