// Package bpu implements the in-core branch prediction state Boomerang
// leverages: conditional direction predictors (TAGE as in the paper's
// Table I, plus the bimodal and never-taken predictors of the Figure 2
// study) and the return address stack.
//
// Direction predictors are used speculatively by the decoupled front end:
// Predict consults the current (speculative) global history, Shift pushes a
// speculative outcome, and SnapshotInto/Restore implement squash recovery.
// The counters themselves are updated non-speculatively at branch resolution
// via Update, using the metadata captured at prediction time.
package bpu

import (
	"boomsim/internal/isa"
	"boomsim/internal/stats"
)

// NumTageTables is the number of tagged TAGE components.
const NumTageTables = 4

// HistState is a snapshot of speculative global-history state, sized for the
// largest predictor (TAGE: 192-bit history plus per-table folded CSRs).
// TAGE keeps its live speculative history in one HistState too, so a
// snapshot and a restore are plain copies. Stateless predictors keep it
// zero.
type HistState struct {
	h   [3]uint64             // raw history; bit 0 of h[0] is the newest outcome
	idx [NumTageTables]uint64 // per table: its history folded to the index width
	tg0 [NumTageTables]uint64 // ... folded to the tag width
	tg1 [NumTageTables]uint64 // ... folded to one bit less than the tag width
}

// Prediction carries a direction guess plus the provider metadata needed to
// update the predictor correctly when the branch resolves.
type Prediction struct {
	// Taken is the predicted direction.
	Taken bool

	provider int8 // tagged table index, or -1 for the base predictor
	altTaken bool
	baseIdx  uint32
	idx      [NumTageTables]uint32
	tag      [NumTageTables]uint16
}

// Direction is a conditional branch direction predictor with speculative
// global history.
type Direction interface {
	// Predict returns the direction guess for the branch at pc under the
	// current speculative history.
	Predict(pc isa.Addr) Prediction
	// Update trains the predictor with the resolved outcome, using the
	// prediction-time metadata.
	Update(p Prediction, pc isa.Addr, taken bool)
	// Shift pushes a speculative conditional outcome into global history.
	Shift(taken bool)
	// SnapshotInto captures speculative history for squash recovery into
	// *s (the per-entry hot path: no temporary copy of the history state).
	SnapshotInto(s *HistState)
	// Restore rewinds speculative history to a snapshot.
	Restore(HistState)
	// Name identifies the predictor in experiment output.
	Name() string
	// StorageBits reports the predictor's state budget.
	StorageBits() int
}

// NeverTaken predicts every conditional branch not-taken. The paper pairs it
// with FDIP to show that prefetch coverage barely depends on direction
// accuracy (Figure 2, "FDIP Never-Taken").
type NeverTaken struct{}

// NewNeverTaken returns the trivial predictor.
func NewNeverTaken() *NeverTaken { return &NeverTaken{} }

// Predict implements Direction.
func (*NeverTaken) Predict(isa.Addr) Prediction { return Prediction{Taken: false} }

// Update implements Direction.
func (*NeverTaken) Update(Prediction, isa.Addr, bool) {}

// Shift implements Direction.
func (*NeverTaken) Shift(bool) {}

// SnapshotInto implements Direction.
func (*NeverTaken) SnapshotInto(s *HistState) { *s = HistState{} }

// Restore implements Direction.
func (*NeverTaken) Restore(HistState) {}

// Name implements Direction.
func (*NeverTaken) Name() string { return "never-taken" }

// StorageBits implements Direction.
func (*NeverTaken) StorageBits() int { return 0 }

// Bimodal is a classic PC-indexed table of 2-bit saturating counters
// (Figure 2's "FDIP 2-bit" configuration).
type Bimodal struct {
	ctr []uint8
}

// NewBimodal builds a bimodal predictor with the given entry count (rounded
// down to a power of two).
func NewBimodal(entries int) *Bimodal {
	n := 1
	for n*2 <= entries {
		n *= 2
	}
	b := &Bimodal{ctr: make([]uint8, n)}
	for i := range b.ctr {
		b.ctr[i] = 1 // weakly not-taken
	}
	return b
}

func (b *Bimodal) index(pc isa.Addr) uint32 {
	return uint32((pc >> 2) & isa.Addr(len(b.ctr)-1))
}

// Predict implements Direction.
func (b *Bimodal) Predict(pc isa.Addr) Prediction {
	i := b.index(pc)
	return Prediction{Taken: b.ctr[i] >= 2, baseIdx: i}
}

// Update implements Direction.
func (b *Bimodal) Update(p Prediction, pc isa.Addr, taken bool) {
	i := p.baseIdx
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

// Shift implements Direction.
func (b *Bimodal) Shift(bool) {}

// SnapshotInto implements Direction.
func (b *Bimodal) SnapshotInto(s *HistState) { *s = HistState{} }

// Restore implements Direction.
func (b *Bimodal) Restore(HistState) {}

// Name implements Direction.
func (b *Bimodal) Name() string { return "bimodal" }

// StorageBits implements Direction.
func (b *Bimodal) StorageBits() int { return 2 * len(b.ctr) }

// PublishStats registers the predictor's parameters under its namespace of
// the per-component statistics registry.
func (b *Bimodal) PublishStats(r *stats.Registry) {
	r.SetUint("entries", uint64(len(b.ctr)))
	r.SetUint("storage_bits", uint64(b.StorageBits()))
}
