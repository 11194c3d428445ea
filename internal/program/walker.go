package program

import (
	"fmt"

	"boomsim/internal/isa"
	"boomsim/internal/xrand"
)

// Step is one committed basic block of oracle (correct-path) execution.
type Step struct {
	// Block is the executed basic block.
	Block *Block
	// Taken is the terminator's resolved direction (always true for
	// unconditional branches).
	Taken bool
	// Target is the resolved next block start.
	Target isa.Addr
	// EntryClass says how control arrived AT this block (fall-through,
	// taken conditional, or unconditional redirect) — the attribution the
	// paper's Figure 3 uses for the block's fetch misses.
	EntryClass isa.DiscontinuityClass
}

// Walker deterministically executes a code image along the architecturally
// correct path: the paper's "retire stream". All branch outcomes are pure
// functions of (branch PC, per-branch occurrence count, seed), so execution
// is replayable and independent of any predictor state.
type Walker struct {
	img  *Image
	seed uint64

	pc    isa.Addr
	stack []isa.Addr
	// occ counts per-branch occurrences, indexed by block index (every block
	// has exactly one terminator). A flat slice instead of a map keyed by
	// branch PC: this counter is read and written once per executed block,
	// making it one of the hottest accesses in the simulator.
	occ []uint32

	instrs     uint64
	maxDepth   int
	entryClass isa.DiscontinuityClass
}

// MaxCallDepth is a safety bound; the layered call DAG keeps real depth far
// below it, and exceeding it indicates a generator bug.
const MaxCallDepth = 512

// NewWalker starts execution at the image's root dispatcher.
func NewWalker(img *Image, seed uint64) *Walker {
	return &Walker{
		img:   img,
		seed:  seed,
		pc:    img.Functions[0].Entry,
		stack: make([]isa.Addr, 0, MaxCallDepth),
		occ:   make([]uint32, len(img.Blocks)),
	}
}

// PC returns the start address of the next block to execute.
func (w *Walker) PC() isa.Addr { return w.pc }

// Instructions returns the number of instructions executed so far.
func (w *Walker) Instructions() uint64 { return w.instrs }

// CallDepth returns the current call-stack depth.
func (w *Walker) CallDepth() int { return len(w.stack) }

// MaxCallDepthSeen returns the deepest call stack observed.
func (w *Walker) MaxCallDepthSeen() int { return w.maxDepth }

// Next executes one basic block and returns its committed Step.
func (w *Walker) Next() Step {
	bi, ok := w.img.BlockIndex(w.pc)
	if !ok {
		panic(fmt.Sprintf("program: walker at %#x which is not a block start", w.pc))
	}
	b := &w.img.Blocks[bi]
	pc := b.BranchPC()
	occ := w.occ[bi]
	w.occ[bi] = occ + 1

	taken, target := w.resolve(b, pc, occ)

	step := Step{Block: b, Taken: taken, Target: target, EntryClass: w.entryClass}
	w.entryClass = isa.ClassOf(b.Term.Kind, taken)
	w.pc = target
	w.instrs += uint64(b.NInstr)
	return step
}

func (w *Walker) resolve(b *Block, pc isa.Addr, occ uint32) (bool, isa.Addr) {
	t := &b.Term
	switch t.Kind {
	case isa.CondDirect:
		taken := w.condOutcome(t, pc, occ)
		if taken {
			return true, t.Target
		}
		return false, b.FallThrough()

	case isa.UncondDirect:
		return true, t.Target

	case isa.CallDirect:
		w.push(b.FallThrough())
		return true, t.Target

	case isa.Return:
		return true, w.pop()

	case isa.IndirectJump:
		return true, w.indirectTarget(b, pc, occ)

	case isa.IndirectCall:
		w.push(b.FallThrough())
		return true, w.indirectTarget(b, pc, occ)
	}
	panic(fmt.Sprintf("program: block %#x has invalid terminator", b.Addr))
}

func (w *Walker) condOutcome(t *Terminator, pc isa.Addr, occ uint32) bool {
	switch t.Behaviour {
	case BehaviourLoop:
		if t.Period == 0 {
			return true
		}
		return occ%t.Period != t.Period-1
	case BehaviourBias:
		key := uint64(occ)
		if t.Period > 0 {
			key = uint64(occ) / uint64(t.Period)
		}
		return xrand.HashBool(pc, key, w.seed, t.Bias)
	}
	panic(fmt.Sprintf("program: conditional at %#x without behaviour", pc))
}

func (w *Walker) indirectTarget(b *Block, pc isa.Addr, occ uint32) isa.Addr {
	targets := w.img.Targets(b)
	phase := uint64(occ) / uint64(b.Term.Period)
	// Quadratic skew toward low indices models the hot/cold request mix of
	// real servers: a few services take most dispatches (and therefore
	// recur within prefetcher history), the tail stays cold.
	u := float64(xrand.Hash64(pc, phase, w.seed)>>11) / (1 << 53)
	idx := int(u * u * float64(len(targets)))
	if idx >= len(targets) {
		idx = len(targets) - 1
	}
	return targets[idx]
}

func (w *Walker) push(ret isa.Addr) {
	if len(w.stack) >= MaxCallDepth {
		panic("program: call depth exceeded MaxCallDepth (generator DAG violated)")
	}
	w.stack = append(w.stack, ret)
	if len(w.stack) > w.maxDepth {
		w.maxDepth = len(w.stack)
	}
}

func (w *Walker) pop() isa.Addr {
	if len(w.stack) == 0 {
		// The root never returns by construction; tolerate a bare return by
		// restarting the dispatch loop rather than crashing a long run.
		return w.img.Functions[0].Entry
	}
	ret := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	return ret
}

// DynamicStats aggregates properties of an executed window; used both for
// profile calibration and for the Figure 4 reproduction.
type DynamicStats struct {
	Steps        uint64
	Instrs       uint64
	Branches     uint64
	CondBranches uint64
	TakenConds   uint64
	Calls        uint64
	Returns      uint64
	// TakenCondDist[d] counts taken conditionals whose target lies d cache
	// blocks away (the last bucket accumulates everything beyond).
	TakenCondDist []uint64
	// UncondDist is the same histogram for unconditional transfers.
	UncondDist []uint64
	// TouchedLines is the number of distinct instruction cache lines
	// executed (the dynamic code footprint).
	TouchedLines int
}

// Measure executes steps blocks and aggregates dynamic statistics.
// distBuckets sets the histogram width (Figure 4 uses 9 buckets: 0..8+).
func Measure(w *Walker, steps uint64, distBuckets int) DynamicStats {
	st := DynamicStats{
		TakenCondDist: make([]uint64, distBuckets),
		UncondDist:    make([]uint64, distBuckets),
	}
	lines := make(map[uint64]struct{})
	for i := uint64(0); i < steps; i++ {
		s := w.Next()
		st.Steps++
		st.Instrs += uint64(s.Block.NInstr)
		st.Branches++
		first := isa.BlockIndex(s.Block.Addr)
		lastLine := isa.BlockIndex(s.Block.FallThrough() - 1)
		for l := first; l <= lastLine; l++ {
			lines[l] = struct{}{}
		}
		kind := s.Block.Term.Kind
		switch {
		case kind.IsConditional():
			st.CondBranches++
			if s.Taken {
				st.TakenConds++
				bucket(st.TakenCondDist, isa.BlockDistance(s.Block.BranchPC(), s.Target))
			}
		case kind.IsCall():
			st.Calls++
		case kind.IsReturn():
			st.Returns++
		}
		if kind.IsUnconditional() {
			bucket(st.UncondDist, isa.BlockDistance(s.Block.BranchPC(), s.Target))
		}
	}
	st.TouchedLines = len(lines)
	return st
}

func bucket(h []uint64, d uint64) {
	if int(d) >= len(h) {
		d = uint64(len(h) - 1)
	}
	h[d]++
}

// CDF converts a histogram into a cumulative distribution in [0,1].
func CDF(h []uint64) []float64 {
	var total uint64
	for _, v := range h {
		total += v
	}
	out := make([]float64, len(h))
	if total == 0 {
		return out
	}
	var acc uint64
	for i, v := range h {
		acc += v
		out[i] = float64(acc) / float64(total)
	}
	return out
}
