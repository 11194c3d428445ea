// Package isa defines the minimal instruction-set abstractions the simulator
// needs: a fixed-width RISC encoding (modelled on SPARC v9, which the paper's
// Flexus setup simulates), branch classes, and cache-block geometry helpers.
//
// The simulator never interprets data-flow semantics; control flow is the
// only architectural behaviour that matters to instruction supply, so an
// "instruction" here is just a program counter plus, for block terminators, a
// branch descriptor.
package isa

import "fmt"

// Geometry constants shared across the whole simulator.
const (
	// InstrBytes is the fixed instruction size (SPARC v9 is 4-byte fixed).
	InstrBytes = 4
	// BlockBytes is the cache block (line) size used by every cache level.
	BlockBytes = 64
	// InstrsPerBlock is how many instructions fit in one cache block.
	InstrsPerBlock = BlockBytes / InstrBytes
)

// Addr is a virtual instruction address.
type Addr = uint64

// BlockAddr returns the cache-block-aligned address containing pc.
func BlockAddr(pc Addr) Addr { return pc &^ (BlockBytes - 1) }

// BlockIndex returns the cache-block number containing pc.
func BlockIndex(pc Addr) uint64 { return pc / BlockBytes }

// BlockDistance returns the distance from pc to target in whole cache
// blocks (0 means same block). The sign is discarded; the paper's Figure 4
// plots absolute distance.
func BlockDistance(pc, target Addr) uint64 {
	a, b := BlockIndex(pc), BlockIndex(target)
	if a > b {
		return a - b
	}
	return b - a
}

// BranchKind classifies a control-transfer instruction. The taxonomy follows
// the paper's miss-cycle breakdown: conditional discontinuities versus
// unconditional ones (jumps, calls, returns), plus indirect variants whose
// targets only a BTB (or RAS) can supply.
type BranchKind uint8

const (
	// None marks a non-branch instruction (not a valid block terminator).
	None BranchKind = iota
	// CondDirect is a conditional branch with a PC-relative target.
	CondDirect
	// UncondDirect is an unconditional direct jump.
	UncondDirect
	// CallDirect is a direct function call (pushes a return address).
	CallDirect
	// Return transfers to the address on top of the return stack.
	Return
	// IndirectJump is an unconditional jump through a register.
	IndirectJump
	// IndirectCall is a call through a register (virtual dispatch).
	IndirectCall
	numBranchKinds
)

// NumBranchKinds is the count of valid BranchKind values (including None).
const NumBranchKinds = int(numBranchKinds)

var kindNames = [...]string{
	None:         "none",
	CondDirect:   "cond",
	UncondDirect: "jump",
	CallDirect:   "call",
	Return:       "ret",
	IndirectJump: "ijump",
	IndirectCall: "icall",
}

func (k BranchKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("BranchKind(%d)", uint8(k))
}

// IsConditional reports whether the branch outcome depends on a direction
// prediction.
func (k BranchKind) IsConditional() bool { return k == CondDirect }

// IsUnconditional reports whether the branch always redirects the fetch
// stream (the paper's "unconditional" discontinuity class: jumps, calls and
// returns, direct or indirect).
func (k BranchKind) IsUnconditional() bool {
	switch k {
	case UncondDirect, CallDirect, Return, IndirectJump, IndirectCall:
		return true
	}
	return false
}

// IsCall reports whether the branch pushes a return address.
func (k BranchKind) IsCall() bool { return k == CallDirect || k == IndirectCall }

// IsReturn reports whether the branch pops the return address stack.
func (k BranchKind) IsReturn() bool { return k == Return }

// IsIndirect reports whether the target comes from a register (so the front
// end can only obtain it from the BTB or RAS, never from the encoding).
func (k BranchKind) IsIndirect() bool {
	return k == IndirectJump || k == IndirectCall || k == Return
}

// IsBranch reports whether k names an actual control transfer.
func (k BranchKind) IsBranch() bool { return k != None && k < numBranchKinds }

// DiscontinuityClass buckets a fetch-stream transition for the paper's
// Figure 3 miss-cycle breakdown.
type DiscontinuityClass uint8

const (
	// Sequential means the fetch stream fell through to the next block.
	Sequential DiscontinuityClass = iota
	// Conditional means a taken conditional branch redirected the stream.
	Conditional
	// Unconditional means a jump/call/return redirected the stream.
	Unconditional
)

var discNames = [...]string{
	Sequential:    "sequential",
	Conditional:   "conditional",
	Unconditional: "unconditional",
}

func (c DiscontinuityClass) String() string {
	if int(c) < len(discNames) {
		return discNames[c]
	}
	return fmt.Sprintf("DiscontinuityClass(%d)", uint8(c))
}

// ClassOf maps the branch kind that led into a block (None for fall-through)
// to its discontinuity class.
func ClassOf(k BranchKind, taken bool) DiscontinuityClass {
	if k == None || !taken {
		return Sequential
	}
	if k == CondDirect {
		return Conditional
	}
	return Unconditional
}
