// Package program models a static code image: modules, functions, and
// basic blocks with their terminating branches. It is the substrate the
// paper's SPARC server binaries provide in the original evaluation — a
// multi-megabyte instruction footprint with realistic control-flow structure
// — and the thing every component under test (BTB, predecoder, prefetchers,
// oracle execution) queries.
//
// A basic block here follows the paper's definition (Section IV-A): a
// straight-line instruction sequence ending with a branch instruction. Every
// block's last instruction is its terminator; fall-through from block i goes
// to block i+1 of the same function.
package program

import (
	"fmt"

	"boomsim/internal/isa"
)

// Behaviour selects how the oracle resolves a conditional or indirect
// terminator at run time.
type Behaviour uint8

const (
	// BehaviourNone applies to unconditional direct branches and returns.
	BehaviourNone Behaviour = iota
	// BehaviourBias makes a conditional branch taken with probability Bias,
	// decided statelessly per occurrence (replayable).
	BehaviourBias
	// BehaviourLoop makes a conditional back-edge taken Period-1
	// consecutive times then not taken (a counted loop of Period trips).
	// Period == 0 means always taken.
	BehaviourLoop
	// BehaviourPhase makes an indirect branch pick among its targets
	// (Image.Targets), changing its choice every Period occurrences (models
	// request-type dispatch).
	BehaviourPhase
)

// Terminator describes the branch instruction that ends a basic block,
// including the behavioural parameters the oracle uses to resolve it. An
// indirect branch's candidate targets live in the image's target pool
// (Image.Targets), so a terminator stays 24 bytes.
type Terminator struct {
	// Target is the static (encoded) target for direct branches. Zero for
	// returns and indirect branches, whose targets are not in the encoding —
	// exactly the information a predecoder cannot extract.
	Target isa.Addr
	// Bias is the taken probability for BehaviourBias.
	Bias float64
	// Period is BehaviourLoop's trip count and the occurrence stride at
	// which BehaviourPhase re-picks its target; for BehaviourBias, a
	// non-zero Period makes the direction stable for runs of Period
	// occurrences.
	Period uint32
	Kind   isa.BranchKind
	// Behaviour selects how the oracle resolves the branch.
	Behaviour Behaviour
}

// Block is one basic block. It is 40 bytes: an image holds hundreds of
// thousands of them (319,467 for DB2's 5 MB), so its fields are ordered so
// that nothing pads.
type Block struct {
	// Addr is the block's start address (also its identity).
	Addr isa.Addr
	Term Terminator
	// NInstr is the instruction count including the terminator.
	NInstr uint16
	// nTargets and firstTarget locate an indirect terminator's candidate
	// targets in Image.targets.
	nTargets    uint16
	firstTarget uint32
}

// BranchPC returns the address of the terminating branch instruction.
func (b *Block) BranchPC() isa.Addr {
	return b.Addr + isa.Addr(b.NInstr-1)*isa.InstrBytes
}

// FallThrough returns the address immediately after the block.
func (b *Block) FallThrough() isa.Addr {
	return b.Addr + isa.Addr(b.NInstr)*isa.InstrBytes
}

// Function is a contiguous run of basic blocks with a single entry.
type Function struct {
	// Entry is the address of the first block.
	Entry isa.Addr
	// FirstBlock and NBlocks locate the function's blocks in Image.Blocks.
	FirstBlock int32
	NBlocks    int32
	// Module is the layer/service this function belongs to.
	Module int
}

// Image is a complete static code image.
type Image struct {
	// Blocks holds every basic block, sorted by address.
	Blocks []Block
	// Functions holds every function, sorted by entry address.
	Functions []Function
	// Modules is the module (software layer) count.
	Modules int
	// Base and Limit bound the text segment [Base, Limit).
	Base, Limit isa.Addr

	// targets pools every indirect branch's candidate targets; a block
	// addresses its run by firstTarget and nTargets.
	targets []isa.Addr

	// lineFirstBlock maps each cache line of the text segment to the index
	// of the first block whose byte range reaches into or past it. It is
	// the image's one address index: every lookup by address (the walker's
	// per-step block lookup, the predecoder's per-line scans, a BTB miss's
	// pseudo-block) loads the line's entry and scans forward over the few
	// blocks that end before the address.
	lineFirstBlock []int32
}

// buildIndex constructs the per-line index. Generators call it once after
// assembling Blocks.
func (img *Image) buildIndex() {
	baseLine := isa.BlockAddr(img.Base)
	nLines := int((img.Limit - baseLine + isa.BlockBytes - 1) / isa.BlockBytes)
	img.lineFirstBlock = make([]int32, nLines)
	bi := 0
	for li := 0; li < nLines; li++ {
		line := baseLine + isa.Addr(li)*isa.BlockBytes
		for bi < len(img.Blocks) && img.Blocks[bi].FallThrough() <= line {
			bi++
		}
		img.lineFirstBlock[li] = int32(bi)
	}
}

// search returns the index of the first block that ends past pc: the block
// containing pc if there is one, else the next block, and len(Blocks) past
// the last. Below the text segment it returns 0.
func (img *Image) search(pc isa.Addr) int {
	baseLine := isa.BlockAddr(img.Base)
	if pc < baseLine {
		return 0
	}
	li := (pc - baseLine) / isa.BlockBytes
	if li >= uint64(len(img.lineFirstBlock)) {
		return len(img.Blocks)
	}
	i := int(img.lineFirstBlock[li])
	for i < len(img.Blocks) && img.Blocks[i].FallThrough() <= pc {
		i++
	}
	return i
}

// BlockIndex returns the index in Blocks of the block starting exactly at
// addr. Callers that need per-block side state (e.g. the walker's occurrence
// counters) key it by this index instead of by address.
func (img *Image) BlockIndex(addr isa.Addr) (int32, bool) {
	i := img.search(addr)
	if i < len(img.Blocks) && img.Blocks[i].Addr == addr {
		return int32(i), true
	}
	return 0, false
}

// BlockAt returns the block starting exactly at addr.
func (img *Image) BlockAt(addr isa.Addr) (*Block, bool) {
	i, ok := img.BlockIndex(addr)
	if !ok {
		return nil, false
	}
	return &img.Blocks[i], true
}

// BlockContaining returns the block whose byte range covers pc.
func (img *Image) BlockContaining(pc isa.Addr) (*Block, bool) {
	i := img.search(pc)
	if i < len(img.Blocks) && img.Blocks[i].Addr <= pc {
		return &img.Blocks[i], true
	}
	return nil, false
}

// Targets returns the candidate targets of b's indirect terminator, empty
// for every other kind. The slice is the image's own storage: read only.
func (img *Image) Targets(b *Block) []isa.Addr {
	return img.targets[b.firstTarget : b.firstTarget+uint32(b.nTargets)]
}

// PredecodedBranch is one branch a predecoder extracts from a cache block:
// the branch PC plus everything needed to synthesise a basic-block BTB entry
// for the block that ends at this branch.
type PredecodedBranch struct {
	// PC is the branch instruction's address.
	PC isa.Addr
	// BlockStart is the start of the basic block the branch terminates.
	BlockStart isa.Addr
	// NInstr is that block's instruction count.
	NInstr uint16
	// Kind is the branch class.
	Kind isa.BranchKind
	// Target is the decoded direct target; zero when the encoding does not
	// carry one (returns, indirect jumps/calls).
	Target isa.Addr
}

// AppendBranchesInLine appends, in address order, every branch instruction
// whose PC lies within the 64-byte cache line containing lineAddr, and
// returns the extended slice. This is what Boomerang's and Confluence's
// predecoder extracts from an arriving block; the append-into-caller-buffer
// form lets per-miss predecode reuse scratch storage instead of allocating.
func (img *Image) AppendBranchesInLine(dst []PredecodedBranch, lineAddr isa.Addr) []PredecodedBranch {
	line := isa.BlockAddr(lineAddr)
	end := line + isa.BlockBytes
	// Find the first block that could have a branch in the line: the block
	// containing the line start, or the first block after it.
	i := img.search(line)
	for ; i < len(img.Blocks); i++ {
		b := &img.Blocks[i]
		if b.Addr >= end {
			break
		}
		pc := b.BranchPC()
		if pc < line || pc >= end {
			continue
		}
		dst = append(dst, PredecodedBranch{
			PC:         pc,
			BlockStart: b.Addr,
			NInstr:     b.NInstr,
			Kind:       b.Term.Kind,
			Target:     directTarget(&b.Term),
		})
	}
	return dst
}

func directTarget(t *Terminator) isa.Addr {
	if t.Kind == isa.CondDirect || t.Kind == isa.UncondDirect || t.Kind == isa.CallDirect {
		return t.Target
	}
	return 0
}

// Bytes returns the total text-segment footprint in bytes.
func (img *Image) Bytes() uint64 { return uint64(img.Limit - img.Base) }

// Stats summarises the static image for documentation and sanity checks.
type Stats struct {
	Functions    int
	Blocks       int
	Instructions uint64
	FootprintKB  uint64
	ByKind       [isa.NumBranchKinds]int
	MeanBlock    float64
}

// ComputeStats walks the image once and aggregates static properties.
func (img *Image) ComputeStats() Stats {
	var s Stats
	s.Functions = len(img.Functions)
	s.Blocks = len(img.Blocks)
	for i := range img.Blocks {
		b := &img.Blocks[i]
		s.Instructions += uint64(b.NInstr)
		s.ByKind[b.Term.Kind]++
	}
	s.FootprintKB = img.Bytes() / 1024
	if s.Blocks > 0 {
		s.MeanBlock = float64(s.Instructions) / float64(s.Blocks)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("funcs=%d blocks=%d instrs=%d footprint=%dKB meanBlock=%.2f",
		s.Functions, s.Blocks, s.Instructions, s.FootprintKB, s.MeanBlock)
}

// Validate checks the structural invariants every generated image must hold:
// sorted non-overlapping blocks, in-bounds direct targets landing on block
// starts, functions that end in control transfers that never fall off the
// end, and behaviour parameters consistent with branch kinds.
func (img *Image) Validate() error {
	if len(img.Blocks) == 0 {
		return fmt.Errorf("program: empty image")
	}
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.NInstr == 0 {
			return fmt.Errorf("program: block %#x has zero instructions", b.Addr)
		}
		if i > 0 && img.Blocks[i-1].FallThrough() > b.Addr {
			return fmt.Errorf("program: blocks overlap at %#x", b.Addr)
		}
		if !b.Term.Kind.IsBranch() {
			return fmt.Errorf("program: block %#x lacks a terminator", b.Addr)
		}
		if t := directTarget(&b.Term); t != 0 {
			if _, ok := img.BlockAt(t); !ok {
				return fmt.Errorf("program: block %#x targets %#x which is not a block start", b.Addr, t)
			}
		}
		for _, t := range img.Targets(b) {
			if _, ok := img.BlockAt(t); !ok {
				return fmt.Errorf("program: block %#x indirect target %#x is not a block start", b.Addr, t)
			}
		}
	}
	for fi := range img.Functions {
		f := &img.Functions[fi]
		if f.NBlocks == 0 {
			return fmt.Errorf("program: function %d empty", fi)
		}
		last := &img.Blocks[f.FirstBlock+f.NBlocks-1]
		k := last.Term.Kind
		if k == isa.CondDirect || k == isa.CallDirect || k == isa.IndirectCall {
			return fmt.Errorf("program: function %d can fall off its end (last block %#x ends with %v)",
				fi, last.Addr, k)
		}
	}
	return nil
}
