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
	"sort"

	"boomsim/internal/flatmap"
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
	// BehaviourLoop makes a conditional back-edge taken Trip-1 consecutive
	// times then not taken (a counted loop). Trip == 0 means always taken.
	BehaviourLoop
	// BehaviourPhase makes an indirect branch pick among Targets, changing
	// its choice every Phase occurrences (models request-type dispatch).
	BehaviourPhase
)

// Terminator describes the branch instruction that ends a basic block,
// including the behavioural parameters the oracle uses to resolve it.
type Terminator struct {
	Kind isa.BranchKind
	// Target is the static (encoded) target for direct branches. Zero for
	// returns and indirect branches, whose targets are not in the encoding —
	// exactly the information a predecoder cannot extract.
	Target isa.Addr
	// Behaviour and its parameters drive the oracle outcome.
	Behaviour Behaviour
	// Bias is the taken probability for BehaviourBias.
	Bias float64
	// Trip is the loop trip count for BehaviourLoop.
	Trip uint32
	// Phase is the occurrence stride at which BehaviourPhase re-picks its
	// target; for BehaviourBias, a non-zero Phase makes the direction
	// stable for runs of Phase occurrences.
	Phase uint32
	// Targets lists candidate targets for indirect branches.
	Targets []isa.Addr
}

// Block is one basic block.
type Block struct {
	// Addr is the block's start address (also its identity).
	Addr isa.Addr
	// NInstr is the instruction count including the terminator.
	NInstr uint16
	// Func indexes the owning function in Image.Functions.
	Func int32
	Term Terminator
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

	// byStart maps a block start address to its index in Blocks. It is an
	// open-addressed table rather than a Go map because the oracle walker
	// consults it once per executed basic block — one of the simulator's
	// hottest lookups.
	byStart flatmap.Map

	// lineFirstBlock maps each cache line of the text segment to the index
	// of the first block whose byte range reaches into or past it (the block
	// a per-line predecode scan starts from). Precomputing it turns the
	// binary search at the head of every AppendBranchesInLine /
	// FirstBranchAtOrAfter call — the hottest predecoder operation — into an
	// array load.
	lineFirstBlock []int32
}

// buildIndex (re)constructs the exact-start lookup table. Generators call it
// once after assembling Blocks.
func (img *Image) buildIndex() {
	img.byStart = *flatmap.New(len(img.Blocks))
	for i := range img.Blocks {
		img.byStart.Set(uint64(img.Blocks[i].Addr), int32(i))
	}

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

// firstBlockForLine returns the index of the first block with
// FallThrough() > line (line must be cache-line aligned) — identical to the
// binary search `sort.Search(..., FallThrough() > line)` but O(1) via the
// precomputed per-line index. Out-of-segment lines resolve the same way the
// search would: 0 below the text segment, len(Blocks) past it.
func (img *Image) firstBlockForLine(line isa.Addr) int {
	baseLine := isa.BlockAddr(img.Base)
	if line < baseLine {
		return 0
	}
	li := int((line - baseLine) / isa.BlockBytes)
	if li >= len(img.lineFirstBlock) {
		return len(img.Blocks)
	}
	return int(img.lineFirstBlock[li])
}

// BlockIndex returns the index in Blocks of the block starting exactly at
// addr. Callers that need per-block side state (e.g. the walker's occurrence
// counters) key it by this index instead of by address.
func (img *Image) BlockIndex(addr isa.Addr) (int32, bool) {
	return img.byStart.Get(uint64(addr))
}

// BlockAt returns the block starting exactly at addr.
func (img *Image) BlockAt(addr isa.Addr) (*Block, bool) {
	i, ok := img.byStart.Get(uint64(addr))
	if !ok {
		return nil, false
	}
	return &img.Blocks[i], true
}

// BlockContaining returns the block whose byte range covers pc.
func (img *Image) BlockContaining(pc isa.Addr) (*Block, bool) {
	i := sort.Search(len(img.Blocks), func(i int) bool {
		return img.Blocks[i].Addr > pc
	}) - 1
	if i < 0 {
		return nil, false
	}
	b := &img.Blocks[i]
	if pc >= b.Addr && pc < b.FallThrough() {
		return b, true
	}
	return nil, false
}

// FunctionOf returns the function owning the block.
func (img *Image) FunctionOf(b *Block) *Function { return &img.Functions[b.Func] }

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
	i := img.firstBlockForLine(line)
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

// BranchesInLine is AppendBranchesInLine into a fresh slice.
func (img *Image) BranchesInLine(lineAddr isa.Addr) []PredecodedBranch {
	return img.AppendBranchesInLine(nil, lineAddr)
}

// FirstBranchAtOrAfter returns the first branch with PC >= pc inside pc's
// cache line. Boomerang's BTB-miss resolution uses this: starting from the
// missing entry's start address, scan the fetched line for the terminating
// branch; if the line holds none at or after pc, the caller probes the next
// sequential line.
func (img *Image) FirstBranchAtOrAfter(pc isa.Addr) (PredecodedBranch, bool) {
	line := isa.BlockAddr(pc)
	end := line + isa.BlockBytes
	i := img.firstBlockForLine(line)
	for ; i < len(img.Blocks); i++ {
		b := &img.Blocks[i]
		if b.Addr >= end {
			break
		}
		bpc := b.BranchPC()
		if bpc < pc || bpc >= end {
			continue
		}
		return PredecodedBranch{
			PC:         bpc,
			BlockStart: b.Addr,
			NInstr:     b.NInstr,
			Kind:       b.Term.Kind,
			Target:     directTarget(&b.Term),
		}, true
	}
	return PredecodedBranch{}, false
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
		for _, t := range b.Term.Targets {
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
