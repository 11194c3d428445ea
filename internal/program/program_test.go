package program

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"boomsim/internal/isa"
)

func smallParams(seed uint64) GenParams {
	p := DefaultGenParams()
	p.Seed = seed
	p.FootprintKB = 128
	p.Layers = 4
	return p
}

func TestGenerateValid(t *testing.T) {
	img := MustGenerate(smallParams(1))
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallParams(5))
	b := MustGenerate(smallParams(5))
	if len(a.Blocks) != len(b.Blocks) || len(a.Functions) != len(b.Functions) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if x.Addr != y.Addr || x.NInstr != y.NInstr || x.Term.Kind != y.Term.Kind ||
			x.Term.Target != y.Term.Target {
			t.Fatalf("block %d differs between identical seeds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(smallParams(1))
	b := MustGenerate(smallParams(2))
	if len(a.Blocks) == len(b.Blocks) {
		same := true
		for i := range a.Blocks {
			if a.Blocks[i].Term.Target != b.Blocks[i].Term.Target {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical images")
		}
	}
}

func TestFootprintNearTarget(t *testing.T) {
	p := smallParams(3)
	p.FootprintKB = 512
	img := MustGenerate(p)
	kb := img.Bytes() / 1024
	if kb < 450 || kb > 650 {
		t.Errorf("footprint %d KB, want ~512 KB", kb)
	}
}

func TestBlockLookup(t *testing.T) {
	img := MustGenerate(smallParams(7))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		got, ok := img.BlockAt(b.Addr)
		if !ok || got != b {
			t.Fatalf("BlockAt(%#x) failed", b.Addr)
		}
		mid := b.Addr + isa.Addr(b.NInstr/2)*isa.InstrBytes
		got, ok = img.BlockContaining(mid)
		if !ok || got != b {
			t.Fatalf("BlockContaining(%#x) failed for block %#x", mid, b.Addr)
		}
	}
}

func TestBlockContainingMisses(t *testing.T) {
	img := MustGenerate(smallParams(7))
	if _, ok := img.BlockContaining(img.Base - 4); ok {
		t.Error("found block below base")
	}
	if _, ok := img.BlockContaining(img.Limit + 1024); ok {
		t.Error("found block above limit")
	}
}

func TestBranchPCWithinBlock(t *testing.T) {
	img := MustGenerate(smallParams(9))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		pc := b.BranchPC()
		if pc < b.Addr || pc >= b.FallThrough() {
			t.Fatalf("branch PC %#x outside block [%#x,%#x)", pc, b.Addr, b.FallThrough())
		}
	}
}

func TestBranchesInLineComplete(t *testing.T) {
	img := MustGenerate(smallParams(11))
	// Every block's terminator must be discoverable by predecoding the line
	// holding its branch PC.
	for i := range img.Blocks {
		b := &img.Blocks[i]
		line := isa.BlockAddr(b.BranchPC())
		found := false
		for _, br := range img.AppendBranchesInLine(nil, line) {
			if br.PC == b.BranchPC() {
				found = true
				if br.BlockStart != b.Addr || br.NInstr != b.NInstr || br.Kind != b.Term.Kind {
					t.Fatalf("predecode mismatch at %#x", br.PC)
				}
			}
		}
		if !found {
			t.Fatalf("terminator of block %#x not predecoded from line %#x", b.Addr, line)
		}
	}
}

func TestBranchesInLineOrderedAndBounded(t *testing.T) {
	img := MustGenerate(smallParams(13))
	for line := isa.BlockAddr(img.Base); line < img.Limit; line += isa.BlockBytes {
		brs := img.AppendBranchesInLine(nil, line)
		for i, br := range brs {
			if br.PC < line || br.PC >= line+isa.BlockBytes {
				t.Fatalf("branch %#x outside its line %#x", br.PC, line)
			}
			if i > 0 && brs[i-1].PC >= br.PC {
				t.Fatalf("branches in line %#x not strictly ordered", line)
			}
		}
	}
}

func TestPredecodeHidesIndirectTargets(t *testing.T) {
	img := MustGenerate(smallParams(15))
	sawIndirect := false
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if !b.Term.Kind.IsIndirect() {
			continue
		}
		sawIndirect = true
		brs := img.AppendBranchesInLine(nil, b.BranchPC())
		j := slices.IndexFunc(brs, func(br PredecodedBranch) bool { return br.PC == b.BranchPC() })
		if j < 0 {
			t.Fatalf("predecode missed terminator of %#x", b.Addr)
		}
		if br := brs[j]; br.Target != 0 {
			t.Fatalf("predecode leaked an indirect target at %#x", br.PC)
		}
	}
	if !sawIndirect {
		t.Skip("no indirect branches generated at this size")
	}
}

// functionOf returns the function owning b: the last one whose entry is at
// or below b's start.
func functionOf(img *Image, b *Block) *Function {
	i := sort.Search(len(img.Functions), func(i int) bool { return img.Functions[i].Entry > b.Addr })
	return &img.Functions[i-1]
}

func TestCallLayering(t *testing.T) {
	img := MustGenerate(smallParams(19))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Kind != isa.CallDirect && b.Term.Kind != isa.IndirectCall {
			continue
		}
		caller := functionOf(img, b)
		targets := img.Targets(b)
		if b.Term.Kind == isa.CallDirect {
			targets = []isa.Addr{b.Term.Target}
		}
		for _, tgt := range targets {
			cb, ok := img.BlockAt(tgt)
			if !ok {
				t.Fatalf("call target %#x not a block", tgt)
			}
			callee := functionOf(img, cb)
			if callee.Entry != tgt {
				t.Fatalf("call target %#x is not a function entry", tgt)
			}
			if callee.Module < caller.Module {
				t.Fatalf("call from layer %d up to layer %d violates DAG",
					caller.Module, callee.Module)
			}
		}
	}
}

func TestNoRecursionWithinLayer(t *testing.T) {
	// Within-layer calls may only target the helper region, and helpers must
	// not call within-layer, so within-layer call chains have depth <= 1.
	img := MustGenerate(smallParams(21))
	type funcPos struct{ layer, pos, layerSize int }
	pos := make(map[isa.Addr]funcPos)
	perLayer := map[int][]int32{}
	for fi := range img.Functions {
		f := &img.Functions[fi]
		perLayer[f.Module] = append(perLayer[f.Module], int32(fi))
	}
	for l, fns := range perLayer {
		for i, fi := range fns {
			pos[img.Functions[fi].Entry] = funcPos{l, i, len(fns)}
		}
	}
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if !b.Term.Kind.IsCall() {
			continue
		}
		caller := functionOf(img, b)
		targets := img.Targets(b)
		if b.Term.Kind == isa.CallDirect {
			targets = []isa.Addr{b.Term.Target}
		}
		for _, tgt := range targets {
			fp := pos[tgt]
			if fp.layer != caller.Module {
				continue
			}
			if fp.pos < fp.layerSize*3/4 {
				t.Fatalf("within-layer call to non-helper function at %#x", tgt)
			}
			callerPos := pos[caller.Entry]
			if callerPos.pos >= callerPos.layerSize*3/4 {
				t.Fatalf("helper at %#x makes a within-layer call", caller.Entry)
			}
		}
	}
}

func TestRootLoopsForever(t *testing.T) {
	img := MustGenerate(smallParams(23))
	root := &img.Functions[0]
	lastBlock := &img.Blocks[root.FirstBlock+root.NBlocks-1]
	if lastBlock.Term.Kind != isa.UncondDirect || lastBlock.Term.Target != root.Entry {
		t.Fatal("root's final block must jump back to its entry")
	}
}

func TestLoopTripsBounded(t *testing.T) {
	p := smallParams(25)
	img := MustGenerate(p)
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Behaviour != BehaviourLoop {
			continue
		}
		if b.Term.Period < 2 || int(b.Term.Period) > p.LoopTripMax {
			t.Fatalf("loop trip %d out of [2,%d]", b.Term.Period, p.LoopTripMax)
		}
		if b.Term.Target > b.Addr {
			t.Fatalf("loop back-edge at %#x targets forward %#x", b.Addr, b.Term.Target)
		}
	}
}

func TestBiasesInRange(t *testing.T) {
	img := MustGenerate(smallParams(27))
	for i := range img.Blocks {
		b := &img.Blocks[i]
		if b.Term.Behaviour != BehaviourBias {
			continue
		}
		if b.Term.Bias <= 0 || b.Term.Bias >= 1 {
			t.Fatalf("bias %v out of (0,1)", b.Term.Bias)
		}
	}
}

func TestComputeStats(t *testing.T) {
	img := MustGenerate(smallParams(29))
	s := img.ComputeStats()
	if s.Functions != len(img.Functions) || s.Blocks != len(img.Blocks) {
		t.Error("stats counts wrong")
	}
	if s.MeanBlock < 2 || s.MeanBlock > 15 {
		t.Errorf("mean block size %v implausible", s.MeanBlock)
	}
	if s.ByKind[isa.None] != 0 {
		t.Error("blocks without terminators counted")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*GenParams){
		func(p *GenParams) { p.Layers = 0 },
		func(p *GenParams) { p.FootprintKB = 1 },
		func(p *GenParams) { p.MeanBlockInstrs = 1 },
		func(p *GenParams) { p.MeanFuncBlocks = 2 },
		func(p *GenParams) { p.PCall = 0.95 },
		func(p *GenParams) { p.LoopFrac = 1.5 },
		func(p *GenParams) { p.LoopTripMax = 1 },
		func(p *GenParams) { p.CondSkipMax = 0 },
		func(p *GenParams) { p.BiasMix = nil },
		func(p *GenParams) { p.IndFanout = 0 },
		// A pooled target count is a uint16. The 16 KB image keeps the
		// case short if the bound goes: its fanouts stop at its few
		// functions, so Generate would succeed instead of erroring.
		func(p *GenParams) { p.FootprintKB, p.IndFanout = 16, 1<<16 },
		func(p *GenParams) { p.FootprintKB, p.DispatchFanout = 16, 1<<16 },
		func(p *GenParams) { p.PhaseLen = 0 },
	}
	for i, mutate := range bad {
		p := DefaultGenParams()
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBlockGeometryProperty(t *testing.T) {
	img := MustGenerate(smallParams(31))
	n := len(img.Blocks)
	if err := quick.Check(func(raw uint32) bool {
		b := &img.Blocks[int(raw)%n]
		return b.FallThrough()-b.Addr == isa.Addr(b.NInstr)*isa.InstrBytes &&
			b.BranchPC() == b.FallThrough()-isa.InstrBytes
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate2MB(b *testing.B) {
	p := DefaultGenParams()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBranchesInLine(b *testing.B) {
	img := MustGenerate(smallParams(33))
	lines := int((img.Limit - img.Base) / isa.BlockBytes)
	var buf []PredecodedBranch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := img.Base + isa.Addr(i%lines)*isa.BlockBytes
		buf = img.AppendBranchesInLine(buf[:0], line)
	}
}

func TestGenerateMinimalParams(t *testing.T) {
	// The smallest legal configuration must still produce a valid,
	// executable image (single service layer, minimum footprint).
	p := DefaultGenParams()
	p.Layers = 1
	p.FootprintKB = 16
	p.DispatchFanout = 1
	img, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Functions) < 2 {
		t.Fatal("need at least root + one service function")
	}
}

func TestGenerateNoCallsStillTerminates(t *testing.T) {
	// With call probability zero the image degenerates to the dispatcher
	// plus leaf services; generation and validation must still succeed.
	p := DefaultGenParams()
	p.FootprintKB = 64
	p.Layers = 2
	p.PCall = 0
	img, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionEntriesAligned(t *testing.T) {
	img := MustGenerate(smallParams(41))
	for _, f := range img.Functions {
		if f.Entry%16 != 0 {
			t.Fatalf("function entry %#x not 16-byte aligned", f.Entry)
		}
	}
}

// FuzzImageLookups checks the per-line index against a reference that
// binary-searches Blocks, on images of fuzzed shape: BlockIndex, BlockAt,
// BlockContaining and AppendBranchesInLine must agree with it at every
// block's first and last byte, in the alignment padding after every
// function, and at fuzzed addresses at block starts, inside blocks, in the
// padding, below Base, at or past Limit and at the top of the address
// space. Every indirect block's pooled targets must be block starts, and
// other blocks must have none.
func FuzzImageLookups(f *testing.F) {
	f.Add(uint64(1), uint16(48), uint8(4), uint8(8), uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint64(7), uint16(0), uint8(0), uint8(0), uint8(0), []byte("padding, edges and mid-block bytes"))
	f.Add(uint64(3), uint16(239), uint8(14), uint8(19), uint8(7), []byte{0xff, 0x80, 0x40, 0x22, 0x13, 0x04, 0xfe, 0xff, 0x40, 0x04, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed uint64, kb uint16, meanInstrs, meanBlocks, layers uint8, picks []byte) {
		p := DefaultGenParams()
		p.Seed = seed
		p.FootprintKB = 16 + int(kb)%240
		p.MeanBlockInstrs = 2 + int(meanInstrs)%15
		p.MeanFuncBlocks = 4 + int(meanBlocks)%20
		p.Layers = 1 + int(layers)%8
		img, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range img.Blocks {
			b := &img.Blocks[i]
			indirect := b.Term.Kind == isa.IndirectJump || b.Term.Kind == isa.IndirectCall
			if targets := img.Targets(b); indirect != (len(targets) > 0) {
				t.Fatalf("block %#x (%v) has %d pooled targets", b.Addr, b.Term.Kind, len(targets))
			}
			for _, tgt := range img.Targets(b) {
				if j := refContaining(img, tgt); j < 0 || img.Blocks[j].Addr != tgt {
					t.Fatalf("block %#x: pooled target %#x is not a block start", b.Addr, tgt)
				}
			}
			checkLookups(t, img, b.Addr)
			checkLookups(t, img, b.FallThrough()-1)
		}
		for fi := range img.Functions {
			last := &img.Blocks[img.Functions[fi].FirstBlock+img.Functions[fi].NBlocks-1]
			for pc := last.FallThrough(); pc < nextEntry(img, fi); pc++ {
				checkLookups(t, img, pc)
			}
		}
		for ; len(picks) >= 3; picks = picks[3:] {
			n := uint64(picks[1])<<8 | uint64(picks[2])
			b := &img.Blocks[n%uint64(len(img.Blocks))]
			var pc isa.Addr
			switch picks[0] % 5 {
			case 0: // a block start
				pc = b.Addr
			case 1: // any byte inside a block
				pc = b.Addr + isa.Addr(picks[0]/5)%(b.FallThrough()-b.Addr)
			case 2: // the padding after a function, or its end when it has none
				fi := int(n % uint64(len(img.Functions)))
				last := &img.Blocks[img.Functions[fi].FirstBlock+img.Functions[fi].NBlocks-1]
				pc = last.FallThrough()
				if pad := nextEntry(img, fi) - pc; pad > 0 {
					pc += isa.Addr(picks[0]/5) % pad
				}
			case 3: // below Base, down to address 0
				pc = img.Base - 1 - min(n*uint64(picks[0]), img.Base-1)
			case 4: // at or past Limit, or within 255 bytes of the top of the address space
				pc = img.Limit + n*uint64(picks[0])
				if picks[1] == 0xff {
					pc = ^isa.Addr(0) - isa.Addr(picks[2])
				}
			}
			checkLookups(t, img, pc)
		}
	})
}

// nextEntry returns the address that follows function fi's padding: the
// next function's entry, or Limit after the last.
func nextEntry(img *Image, fi int) isa.Addr {
	if fi+1 < len(img.Functions) {
		return img.Functions[fi+1].Entry
	}
	return img.Limit
}

// refContaining binary-searches Blocks for the index of the block covering
// pc, -1 when none does.
func refContaining(img *Image, pc isa.Addr) int {
	i := sort.Search(len(img.Blocks), func(i int) bool { return img.Blocks[i].Addr > pc }) - 1
	if i >= 0 && pc < img.Blocks[i].FallThrough() {
		return i
	}
	return -1
}

// checkLookups compares every lookup by address at pc, and the predecode
// scan of pc's line, with the reference.
func checkLookups(t *testing.T, img *Image, pc isa.Addr) {
	t.Helper()
	ref := refContaining(img, pc)
	blk, ok := img.BlockContaining(pc)
	if ok != (ref >= 0) || ok && blk != &img.Blocks[ref] {
		t.Fatalf("BlockContaining(%#x) = %v, reference block index %d", pc, ok, ref)
	}
	start := ref >= 0 && img.Blocks[ref].Addr == pc
	i, ok := img.BlockIndex(pc)
	if ok != start || ok && int(i) != ref {
		t.Fatalf("BlockIndex(%#x) = %d, %v; reference block index %d (start %v)", pc, i, ok, ref, start)
	}
	blk, ok = img.BlockAt(pc)
	if ok != start || ok && blk != &img.Blocks[ref] {
		t.Fatalf("BlockAt(%#x) = %v, reference block index %d (start %v)", pc, ok, ref, start)
	}

	line := isa.BlockAddr(pc)
	end := line + isa.BlockBytes
	var want []PredecodedBranch
	for j := sort.Search(len(img.Blocks), func(j int) bool { return img.Blocks[j].FallThrough() > line }); j < len(img.Blocks) && img.Blocks[j].Addr < end; j++ {
		if b := &img.Blocks[j]; b.BranchPC() >= line && b.BranchPC() < end {
			want = append(want, PredecodedBranch{PC: b.BranchPC(), BlockStart: b.Addr, NInstr: b.NInstr, Kind: b.Term.Kind, Target: directTarget(&b.Term)})
		}
	}
	if got := img.AppendBranchesInLine(nil, line); !slices.Equal(got, want) {
		t.Fatalf("AppendBranchesInLine(%#x) = %v, reference %v", line, got, want)
	}
}
