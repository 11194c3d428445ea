package program

import (
	"fmt"
	"math"
	"slices"

	"boomsim/internal/isa"
	"boomsim/internal/xrand"
)

// GenParams parameterises the synthetic code-image generator. The defaults
// (DefaultGenParams) produce the control-flow shape the paper attributes to
// server software: a deep layered stack, multi-MB footprint, short basic
// blocks, taken conditional branches landing within a few cache blocks, and
// far unconditional call/return discontinuities.
type GenParams struct {
	// Seed makes generation deterministic.
	Seed uint64
	// Layers is the number of software layers below the root dispatcher
	// (web server -> caching -> CGI -> database -> kernel, etc.). Calls flow
	// from lower to higher layer index, so layer depth bounds call depth.
	Layers int
	// FootprintKB is the target text-segment size across all layers.
	FootprintKB int
	// RootBlocks sizes the top-level dispatch loop function.
	RootBlocks int
	// DispatchFanout is how many layer-1 service entries the root's indirect
	// calls select among (the "request type" fanout).
	DispatchFanout int

	// MeanBlockInstrs is the mean basic-block length in instructions.
	MeanBlockInstrs int
	// MeanFuncBlocks is the mean function length in basic blocks.
	MeanFuncBlocks int

	// Terminator mix for non-final blocks. PCond is implied by the remainder
	// 1 - PCall - PJump - PIndJump.
	PCall    float64
	PJump    float64
	PIndJump float64
	// CallDecay scales the call probability per layer (deeper layers call
	// less, bounding the per-transaction fan-out).
	CallDecay float64
	// IndCallFrac is the fraction of calls made through a register.
	IndCallFrac float64
	// IndFanout is the candidate-target count of non-root indirect calls
	// and switch-style indirect jumps.
	IndFanout int
	// PhaseLen is the occurrence stride at which non-root indirect branches
	// re-pick their target.
	PhaseLen int
	// DispatchPhase is the re-pick stride of the root's dispatch calls.
	// 1 means every request picks a (pseudo-random) service — the property
	// that gives server workloads their large active instruction footprint.
	DispatchPhase int

	// LoopFrac is the fraction of conditional branches that are counted
	// loop back-edges.
	LoopFrac float64
	// LoopSpanMax bounds how many blocks a back-edge may jump over.
	LoopSpanMax int
	// LoopTripMax bounds loop trip counts (trips skew low).
	LoopTripMax int
	// CondSkipMax bounds forward conditional skip distance in blocks. This
	// knob controls the Figure 4 taken-branch distance distribution.
	CondSkipMax int
	// BiasMix describes the taken-probability mixture of non-loop
	// conditional branches. Fractions should sum to ~1.
	BiasMix []BiasLevel

	// CrossLayerFrac is the fraction of calls that skip layers.
	CrossLayerFrac float64
	// HelperFrac is the fraction of calls that stay within the caller's
	// layer, targeting its helper region (the last quarter of the layer).
	HelperFrac float64
	// CalleeZipfTheta skews callee popularity within a layer (hot/cold code).
	CalleeZipfTheta float64
}

// BiasLevel is one component of the conditional-branch bias mixture: a Frac
// share of branches draw their taken probability uniformly from [Lo, Hi].
// Phase > 0 makes the outcome stable for runs of Phase occurrences (the
// branch direction follows slowly-changing program state rather than
// per-instance noise), which is what makes real server code paths
// repeatable enough for temporal-streaming prefetchers.
type BiasLevel struct {
	Frac, Lo, Hi float64
	Phase        uint32
}

// DefaultGenParams returns a baseline parameter set giving a ~2 MB image
// with server-like control flow.
func DefaultGenParams() GenParams {
	return GenParams{
		Seed:           1,
		Layers:         8,
		FootprintKB:    2048,
		RootBlocks:     48,
		DispatchFanout: 32,

		MeanBlockInstrs: 6,
		MeanFuncBlocks:  12,

		PCall:         0.18,
		PJump:         0.05,
		PIndJump:      0.01,
		CallDecay:     0.97,
		IndCallFrac:   0.12,
		IndFanout:     4,
		PhaseLen:      16,
		DispatchPhase: 1,

		LoopFrac:    0.14,
		LoopSpanMax: 4,
		LoopTripMax: 24,
		CondSkipMax: 10,
		BiasMix: []BiasLevel{
			{Frac: 0.45, Lo: 0.02, Hi: 0.10},            // rarely-taken checks (noisy)
			{Frac: 0.30, Lo: 0.90, Hi: 0.98},            // mostly-taken (noisy)
			{Frac: 0.25, Lo: 0.25, Hi: 0.75, Phase: 64}, // data-dependent, phase-stable
		},

		CrossLayerFrac:  0.15,
		HelperFrac:      0.25,
		CalleeZipfTheta: 0.45,
	}
}

// Validate reports the first incoherent parameter.
func (p GenParams) Validate() error {
	switch {
	case p.Layers < 1:
		return fmt.Errorf("program: Layers must be >= 1")
	case p.FootprintKB < 16:
		return fmt.Errorf("program: FootprintKB must be >= 16")
	case p.RootBlocks < 4:
		return fmt.Errorf("program: RootBlocks must be >= 4")
	case p.DispatchFanout < 1 || p.DispatchFanout > math.MaxUint16:
		return fmt.Errorf("program: DispatchFanout must be in [1, %d]", math.MaxUint16)
	case p.MeanBlockInstrs < 2:
		return fmt.Errorf("program: MeanBlockInstrs must be >= 2")
	case p.MeanFuncBlocks < 4:
		return fmt.Errorf("program: MeanFuncBlocks must be >= 4")
	case p.PCall < 0 || p.PJump < 0 || p.PIndJump < 0 ||
		p.PCall+p.PJump+p.PIndJump > 0.9:
		return fmt.Errorf("program: terminator mix out of range")
	case p.LoopFrac < 0 || p.LoopFrac > 1:
		return fmt.Errorf("program: LoopFrac out of range")
	case p.LoopTripMax < 2:
		return fmt.Errorf("program: LoopTripMax must be >= 2")
	case p.CondSkipMax < 1:
		return fmt.Errorf("program: CondSkipMax must be >= 1")
	case len(p.BiasMix) == 0:
		return fmt.Errorf("program: BiasMix must be non-empty")
	case p.IndFanout < 1 || p.IndFanout > math.MaxUint16:
		return fmt.Errorf("program: IndFanout must be in [1, %d]", math.MaxUint16)
	case p.PhaseLen < 1:
		return fmt.Errorf("program: PhaseLen must be >= 1")
	case p.DispatchPhase < 1:
		return fmt.Errorf("program: DispatchPhase must be >= 1")
	}
	return nil
}

const imageBase isa.Addr = 0x400000

// Generate builds a deterministic synthetic code image from p.
func Generate(p GenParams) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		p:   p,
		rng: xrand.New(p.Seed),
		img: &Image{Base: imageBase, Modules: p.Layers + 1},
	}
	g.layout()
	g.assignTerminators()
	// Generation grew these by appending; keep only what they hold.
	g.img.Blocks = slices.Clone(g.img.Blocks)
	g.img.Functions = slices.Clone(g.img.Functions)
	g.img.targets = slices.Clone(g.img.targets)
	g.img.buildIndex()
	if err := g.img.Validate(); err != nil {
		return nil, fmt.Errorf("program: generated image invalid: %w", err)
	}
	return g.img, nil
}

// MustGenerate is Generate for tests and examples with known-good params.
func MustGenerate(p GenParams) *Image {
	img, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return img
}

type generator struct {
	p   GenParams
	rng *xrand.Stream
	img *Image

	// layerFuncs[l] lists function indices in layer l (layer 0 = root only).
	layerFuncs [][]int32
	// zipf[l] skews callee choice within layer l.
	zipf []*xrand.Zipf
}

// layout performs pass 1: carve functions and blocks, assign addresses.
func (g *generator) layout() {
	lay := g.rng.Split()
	g.layerFuncs = make([][]int32, g.p.Layers+1)

	// Root dispatcher: layer 0, one function.
	g.addFunction(lay, 0, g.p.RootBlocks)

	rootBytes := g.img.Limit - g.img.Base
	perLayer := uint64(g.p.FootprintKB)*1024 - uint64(rootBytes)
	perLayer /= uint64(g.p.Layers)

	for l := 1; l <= g.p.Layers; l++ {
		start := g.cursor()
		for uint64(g.cursor()-start) < perLayer {
			nb := g.funcBlocks(lay)
			g.addFunction(lay, l, nb)
		}
	}

	g.zipf = make([]*xrand.Zipf, g.p.Layers+1)
	for l := 1; l <= g.p.Layers; l++ {
		g.zipf[l] = xrand.NewZipf(len(g.layerFuncs[l]), g.p.CalleeZipfTheta)
	}
}

func (g *generator) cursor() isa.Addr {
	if g.img.Limit == 0 {
		return g.img.Base
	}
	return g.img.Limit
}

func (g *generator) addFunction(lay *xrand.Stream, layer, nBlocks int) {
	fi := int32(len(g.img.Functions))
	cursor := g.cursor()
	f := Function{
		Entry:      cursor,
		FirstBlock: int32(len(g.img.Blocks)),
		NBlocks:    int32(nBlocks),
		Module:     layer,
	}
	for b := 0; b < nBlocks; b++ {
		n := g.blockInstrs(lay)
		g.img.Blocks = append(g.img.Blocks, Block{Addr: cursor, NInstr: uint16(n)})
		cursor += isa.Addr(n) * isa.InstrBytes
	}
	// Align the next function entry to 16 bytes, like real linkers do.
	cursor = (cursor + 15) &^ 15
	g.img.Limit = cursor
	g.img.Functions = append(g.img.Functions, f)
	g.layerFuncs[layer] = append(g.layerFuncs[layer], fi)
}

func (g *generator) blockInstrs(s *xrand.Stream) int {
	mean := g.p.MeanBlockInstrs
	n := 1 + s.Geometric(1.0/float64(mean), 4*mean)
	if n < 1 {
		n = 1
	}
	return n
}

func (g *generator) funcBlocks(s *xrand.Stream) int {
	mean := g.p.MeanFuncBlocks
	n := 4 + s.Geometric(1.0/float64(mean-3), 5*mean)
	return n
}

// assignTerminators performs pass 2 once all addresses are known.
func (g *generator) assignTerminators() {
	term := g.rng.Split()
	for fi := range g.img.Functions {
		g.assignFunc(term, int32(fi))
	}
}

func (g *generator) assignFunc(s *xrand.Stream, fi int32) {
	f := &g.img.Functions[fi]
	blocks := g.img.Blocks[f.FirstBlock : f.FirstBlock+f.NBlocks]
	last := len(blocks) - 1
	pCall := g.p.PCall
	for d := 0; d < f.Module; d++ {
		pCall *= g.p.CallDecay
	}
	for i := range blocks {
		b := &blocks[i]
		if i == last {
			if fi == 0 {
				// The root dispatcher loops forever.
				b.Term = Terminator{Kind: isa.UncondDirect, Target: f.Entry}
			} else {
				b.Term = Terminator{Kind: isa.Return}
			}
			continue
		}
		r := s.Float64()
		switch {
		case r < pCall:
			b.Term = g.makeCall(s, fi, f.Module, blocks, i, last)
		case r < pCall+g.p.PJump && i+2 <= last:
			j := s.Range(i+2, min(i+2+g.p.CondSkipMax, last))
			b.Term = Terminator{Kind: isa.UncondDirect, Target: blocks[j].Addr}
		case r < pCall+g.p.PJump+g.p.PIndJump && i+3 <= last:
			b.Term = g.makeSwitch(s, blocks, i, last)
		default:
			b.Term = g.makeCond(s, blocks, i, last)
		}
	}
}

// makeCall produces a call terminator honouring the layering rules: calls go
// to deeper layers (usually the next one), occasionally skip layers, or stay
// within-layer targeting the helper region.
func (g *generator) makeCall(s *xrand.Stream, fi int32, layer int, blocks []Block, i, last int) Terminator {
	indirect := s.Bool(g.p.IndCallFrac)
	fanout := g.p.IndFanout
	phase := uint32(g.p.PhaseLen)
	if fi == 0 {
		// The root's calls are the request dispatch: always indirect, with
		// a wide fanout over layer-1 service entries, re-picked per request
		// so the active instruction footprint stays wide.
		indirect = true
		fanout = g.p.DispatchFanout
		phase = uint32(g.p.DispatchPhase)
	}
	if indirect {
		start := len(g.img.targets)
		g.img.targets = g.pickCallees(g.img.targets, s, fi, layer, fanout)
		if len(g.img.targets) == start {
			return g.makeCond(s, blocks, i, last)
		}
		return g.indirect(&blocks[i], isa.IndirectCall, phase, start)
	}
	target, ok := g.pickCallee(s, fi, layer)
	if !ok {
		return g.makeCond(s, blocks, i, last)
	}
	return Terminator{Kind: isa.CallDirect, Target: target}
}

// indirect points b at the target pool's entries from start on and returns
// the terminator of an indirect branch that re-picks among them every
// period occurrences.
func (g *generator) indirect(b *Block, kind isa.BranchKind, period uint32, start int) Terminator {
	b.firstTarget, b.nTargets = uint32(start), uint16(len(g.img.targets)-start)
	return Terminator{Kind: kind, Behaviour: BehaviourPhase, Period: period}
}

// pickCallees appends to dst up to n distinct callee entry addresses legal
// for a caller in the given layer.
func (g *generator) pickCallees(dst []isa.Addr, s *xrand.Stream, fi int32, layer, n int) []isa.Addr {
	start := len(dst)
	for attempt := 0; attempt < 6*n && len(dst)-start < n; attempt++ {
		target, ok := g.pickCallee(s, fi, layer)
		if !ok {
			break
		}
		if !slices.Contains(dst[start:], target) {
			dst = append(dst, target)
		}
	}
	return dst
}

func (g *generator) pickCallee(s *xrand.Stream, fi int32, layer int) (isa.Addr, bool) {
	// Within-layer helper call: target the last quarter of the own layer,
	// and only from callers outside that quarter (helpers don't call
	// sideways, which bounds within-layer call depth at 1).
	if layer >= 1 && s.Bool(g.p.HelperFrac) {
		funcs := g.layerFuncs[layer]
		helperStart := len(funcs) * 3 / 4
		if helperStart < len(funcs) {
			pos := posInLayer(funcs, fi)
			if pos >= 0 && pos < helperStart {
				j := funcs[helperStart+s.Intn(len(funcs)-helperStart)]
				return g.img.Functions[j].Entry, true
			}
		}
	}
	// Deeper-layer call.
	targetLayer := layer + 1
	if s.Bool(g.p.CrossLayerFrac) && layer+2 <= g.p.Layers {
		targetLayer = s.Range(layer+2, g.p.Layers)
	}
	if targetLayer > g.p.Layers {
		return 0, false // leaf layer: no deeper calls
	}
	funcs := g.layerFuncs[targetLayer]
	if len(funcs) == 0 {
		return 0, false
	}
	var j int32
	if fi == 0 {
		// The root's dispatch list spans the service layer uniformly: request
		// types are distinct entry points, not popularity-shared helpers.
		// (Popularity skew is applied at run time by the walker.)
		j = funcs[s.Intn(len(funcs))]
	} else {
		j = funcs[g.zipf[targetLayer].Sample(s)]
	}
	return g.img.Functions[j].Entry, true
}

func posInLayer(funcs []int32, fi int32) int {
	for i, f := range funcs {
		if f == fi {
			return i
		}
	}
	return -1
}

// makeSwitch emits a switch-style indirect jump over forward blocks.
func (g *generator) makeSwitch(s *xrand.Stream, blocks []Block, i, last int) Terminator {
	n := min(g.p.IndFanout, last-i-1)
	if n < 2 {
		return g.makeCond(s, blocks, i, last)
	}
	start := len(g.img.targets)
	for k := 0; k < n; k++ {
		j := s.Range(i+1, last)
		g.img.targets = append(g.img.targets, blocks[j].Addr)
	}
	return g.indirect(&blocks[i], isa.IndirectJump, uint32(g.p.PhaseLen), start)
}

// makeCond emits either a counted loop back-edge or a biased forward skip.
func (g *generator) makeCond(s *xrand.Stream, blocks []Block, i, last int) Terminator {
	if s.Bool(g.p.LoopFrac) {
		j := s.Range(max(0, i-g.p.LoopSpanMax), i)
		trip := 2 + s.Geometric(0.25, g.p.LoopTripMax-2)
		return Terminator{
			Kind:      isa.CondDirect,
			Target:    blocks[j].Addr,
			Behaviour: BehaviourLoop,
			Period:    uint32(trip),
		}
	}
	hi := min(i+1+g.p.CondSkipMax, last)
	j := i + 1
	if hi > i+1 {
		j = s.Range(i+1, hi)
	}
	bias, phase := g.sampleBias(s)
	return Terminator{
		Kind:      isa.CondDirect,
		Target:    blocks[j].Addr,
		Behaviour: BehaviourBias,
		Bias:      bias,
		Period:    phase,
	}
}

func (g *generator) sampleBias(s *xrand.Stream) (bias float64, phase uint32) {
	r := s.Float64()
	acc := 0.0
	lvl := g.p.BiasMix[len(g.p.BiasMix)-1]
	for _, l := range g.p.BiasMix {
		acc += l.Frac
		if r < acc {
			lvl = l
			break
		}
	}
	return lvl.Lo + s.Float64()*(lvl.Hi-lvl.Lo), lvl.Phase
}
