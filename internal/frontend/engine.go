package frontend

import (
	"fmt"

	"boomsim/internal/backend"
	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/isa"
	"boomsim/internal/program"
)

// Entry is one FTQ entry: a predicted basic block (or, under a BTB miss with
// the sequential policy, a pseudo-block whose terminator the front end does
// not know).
//
// Entries are pool-allocated by the engine (see the package comment's
// zero-alloc contract): an Entry pointer is only valid while the entry is in
// the FTQ, being fetched, or in flight; after retirement or a squash the
// engine recycles it.
type Entry struct {
	// ID orders entries (monotonic).
	ID uint64
	// Start and NInstr delimit the fetch region.
	Start  isa.Addr
	NInstr uint16
	// Kind is the terminator kind as known to the front end; None when the
	// entry was produced under a BTB miss (terminator unknown).
	Kind isa.BranchKind
	// PredTaken/PredNext are the BPU's speculation.
	PredTaken bool
	PredNext  isa.Addr
	// EntryClass says how the predicted stream entered this block.
	EntryClass isa.DiscontinuityClass

	// OnCorrectPath entries carry oracle truth for resolution.
	OnCorrectPath bool
	ActualTaken   bool
	ActualNext    isa.Addr
	ActualKind    isa.BranchKind
	Mispredicted  bool
	SquashClass   SquashClass

	// Training actions applied at resolve.
	HasDir      bool
	Dir         bpu.Prediction
	DirPC       isa.Addr
	TrainBTB    bool
	BTBEntry    btb.Entry
	TrainTarget bool

	// Recovery state captured at prediction time.
	Hist  bpu.HistState
	RAScp bpu.RASCheckpoint

	// FetchDone is set by the fetch engine.
	FetchDone int64
}

// Lines returns the first and last cache line of the fetch region.
func (e *Entry) Lines() (first, last uint64) {
	first = cache.LineOf(e.Start)
	last = cache.LineOf(e.Start + isa.Addr(e.NInstr-1)*isa.InstrBytes)
	return first, last
}

func pow2AtLeast(n int) int {
	c := 4
	for c < n {
		c *= 2
	}
	return c
}

// entryRing is a power-of-two ring deque of pool-owned entries, ordered by
// ascending ID.
type entryRing struct {
	buf  []*Entry
	head int
	n    int
	mask int
}

func (r *entryRing) init(capacity int) {
	r.buf = make([]*Entry, pow2AtLeast(capacity))
	r.mask = len(r.buf) - 1
}

func (r *entryRing) len() int { return r.n }

func (r *entryRing) at(i int) *Entry { return r.buf[(r.head+i)&r.mask] }

func (r *entryRing) front() *Entry { return r.buf[r.head] }

func (r *entryRing) back() *Entry { return r.at(r.n - 1) }

func (r *entryRing) push(e *Entry) {
	if r.n == len(r.buf) {
		next := make([]*Entry, 2*len(r.buf))
		for i := 0; i < r.n; i++ {
			next[i] = r.at(i)
		}
		r.buf = next
		r.head = 0
		r.mask = len(next) - 1
	}
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *entryRing) popFront() *Entry {
	e := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	r.n--
	return e
}

func (r *entryRing) popBack() *Entry {
	r.n--
	return r.buf[(r.head+r.n)&r.mask]
}

// lineRing is a bounded FIFO of cache-line indices (power-of-two ring);
// pushing into a full ring drops the oldest element, preserving the probe
// queue's policy of favouring the newest predictions. cap bounds occupancy
// below the ring's rounded-up storage size.
type lineRing struct {
	buf  []uint64
	head int
	n    int
	mask int
	cap  int
}

func (r *lineRing) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.buf = make([]uint64, pow2AtLeast(capacity))
	r.mask = len(r.buf) - 1
	r.cap = capacity
}

func (r *lineRing) len() int { return r.n }

func (r *lineRing) push(v uint64) {
	if r.n == r.cap {
		r.popFront()
	}
	r.buf[(r.head+r.n)&r.mask] = v
	r.n++
}

func (r *lineRing) popFront() uint64 {
	v := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	r.n--
	return v
}

func (r *lineRing) clear() {
	r.head, r.n = 0, 0
}

// Options wires an Engine. Image, Hierarchy, Direction and BTB are required;
// the rest select the scheme under test.
type Options struct {
	Config config.Core
	Image  *program.Image
	// WalkSeed seeds the oracle: the engine verifies against a program
	// walker over Image started with this seed.
	WalkSeed  uint64
	Hierarchy *cache.Hierarchy
	Direction bpu.Direction
	BTB       *btb.BTB

	// MissHandler implements the BTB miss policy; nil = conventional
	// sequential fall-through (FDIP and every non-Boomerang scheme).
	MissHandler MissHandler
	// Prefetcher is an optional history-based L1-I prefetcher.
	Prefetcher Prefetcher
	// FDIPProbes enables the FTQ-directed prefetch engine.
	FDIPProbes bool
	// PerfectL1 makes every demand fetch an L1 hit (Figure 1).
	PerfectL1 bool
	// DecoupledDepth overrides Config.FTQDepth when > 0 (the non-decoupled
	// baseline uses a shallow FTQ).
	DecoupledDepth int
}

// Engine is one simulated core: BPU + FTQ + fetch engine + backend window,
// wired to a memory hierarchy and verified against the workload oracle.
type Engine struct {
	cfg     config.Core
	img     *program.Image
	orc     *program.Walker
	hier    *cache.Hierarchy
	dir     bpu.Direction
	btbs    *btb.BTB
	ras     *bpu.RAS
	miss    MissHandler
	fillObs BTBFillObserver
	pf      Prefetcher

	fdipProbes bool
	perfectL1  bool
	ftqDepth   int

	be *backend.Backend

	// Speculative BPU state.
	specPC        isa.Addr
	specClass     isa.DiscontinuityClass
	wrongPath     bool
	pendingSquash bool
	bpuStallUntil int64

	// FTQ and in-flight bookkeeping: both are rings of pool-owned entries.
	// inflight holds fetched groups ordered by ID until their retirement (or
	// a squash) recycles them.
	ftq      entryRing
	inflight entryRing
	nextID   uint64

	// entrySlab backs every Entry the engine ever hands out; entryFree is
	// the freelist. The pool is sized so the steady-state loop never touches
	// the heap: FTQ depth + the ROB-bounded window + the entry being fetched.
	entrySlab []Entry
	entryFree []*Entry

	// Fetch engine state.
	cur         *Entry
	curInstr    int
	curLine     uint64
	haveLine    bool
	lineReady   int64
	lineIsFirst bool
	lineLevel   cache.Level

	// FDIP prefetch probe queue.
	probeQ        lineRing
	lastQueuedLn  uint64
	haveLastQueue bool

	stats           Stats
	cycle           int64
	cycleBase       int64
	retireBase      uint64
	retireBlockBase uint64

	// Event-horizon cycle skipping (see skip.go). noSkip is inverted so the
	// zero value — and therefore every engine, including clones — skips by
	// default; skipped/skippedBase track fast-forwarded cycles as a
	// diagnostic, deliberately outside Stats so results are byte-identical
	// with skipping on or off.
	noSkip      bool
	skipped     int64
	skippedBase int64

	// rec is the optional flight recorder (see recorder.go). nil in the
	// default configuration: the steady-state loop then pays exactly one
	// pointer compare per cycle and keeps its zero-alloc contract.
	rec *Recorder
}

// New builds an engine. It panics on nil required dependencies (programming
// error, not runtime condition).
func New(opts Options) *Engine {
	if opts.Image == nil || opts.Hierarchy == nil ||
		opts.Direction == nil || opts.BTB == nil {
		panic("frontend: missing required dependency")
	}
	if err := opts.Config.Validate(); err != nil {
		panic(err)
	}
	depth := opts.Config.FTQDepth
	if opts.DecoupledDepth > 0 {
		depth = opts.DecoupledDepth
	}
	orc := program.NewWalker(opts.Image, opts.WalkSeed)
	e := &Engine{
		cfg:        opts.Config,
		img:        opts.Image,
		orc:        orc,
		hier:       opts.Hierarchy,
		dir:        opts.Direction,
		btbs:       opts.BTB,
		ras:        bpu.NewRAS(opts.Config.RASDepth),
		miss:       opts.MissHandler,
		fillObs:    nil,
		pf:         opts.Prefetcher,
		fdipProbes: opts.FDIPProbes,
		perfectL1:  opts.PerfectL1,
		ftqDepth:   depth,
		be:         backend.New(opts.Config),
		specPC:     orc.PC(),
	}
	// Every live entry is in the FTQ, the fetch engine's hands, or the
	// ROB-bounded in-flight window (each group carries >= 1 instruction).
	poolCap := depth + opts.Config.ROBSize + 4
	e.entrySlab = make([]Entry, poolCap)
	e.entryFree = make([]*Entry, poolCap)
	for i := range e.entrySlab {
		e.entryFree[i] = &e.entrySlab[i]
	}
	e.ftq.init(depth)
	e.inflight.init(opts.Config.ROBSize + 2)
	e.probeQ.init(4 * depth)
	if obs, ok := opts.MissHandler.(BTBFillObserver); ok {
		e.fillObs = obs
	}
	return e
}

// allocEntry takes an entry from the pool. The heap fallback is only
// reachable if a caller violates the ROB admission bound (e.g. a synthetic
// unit test); the simulated configurations never hit it.
func (e *Engine) allocEntry() *Entry {
	if n := len(e.entryFree); n > 0 {
		ent := e.entryFree[n-1]
		e.entryFree = e.entryFree[:n-1]
		return ent
	}
	return new(Entry)
}

func (e *Engine) freeEntry(ent *Entry) {
	e.entryFree = append(e.entryFree, ent)
}

// Stats returns a snapshot of the accumulated statistics (retired counts are
// relative to the last ResetStats).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Cycles = e.cycle - e.cycleBase
	s.RetiredInstrs = e.be.Retired() - e.retireBase
	s.RetiredBlocks = e.be.RetiredGroups() - e.retireBlockBase
	return s
}

// ResetStats zeroes counters while keeping all microarchitectural state —
// the warmup/measure boundary. The clock itself stays monotonic (in-flight
// fills carry absolute times); reported Cycles are rebased.
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	e.cycleBase = e.cycle
	e.retireBase = e.be.Retired()
	e.retireBlockBase = e.be.RetiredGroups()
	e.skippedBase = e.skipped
}

// Run advances the simulation until targetInstrs correct-path instructions
// have retired since the last ResetStats (or construction), or maxCycles
// elapses (0 = no bound). It returns the stats snapshot at completion.
//
// When cycle skipping is enabled (the default; see skip.go) and every
// component is provably idle until a future event horizon, the loop
// fast-forwards the clock to that horizon instead of ticking through it.
// The horizon is clamped to the cycle bound and to the next flight-recorder
// boundary, so window semantics and epoch tiling are bit-for-bit unchanged.
func (e *Engine) Run(targetInstrs uint64, maxCycles int64) Stats {
	for e.be.Retired()-e.retireBase < targetInstrs {
		if maxCycles > 0 && e.cycle-e.cycleBase >= maxCycles {
			break
		}
		if !e.noSkip {
			if h, drain := e.skipHorizon(e.cycle); h > e.cycle {
				if maxCycles > 0 {
					if lim := e.cycleBase + maxCycles; h > lim {
						h = lim
					}
				}
				if e.rec != nil && h > e.rec.next {
					h = e.rec.next
				}
				// An unclamped infinite horizon means nothing is scheduled at
				// all: fall through to the per-cycle loop, preserving the
				// wedged-engine behaviour the chunked runner detects. (With a
				// cycle bound the clamp above turns that burn into one jump.)
				if h > e.cycle && h < cache.NoEvent {
					e.fastForward(e.cycle, h, drain, targetInstrs)
					if e.rec != nil && e.cycle >= e.rec.next {
						e.rec.roll(e)
					}
					continue
				}
			}
		}
		e.Tick()
		// Tick advances the clock by exactly one cycle, so the recorder
		// boundary is hit exactly — epochs tile the window with no drift.
		if e.rec != nil && e.cycle >= e.rec.next {
			e.rec.roll(e)
		}
	}
	return e.Stats()
}

// Tick advances one cycle.
func (e *Engine) Tick() {
	now := e.cycle
	e.hier.Tick(now)
	if e.pf != nil {
		e.pf.Tick(now)
	}
	e.backendStep(now)
	e.bpuStep(now)
	if e.fdipProbes {
		e.probeStep(now)
	}
	e.fetchStep(now)
	e.cycle++
}

// ---------------------------------------------------------------------------
// Backend: resolutions (training + squash) and retirement.

func (e *Engine) backendStep(now int64) {
	resolved, retired := e.be.Tick(now)
	for _, id := range resolved {
		ent := e.inflightByID(id)
		if ent == nil {
			continue
		}
		if !ent.OnCorrectPath {
			continue // wrong-path groups train nothing
		}
		e.train(ent, now)
		if ent.Mispredicted {
			e.squash(ent, now)
			break // younger resolutions are gone
		}
	}
	for _, id := range retired {
		// In-order retirement: anything still queued ahead of a reported
		// retirement is a wrong-path group the backend popped silently —
		// recycle those entries, then the reported one.
		for e.inflight.len() > 0 && e.inflight.front().ID < id {
			e.freeEntry(e.inflight.popFront())
		}
		if e.inflight.len() > 0 && e.inflight.front().ID == id {
			ent := e.inflight.popFront()
			if e.pf != nil && ent.OnCorrectPath {
				first, last := ent.Lines()
				for l := first; l <= last; l++ {
					e.pf.OnRetire(l, now)
				}
			}
			e.freeEntry(ent)
		}
	}
}

// inflightByID finds the in-flight entry with the given ID by binary search
// (the ring is ordered by ascending ID). nil when the entry is gone.
func (e *Engine) inflightByID(id uint64) *Entry {
	lo, hi := 0, e.inflight.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.inflight.at(mid).ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < e.inflight.len() {
		if ent := e.inflight.at(lo); ent.ID == id {
			return ent
		}
	}
	return nil
}

func (e *Engine) train(ent *Entry, now int64) {
	if ent.HasDir {
		e.dir.Update(ent.Dir, ent.DirPC, ent.ActualTaken)
	}
	if ent.TrainBTB {
		e.btbs.Insert(ent.BTBEntry, now)
		if e.fillObs != nil {
			e.fillObs.OnBTBFill(ent.BTBEntry, now)
		}
	}
	if ent.TrainTarget {
		e.btbs.UpdateTarget(ent.Start, ent.ActualNext, now)
	}
}

func (e *Engine) squash(ent *Entry, now int64) {
	e.stats.Squashes[ent.SquashClass]++

	e.be.Squash(ent.ID)
	for e.inflight.len() > 0 && e.inflight.back().ID > ent.ID {
		e.freeEntry(e.inflight.popBack())
	}
	for e.ftq.len() > 0 {
		e.freeEntry(e.ftq.popFront())
	}
	if e.cur != nil {
		e.freeEntry(e.cur)
		e.cur = nil
	}
	e.haveLine = false
	e.probeQ.clear()
	e.haveLastQueue = false

	// Restore speculative state to the prediction point, then apply the
	// branch's actual effect.
	e.dir.Restore(ent.Hist)
	if ent.ActualKind.IsConditional() {
		e.dir.Shift(ent.ActualTaken)
	}
	e.ras.Restore(ent.RAScp)
	if ent.ActualKind.IsCall() {
		e.ras.Push(ent.Start + isa.Addr(ent.NInstr)*isa.InstrBytes)
	} else if ent.ActualKind.IsReturn() {
		e.ras.Pop()
	}

	e.specPC = ent.ActualNext
	e.specClass = isa.ClassOf(ent.ActualKind, ent.ActualTaken)
	e.wrongPath = false
	e.pendingSquash = false
	e.bpuStallUntil = now + 1 // redirect
}

// ---------------------------------------------------------------------------
// BPU: one basic-block prediction per cycle into the FTQ.

func (e *Engine) bpuStep(now int64) {
	if e.bpuStallUntil > now {
		e.stats.BPUMissStallCycles++
		return
	}
	if e.ftq.len() >= e.ftqDepth {
		return
	}

	pc := e.specPC
	if !e.wrongPath {
		e.stats.BTBLookups++
	}
	bent, hit := e.btbs.Lookup(pc, now)
	if !hit {
		if !e.wrongPath {
			e.stats.BTBMisses++
		}
		if e.miss != nil {
			resolvedEnt, resumeAt, ok := e.miss.Handle(pc, now)
			if ok {
				e.btbs.Insert(resolvedEnt, now)
				if resumeAt > now {
					// Boomerang: BPU stalls until the miss is resolved; the
					// re-lookup at resumeAt will hit.
					e.stats.BTBMissProbes++
					e.bpuStallUntil = resumeAt
					return
				}
				bent, hit = resolvedEnt, true
			}
		}
	}

	// Neither the BTB lookup nor the miss handler touches the direction
	// predictor or RAS, so the recovery snapshot taken here matches the
	// prediction point exactly. The recycled entry is reset field by field —
	// building an Entry literal would zero and copy the ~250-byte struct
	// through a stack temporary on every prediction. Fields NOT reset here
	// are dead until re-armed: Dir/DirPC behind HasDir, BTBEntry behind
	// TrainBTB, ActualTaken/ActualNext/ActualKind/SquashClass behind
	// OnCorrectPath+Mispredicted (verify sets all of them together for every
	// correct-path entry), Hist overwritten in full by SnapshotInto,
	// NInstr/Kind/PredTaken/PredNext by predictFromEntry/sequentialEntry,
	// and FetchDone by the fetch engine before the backend reads it.
	ent := e.allocEntry()
	ent.ID = e.nextID + 1
	ent.Start = pc
	ent.EntryClass = e.specClass
	ent.OnCorrectPath = false
	ent.Mispredicted = false
	ent.HasDir = false
	ent.TrainBTB = false
	ent.TrainTarget = false
	e.dir.SnapshotInto(&ent.Hist)
	ent.RAScp = e.ras.Checkpoint()

	if hit {
		e.predictFromEntry(ent, &bent)
	} else {
		e.sequentialEntry(ent)
	}

	if !e.wrongPath {
		e.verify(ent)
	} else {
		ent.OnCorrectPath = false
		e.stats.WrongPathEntries++
	}

	e.nextID++
	e.specPC = ent.PredNext
	e.specClass = isa.ClassOf(ent.Kind, ent.PredTaken)
	e.ftq.push(ent)
	if e.fdipProbes {
		e.enqueueProbes(ent)
	}
}

// predictFromEntry fills the entry from a BTB hit.
func (e *Engine) predictFromEntry(ent *Entry, bent *btb.Entry) {
	ent.NInstr = bent.NInstr
	ent.Kind = bent.Kind
	ft := bent.FallThrough()
	switch bent.Kind {
	case isa.CondDirect:
		// Write the prediction straight into the entry: Prediction carries
		// per-table provider metadata and staging it in a local would cost
		// an extra struct copy on the hottest path.
		ent.Dir = e.dir.Predict(bent.BranchPC())
		e.dir.Shift(ent.Dir.Taken)
		ent.HasDir = true
		ent.DirPC = bent.BranchPC()
		ent.PredTaken = ent.Dir.Taken
		if ent.Dir.Taken {
			ent.PredNext = bent.Target
		} else {
			ent.PredNext = ft
		}
	case isa.UncondDirect:
		ent.PredTaken = true
		ent.PredNext = bent.Target
	case isa.CallDirect:
		ent.PredTaken = true
		ent.PredNext = bent.Target
		e.ras.Push(ft)
	case isa.Return:
		ent.PredTaken = true
		if tgt, ok := e.ras.Pop(); ok {
			ent.PredNext = tgt
		} else {
			ent.PredNext = ft // cold RAS: wander sequentially
		}
	case isa.IndirectJump, isa.IndirectCall:
		ent.PredTaken = true
		if bent.Target != 0 {
			ent.PredNext = bent.Target
		} else {
			ent.PredNext = ft // target unknown until first resolution
		}
		if bent.Kind == isa.IndirectCall {
			e.ras.Push(ft)
		}
	default:
		// A degenerate entry (e.g. synthesised beyond the text segment):
		// treat as sequential.
		ent.PredTaken = false
		ent.PredNext = ft
	}
}

// sequentialEntry builds the BTB-miss pseudo-block: fetch the underlying
// block's bytes but assume straight-line flow (the terminator is unknown to
// the front end until it resolves in the back end).
func (e *Engine) sequentialEntry(ent *Entry) {
	ent.Kind = isa.None
	ent.PredTaken = false
	if blk, ok := e.img.BlockContaining(ent.Start); ok {
		n := blk.NInstr - uint16((ent.Start-blk.Addr)/isa.InstrBytes)
		ent.NInstr = n
	} else {
		// Alignment padding or beyond text (wrong path): one line's worth.
		lineEnd := isa.BlockAddr(ent.Start) + isa.BlockBytes
		ent.NInstr = uint16((lineEnd - ent.Start) / isa.InstrBytes)
	}
	ent.PredNext = ent.Start + isa.Addr(ent.NInstr)*isa.InstrBytes
}

// verify consumes one oracle step and determines the entry's resolution.
func (e *Engine) verify(ent *Entry) {
	step := e.orc.Next()
	if step.Block.Addr != ent.Start && ent.Kind != isa.None {
		panic(fmt.Sprintf("frontend: speculative walker desynchronised: spec %#x oracle %#x",
			ent.Start, step.Block.Addr))
	}
	ent.OnCorrectPath = true
	ent.ActualTaken = step.Taken
	ent.ActualNext = step.Target
	ent.ActualKind = step.Block.Term.Kind

	if ent.Kind == isa.None {
		// BTB-miss discovery: at resolve, train the BTB with the real entry.
		ent.TrainBTB = true
		ent.BTBEntry = btb.Entry{
			Start:  step.Block.Addr,
			NInstr: step.Block.NInstr,
			Kind:   step.Block.Term.Kind,
		}
		switch step.Block.Term.Kind {
		case isa.CondDirect, isa.UncondDirect, isa.CallDirect:
			ent.BTBEntry.Target = step.Block.Term.Target
		case isa.IndirectJump, isa.IndirectCall:
			ent.BTBEntry.Target = step.Target // learn last target
		}
	} else if ent.Kind.IsIndirect() && !ent.Kind.IsReturn() {
		ent.TrainTarget = true
	}

	if ent.PredNext != ent.ActualNext {
		ent.Mispredicted = true
		switch {
		case ent.Kind == isa.None:
			ent.SquashClass = SquashBTBMiss
		case ent.Kind.IsConditional() && ent.PredTaken != ent.ActualTaken:
			ent.SquashClass = SquashDirection
		default:
			ent.SquashClass = SquashTarget
		}
		e.pendingSquash = true
		e.wrongPath = true
	}
}

// ---------------------------------------------------------------------------
// FDIP prefetch engine: one probe per newly-queued cache line.

func (e *Engine) enqueueProbes(ent *Entry) {
	first, last := ent.Lines()
	for l := first; l <= last; l++ {
		if e.haveLastQueue && l == e.lastQueuedLn {
			continue
		}
		e.lastQueuedLn = l
		e.haveLastQueue = true
		e.probeQ.push(l)
	}
}

func (e *Engine) probeStep(now int64) {
	issued := 0
	for issued < e.cfg.PrefetchProbesPerCycle && e.probeQ.len() > 0 {
		e.hier.Prefetch(e.probeQ.popFront(), now)
		issued++
	}
}

// ---------------------------------------------------------------------------
// Fetch engine: demand-fetch the FTQ head, FetchWidth instrs per cycle.

func (e *Engine) fetchStep(now int64) {
	if e.cur == nil {
		if e.ftq.len() == 0 {
			e.stats.FTQEmptyCycles++
			return
		}
		if e.be.InFlightInstrs() >= e.cfg.ROBSize {
			e.stats.ROBStallCycles++
			return
		}
		e.cur = e.ftq.popFront()
		e.curInstr = 0
		e.haveLine = false
	}

	ent := e.cur
	pc := ent.Start + isa.Addr(e.curInstr)*isa.InstrBytes
	line := cache.LineOf(pc)
	if !e.haveLine || e.curLine != line {
		e.curLine = line
		e.haveLine = true
		e.lineIsFirst = e.curInstr == 0
		e.lineReady = e.demand(line, now, ent)
	}

	if now < e.lineReady {
		if ent.OnCorrectPath {
			e.stats.FetchStallCycles++
			e.stats.StallByClass[e.lineClass(ent)]++
			e.stats.StallByLevel[e.lineLevel]++
		}
		return
	}

	// Consume up to FetchWidth instructions within the current line.
	lineEndPC := (isa.BlockAddr(pc) + isa.BlockBytes - pc) / isa.InstrBytes
	n := int(lineEndPC)
	if w := e.cfg.FetchWidth; n > w {
		n = w
	}
	if rem := int(ent.NInstr) - e.curInstr; n > rem {
		n = rem
	}
	e.curInstr += n

	if e.curInstr >= int(ent.NInstr) {
		ent.FetchDone = now
		e.be.Push(backend.Group{
			ID:        ent.ID,
			NInstr:    int(ent.NInstr),
			FetchDone: now,
			WrongPath: !ent.OnCorrectPath,
		})
		e.inflight.push(ent)
		e.cur = nil
		e.haveLine = false
	}
}

// demand performs the line access, with pipelined-hit semantics: accesses
// satisfied within the L1 hit latency do not stall the fetch pipeline.
func (e *Engine) demand(line uint64, now int64, ent *Entry) int64 {
	if ent.OnCorrectPath {
		e.stats.DemandLineAccesses++
	}
	if e.perfectL1 {
		e.lineLevel = cache.HitL1
		return now
	}
	ready, lvl := e.hier.Demand(line, now)
	e.lineLevel = lvl
	miss := lvl == cache.HitLLC || lvl == cache.HitMemory
	if miss && ent.OnCorrectPath {
		e.stats.DemandLineMisses++
		e.stats.DemandMissByClass[e.lineClass(ent)]++
	}
	if e.pf != nil {
		e.pf.OnDemand(line, miss, e.lineClass(ent), now)
	}
	if ready <= now+int64(e.cfg.L1ILatency) {
		return now // pipelined hit
	}
	return ready
}

// lineClass attributes the current line: the entry's own class for its
// first line, sequential for subsequent lines of the same block.
func (e *Engine) lineClass(ent *Entry) isa.DiscontinuityClass {
	if e.lineIsFirst {
		return ent.EntryClass
	}
	return isa.Sequential
}
