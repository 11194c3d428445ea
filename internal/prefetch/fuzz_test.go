package prefetch

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/isa"
)

// refTemporal is the reference temporal streamer: the history allocated at
// its full length, a Go-map index and a FIFO that re-slices its head away.
// Temporal allocates history and FIFO as they fill and indexes through a
// flatmap, and FuzzTemporalMatchesReference holds it to this model's
// behaviour.
type refTemporal struct {
	hier *cache.Hierarchy
	cfg  TemporalConfig

	history []uint64
	hpos    int
	filled  bool

	index      map[uint64]int
	indexQ     []uint64
	lastRegion uint64
	haveLast   bool

	lastDemRegion uint64
	haveLastDem   bool

	active     bool
	streamPos  int
	deviations int

	pending []pendingPrefetch

	Triggers, Replayed, Resyncs, StaleIndex, StreamDeaths uint64
}

func newRefTemporal(hier *cache.Hierarchy, cfg TemporalConfig) *refTemporal {
	cfg.HistoryEntries = max(cfg.HistoryEntries, 16)
	cfg.RegionLines = max(cfg.RegionLines, 1)
	cfg.Lookahead = max(cfg.Lookahead, 1)
	cfg.MaxDeviations = max(cfg.MaxDeviations, 1)
	return &refTemporal{
		hier:    hier,
		cfg:     cfg,
		history: make([]uint64, cfg.HistoryEntries),
		index:   make(map[uint64]int, cfg.IndexEntries),
	}
}

func (p *refTemporal) OnRetire(line uint64, now int64) {
	region := line / uint64(p.cfg.RegionLines)
	if p.haveLast && region == p.lastRegion {
		return
	}
	p.lastRegion = region
	p.haveLast = true
	p.history[p.hpos] = region
	if _, exists := p.index[region]; !exists {
		if len(p.indexQ) >= p.cfg.IndexEntries && p.cfg.IndexEntries > 0 {
			evict := p.indexQ[0]
			p.indexQ = p.indexQ[1:]
			delete(p.index, evict)
		}
		p.indexQ = append(p.indexQ, region)
	}
	p.index[region] = p.hpos
	p.hpos++
	if p.hpos == len(p.history) {
		p.hpos = 0
		p.filled = true
	}
}

func (p *refTemporal) lookup(region uint64) (int, bool) {
	pos, ok := p.index[region]
	if !ok {
		return 0, false
	}
	if p.history[pos] != region {
		p.StaleIndex++
		delete(p.index, region)
		return 0, false
	}
	return pos, true
}

func (p *refTemporal) OnDemand(line uint64, miss bool, now int64) {
	region := line / uint64(p.cfg.RegionLines)
	if p.active && !(p.haveLastDem && region == p.lastDemRegion) {
		p.advance(region, now)
	}
	p.lastDemRegion = region
	p.haveLastDem = true
	if !miss {
		return
	}
	pos, ok := p.lookup(region)
	if !ok {
		return
	}
	p.Triggers++
	p.active = true
	p.streamPos = p.next(pos)
	p.deviations = 0
	p.replayAhead(now + p.cfg.MetadataLatency)
}

func (p *refTemporal) advance(region uint64, now int64) {
	pos := p.streamPos
	for i := 0; i < 8; i++ {
		if p.history[pos] == region {
			p.streamPos = p.next(pos)
			p.deviations = 0
			p.replayAhead(now)
			return
		}
		pos = p.next(pos)
	}
	prev := p.hpos - 1
	if p.hpos == 0 {
		prev = len(p.history) - 1
	}
	if ipos, ok := p.lookup(region); ok && ipos != prev {
		p.Resyncs++
		p.streamPos = p.next(ipos)
		p.deviations = 0
		p.replayAhead(now + p.cfg.MetadataLatency)
		return
	}
	p.deviations++
	if p.deviations > p.cfg.MaxDeviations {
		p.active = false
		p.StreamDeaths++
	}
}

func (p *refTemporal) replayAhead(issueAt int64) {
	pos := p.streamPos
	for i := 0; i < p.cfg.Lookahead; i++ {
		if !p.filled && pos >= p.hpos {
			break
		}
		p.pending = append(p.pending, pendingPrefetch{region: p.history[pos], issueAt: issueAt})
		pos = p.next(pos)
	}
}

func (p *refTemporal) next(pos int) int {
	if pos++; pos == len(p.history) {
		return 0
	}
	return pos
}

func (p *refTemporal) Tick(now int64) {
	budget := p.cfg.IssueRate
	if budget == 0 {
		budget = 1 << 30
	}
	issued := 0
	kept := p.pending[:0]
	for i, pp := range p.pending {
		if pp.issueAt > now || issued >= budget {
			kept = append(kept, p.pending[i:]...)
			break
		}
		base := pp.region * uint64(p.cfg.RegionLines)
		for l := 0; l < p.cfg.RegionLines; l++ {
			if p.hier.Prefetch(base+uint64(l), now) {
				issued++
			}
		}
		p.Replayed++
	}
	p.pending = kept
}

func (p *refTemporal) CloneFor(hier *cache.Hierarchy) *refTemporal {
	c := *p
	c.hier = hier
	c.history = append([]uint64(nil), p.history...)
	c.index = make(map[uint64]int, len(p.index))
	for k, v := range p.index {
		c.index[k] = v
	}
	c.indexQ = append([]uint64(nil), p.indexQ...)
	c.pending = append([]pendingPrefetch(nil), p.pending...)
	return &c
}

// sharedSlice reports whether any slice field of the structs a and b point
// to (unexported fields included) has the same non-empty backing array in
// both: a clone that copies such a struct by value fails it.
func sharedSlice(a, b any) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Cap() > 0 && fb.Cap() > 0 && fa.Pointer() == fb.Pointer() {
			return true
		}
	}
	return false
}

// fuzzHier is a small, fast hierarchy each copy prefetches into: a short
// LLC and memory round trip so fills land within a few operations, and
// MSHRs enough that replay bursts rarely drop.
func fuzzHier() *cache.Hierarchy {
	cfg := config.Default()
	cfg.LLCSizeKB, cfg.LLCLatency, cfg.MemLatency, cfg.MSHREntries = 64, 4, 8, 64
	return cache.NewHierarchy(cfg, 0)
}

// fuzzCopy is one live copy of the streamer under test and of the
// reference, each with its own hierarchy and the lines that hierarchy
// filled during the current operation.
type fuzzCopy struct {
	p              *Temporal
	ref            *refTemporal
	hier, refHier  *cache.Hierarchy
	fills, refFill []uint64
}

func (c *fuzzCopy) attach() {
	c.hier.SetFillHook(func(line cache.Line, _ int64) { c.fills = append(c.fills, line) })
	c.refHier.SetFillHook(func(line cache.Line, _ int64) { c.refFill = append(c.refFill, line) })
}

// FuzzTemporalMatchesReference drives Temporal and the reference model with
// one operation stream and requires the same counters, the same pending
// replays and the same prefetched lines after every operation. Geometry:
// history 16–4,096 records, so the history grows past its first allocation
// and wraps within one input; an index of 1–64 regions (or, for idx seeds
// from 0x8000, 1–2,048, so the FIFO grows too); the shape seed picks region
// size, lookahead, metadata latency, deviation budget and issue rate. Each
// operation is three bytes, op and a 16-bit line:
//
//   - op&0x3f == 0x3f forks the copy it picks (1 op in 64); otherwise op&3
//     picks OnRetire (0), OnDemand (1), Tick of the streamer and its
//     hierarchy (2), or all three on the line, as a fetched and retired
//     line (3);
//   - (op>>2)&3 picks which live copy (the original or a clone) it drives;
//   - op&0x40 makes the demand a miss, the only kind that triggers replay;
//   - op&0x80 advances the clock.
//
// A fork clones both models and every copy keeps being driven on its own; a
// clone sharing a backing array with its original, the index's included,
// fails the storage check at once.
func FuzzTemporalMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewPCG(34, 1))
	// seed walks a synthetic program: paths of consecutive lines below span
	// (line 0 among them), each visited line fetched (a miss one time in
	// four) and retired, with ticks between. The first solo operations
	// drive the original alone, so its history grows and wraps before the
	// first fork.
	seed := func(n, solo, span, paths int) []byte {
		starts := make([]int, paths)
		for i := range starts {
			starts[i] = int(rng.UintN(uint(span)))
		}
		starts[0] = 0
		ops := make([]byte, 0, 3*n)
		for len(ops) < 3*n {
			start := starts[rng.UintN(uint(paths))]
			for l := start; l < start+2+int(rng.UintN(24)); l++ {
				op := byte(rng.UintN(256))
				if len(ops) < 3*solo {
					op &^= 0x0c // copy 0, never a fork
				}
				if rng.UintN(8) != 0 {
					op |= 3
				}
				if op &^= 0x40; rng.UintN(4) == 0 {
					op |= 0x40
				}
				ops = append(ops, op, byte(l>>8), byte(l))
			}
		}
		return ops[:3*n]
	}
	for _, g := range []struct {
		hist, idx, shape    uint16
		n, solo, span, pths int
	}{
		{0, 3, 0x0000, 800, 0, 40, 4},
		{48, 7, 0x3025, 2000, 600, 120, 12},
		{200, 20, 0x1104, 3000, 1000, 300, 20},
		{1400, 60, 0x2060, 6000, 3500, 600, 40},
		{2000, 63, 0x0421, 8000, 5000, 1200, 80},
		{1100, 0x8000 + 1499, 0x1000, 8000, 4000, 30000, 2000},
		{4080, 31, 0x5c7d, 6000, 2000, 2000, 60},
		{4, 40, 0x0204, 3000, 500, 100, 10},
		{40, 63, 0x1009, 4000, 1500, 160, 16},
	} {
		f.Add(g.hist, g.idx, g.shape, seed(g.n, g.solo, g.span, g.pths))
	}
	f.Fuzz(func(t *testing.T, histSeed, idxSeed, shape uint16, ops []byte) {
		cfg := TemporalConfig{
			HistoryEntries:  16 + int(histSeed%4081),
			IndexEntries:    1 + int(idxSeed%64),
			RegionLines:     1 + int(shape&3),
			Lookahead:       1 + int(shape>>2&7),
			MetadataLatency: int64(shape >> 5 & 15),
			MaxDeviations:   int(shape >> 9 & 7),
			IssueRate:       int(shape >> 12 & 7),
		}
		if idxSeed >= 0x8000 {
			cfg.IndexEntries = 1 + int(idxSeed%2048)
		}
		first := &fuzzCopy{hier: fuzzHier(), refHier: fuzzHier()}
		first.p = NewTemporal(first.hier, cfg)
		first.ref = newRefTemporal(first.refHier, cfg)
		first.attach()
		live := []*fuzzCopy{first}
		now := int64(0)
		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i]
			line := uint64(ops[i+1])<<8 | uint64(ops[i+2])
			if op&0x80 != 0 {
				now++
			}
			c := live[int(op>>2&3)%len(live)]
			if op&0x3f == 0x3f {
				if len(live) < 4 {
					n := &fuzzCopy{hier: c.hier.Clone(), refHier: c.refHier.Clone()}
					n.p, n.ref = c.p.CloneFor(n.hier), c.ref.CloneFor(n.refHier)
					if sharedSlice(n.p, c.p) || sharedSlice(&n.p.index, &c.p.index) {
						t.Fatalf("op %d: CloneFor shares storage with its original", i/3)
					}
					n.attach()
					live = append(live, n)
				}
				continue
			}
			miss := op&0x40 != 0
			switch op & 3 {
			case 0:
				c.p.OnRetire(line, now)
				c.ref.OnRetire(line, now)
			case 1:
				c.p.OnDemand(line, miss, isa.Sequential, now)
				c.ref.OnDemand(line, miss, now)
			case 2:
				c.p.Tick(now)
				c.ref.Tick(now)
				c.hier.Tick(now)
				c.refHier.Tick(now)
			case 3:
				c.p.OnDemand(line, miss, isa.Sequential, now)
				c.ref.OnDemand(line, miss, now)
				c.p.OnRetire(line, now)
				c.ref.OnRetire(line, now)
				c.p.Tick(now)
				c.ref.Tick(now)
				c.hier.Tick(now)
				c.refHier.Tick(now)
			}
			p, r := c.p, c.ref
			got := [...]uint64{p.Triggers, p.Replayed, p.Resyncs, p.StaleIndex, p.StreamDeaths, uint64(len(p.pending))}
			want := [...]uint64{r.Triggers, r.Replayed, r.Resyncs, r.StaleIndex, r.StreamDeaths, uint64(len(r.pending))}
			if got != want || c.hier.Stats() != c.refHier.Stats() {
				t.Fatalf("op %d: counters (triggers, replayed, resyncs, stale, deaths, pending) %v, reference %v;\nhierarchy %+v,\nreference %+v",
					i/3, got, want, c.hier.Stats(), c.refHier.Stats())
			}
			if !slices.Equal(c.fills, c.refFill) {
				t.Fatalf("op %d: prefetched lines %v filled, reference %v", i/3, c.fills, c.refFill)
			}
			c.fills, c.refFill = c.fills[:0], c.refFill[:0]
		}
		for n, c := range live {
			if !slices.Equal(c.p.pending, c.ref.pending) {
				t.Fatalf("copy %d: pending replays %v, reference %v", n, c.p.pending, c.ref.pending)
			}
		}
	})
}
