package btb

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"boomsim/internal/isa"
)

// refBTB is the reference BTB: every way allocated, each carrying its own
// valid bit. BTB tracks occupancy with a per-set fill count instead, and
// FuzzBTBMatchesReference holds it to this model's results.
type refBTB struct {
	ways         []refBTBWay
	assoc        int
	setMask      uint64
	hits, misses uint64
}

type refBTBWay struct {
	entry   Entry
	valid   bool
	lastUse int64
}

func newRefBTB(entries, assoc int) *refBTB {
	nsets := entries / assoc
	if nsets == 0 {
		nsets = 1
	}
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	return &refBTB{ways: make([]refBTBWay, p*assoc), assoc: assoc, setMask: uint64(p - 1)}
}

func (b *refBTB) set(start isa.Addr) []refBTBWay {
	base := int((uint64(start)>>2)&b.setMask) * b.assoc
	return b.ways[base : base+b.assoc]
}

func (b *refBTB) Lookup(start isa.Addr, now int64) (Entry, bool) {
	s := b.set(start)
	for i := range s {
		if s[i].valid && s[i].entry.Start == start {
			s[i].lastUse = now
			b.hits++
			return s[i].entry, true
		}
	}
	b.misses++
	return Entry{}, false
}

func (b *refBTB) Contains(start isa.Addr) bool {
	s := b.set(start)
	for i := range s {
		if s[i].valid && s[i].entry.Start == start {
			return true
		}
	}
	return false
}

func (b *refBTB) Insert(e Entry, now int64) {
	s := b.set(e.Start)
	lru := 0
	for i := range s {
		if s[i].valid && s[i].entry.Start == e.Start {
			if e.Target == 0 && s[i].entry.Target != 0 {
				e.Target = s[i].entry.Target
			}
			s[i].entry = e
			s[i].lastUse = now
			return
		}
		if !s[i].valid {
			s[i] = refBTBWay{entry: e, valid: true, lastUse: now}
			return
		}
		if s[i].lastUse < s[lru].lastUse {
			lru = i
		}
	}
	s[lru] = refBTBWay{entry: e, valid: true, lastUse: now}
}

func (b *refBTB) UpdateTarget(start, target isa.Addr, now int64) {
	s := b.set(start)
	for i := range s {
		if s[i].valid && s[i].entry.Start == start {
			s[i].entry.Target = target
			s[i].lastUse = now
			return
		}
	}
}

func (b *refBTB) Clone() *refBTB {
	n := *b
	n.ways = append([]refBTBWay(nil), b.ways...)
	return &n
}

// refTwoLevel is the reference hierarchical BTB over reference levels: a
// PhantomBTB ring allocated at its full length and a Go-map index.
type refTwoLevel struct {
	cfg     TwoLevelConfig
	l1, l2  *refBTB
	ring    []isa.Addr
	ringPos int
	index   map[isa.Addr]int
	stats   TwoLevelStats
}

func newRefTwoLevel(cfg TwoLevelConfig, l1 *refBTB) *refTwoLevel {
	t := &refTwoLevel{cfg: cfg, l1: l1, l2: newRefBTB(cfg.L2Entries, cfg.L2Assoc)}
	if cfg.Temporal {
		n := max(cfg.L2Entries, 1024)
		t.ring = make([]isa.Addr, n)
		t.index = make(map[isa.Addr]int, n)
	}
	return t
}

func (t *refTwoLevel) Handle(pc isa.Addr, now int64) (Entry, int64, bool) {
	resume := now + t.cfg.L2Latency
	e, ok := t.l2.Lookup(pc, now)
	if !ok {
		t.stats.L2Misses++
		return Entry{}, now, false
	}
	t.stats.L2Hits++
	if t.cfg.Temporal {
		pos, ok := t.index[pc]
		if ok && t.ring[pos] == pc {
			for i := 1; i <= t.cfg.TemporalGroup; i++ {
				start := t.ring[(pos+i)%len(t.ring)]
				if start == 0 {
					break
				}
				if e, ok := t.l2.Lookup(start, now); ok {
					t.l1.Insert(e, now)
					t.stats.Preloaded++
				}
			}
		}
	} else {
		span := isa.Addr(t.cfg.PreloadLines) * isa.BlockBytes
		lo := isa.BlockAddr(pc) - span
		hi := isa.BlockAddr(pc) + span + isa.BlockBytes
		for addr := lo; addr < hi; addr += isa.InstrBytes {
			if addr == pc {
				continue
			}
			if e, ok := t.l2.Lookup(addr, now); ok {
				t.l1.Insert(e, now)
				t.stats.Preloaded++
			}
		}
	}
	return e, resume, true
}

func (t *refTwoLevel) OnBTBFill(e Entry, now int64) {
	t.stats.FillsSeen++
	t.l2.Insert(e, now)
	if !t.cfg.Temporal {
		return
	}
	t.ring[t.ringPos] = e.Start
	t.index[e.Start] = t.ringPos
	t.ringPos++
	if t.ringPos == len(t.ring) {
		t.ringPos = 0
		t.stats.GroupWraps++
	}
}

func (t *refTwoLevel) Clone(l1 *refBTB) *refTwoLevel {
	c := *t
	c.l1 = l1
	c.l2 = t.l2.Clone()
	if t.ring != nil {
		c.ring = append([]isa.Addr(nil), t.ring...)
		c.index = make(map[isa.Addr]int, len(t.index))
		for k, v := range t.index {
			c.index[k] = v
		}
	}
	return &c
}

// sharedSlice reports whether any slice field of the structs a and b point
// to (unexported fields and fields of nested structs included) has the same
// non-empty backing array in both: a clone that copies such a struct by
// value fails it.
func sharedSlice(a, b any) bool {
	return sharedSliceField(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

func sharedSliceField(va, vb reflect.Value) bool {
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Slice:
			if fa.Cap() > 0 && fb.Cap() > 0 && fa.Pointer() == fb.Pointer() {
				return true
			}
		case reflect.Struct:
			if sharedSliceField(fa, fb) {
				return true
			}
		}
	}
	return false
}

// fuzzEntry derives the entry an operation inserts or fills at start.
// Entries whose op has bit 6 set carry no target, so a refresh must keep
// a learned one.
func fuzzEntry(op byte, start isa.Addr) Entry {
	e := Entry{
		Start:  start,
		NInstr: uint16(start>>2)&7 + 1,
		Kind:   isa.BranchKind(int(start>>5) % isa.NumBranchKinds),
	}
	if op&0x40 == 0 {
		e.Target = start + 64*isa.Addr(op&7+1)
	}
	return e
}

// FuzzBTBMatchesReference drives BTB and the reference model with one
// operation stream and requires identical results from every call. The mode
// byte picks the structure under test: bit 0 clear drives a lone BTB (1–256
// entries, associativity 1–16); bit 0 set drives a TwoLevel over a small
// first level, spatial (Bulk Preload) or, with bit 1 set, temporal
// (PhantomBTB) with a second level of 1,025–2,045 entries, so the fill ring
// grows past its first allocation and wraps within one input. Each
// operation is three bytes, op and a 16-bit start index:
//
//   - op&0x3f == 0x3f forks the copy it picks (1 op in 64, so clones are
//     taken mid-stream from filled sets); otherwise op&7 picks the call:
//     a lone BTB gets Lookup (0, 1), Contains (2), UpdateTarget (3) or
//     Insert (4–7), and a TwoLevel gets Handle (0, 1), a first-level
//     Lookup (2), a first-level Insert (3) or OnBTBFill (4–7);
//   - (op>>3)&3 picks which live copy (the original or a clone) it drives;
//   - op&0x80 advances the clock; otherwise the timestamp repeats, so
//     same-cycle LRU ties occur;
//   - op&0x40 inserts or fills an entry with no target.
//
// A fork clones both models and every copy keeps being driven on its own; a
// clone sharing a backing array with its original fails the storage check
// at once, and would diverge from its reference afterwards.
func FuzzBTBMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewPCG(21, 1))
	// seed draws n operations on starts below span; the first solo of them
	// drive the original alone, so the structure fills (and a PhantomBTB
	// ring grows and wraps) before the first fork.
	seed := func(n, solo, span int) []byte {
		ops := make([]byte, 3*n)
		for i := 0; i < n; i++ {
			op := byte(rng.UintN(256))
			if i < solo {
				op &^= 0x18 // copy 0, never a fork
			}
			s := rng.UintN(uint(span))
			ops[3*i], ops[3*i+1], ops[3*i+2] = op, byte(s>>8), byte(s)
		}
		return ops
	}
	for _, g := range []struct {
		mode, assoc, size uint8
		n, solo, span     int
	}{
		{0, 0, 0, 300, 0, 8}, {0, 3, 63, 2000, 500, 100}, {0, 1, 255, 2000, 1000, 400},
		{0, 15, 31, 1000, 0, 48}, {0, 6, 100, 1500, 300, 200},
		{1, 1, 15, 2500, 500, 300}, {3, 3, 15, 6000, 3000, 1500}, {3, 1, 0, 4000, 2500, 600},
		{3, 0, 255, 8000, 5000, 3000}, {3, 2, 100, 8000, 2200, 2000},
	} {
		f.Add(g.mode, g.assoc, g.size, seed(g.n, g.solo, g.span))
	}
	f.Fuzz(func(t *testing.T, mode, assocSeed, sizeSeed uint8, ops []byte) {
		assoc, entries := int(assocSeed%16)+1, int(sizeSeed)+1
		if mode&1 == 0 {
			fuzzBTB(t, entries, assoc, ops)
			return
		}
		cfg := BulkPreloadConfig()
		if mode&2 != 0 {
			cfg = PhantomBTBConfig(30)
		}
		cfg.L2Entries = 1025 + int(sizeSeed)*4
		cfg.L2Assoc = int(assocSeed%8) + 1
		fuzzTwoLevel(t, cfg, min(entries, 64), min(assoc, 4), ops)
	})
}

func fuzzBTB(t *testing.T, entries, assoc int, ops []byte) {
	type copyPair struct {
		b *BTB
		r *refBTB
	}
	live := []copyPair{{New(entries, assoc), newRefBTB(entries, assoc)}}
	if got, want := live[0].b.Entries(), len(live[0].r.ways); got != want {
		t.Fatalf("%d entries/%d-way: Entries() = %d, reference %d", entries, assoc, got, want)
	}
	now := int64(0)
	for i := 0; i+2 < len(ops); i += 3 {
		op := ops[i]
		start := isa.Addr(ops[i+1])<<10 | isa.Addr(ops[i+2])<<2
		if op&0x80 != 0 {
			now++
		}
		p := live[int(op>>3&3)%len(live)]
		if op&0x3f == 0x3f {
			if len(live) < 4 {
				cl := p.b.Clone()
				if sharedSlice(cl, p.b) {
					t.Fatalf("op %d: Clone shares storage with its original", i/3)
				}
				live = append(live, copyPair{cl, p.r.Clone()})
			}
			continue
		}
		switch op & 7 {
		case 0, 1:
			e, ok := p.b.Lookup(start, now)
			re, rok := p.r.Lookup(start, now)
			if e != re || ok != rok {
				t.Fatalf("op %d: Lookup(%#x, %d) = (%+v, %v), reference (%+v, %v)", i/3, start, now, e, ok, re, rok)
			}
		case 2:
			if got, want := p.b.Contains(start), p.r.Contains(start); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i/3, start, got, want)
			}
		case 3:
			target := start + isa.Addr(op)*4
			p.b.UpdateTarget(start, target, now)
			p.r.UpdateTarget(start, target, now)
		default:
			e := fuzzEntry(op, start)
			p.b.Insert(e, now)
			p.r.Insert(e, now)
		}
	}
	for n, p := range live {
		if h, m := p.b.Stats(); h != p.r.hits || m != p.r.misses {
			t.Fatalf("copy %d at end: Stats() = (%d, %d), reference (%d, %d)", n, h, m, p.r.hits, p.r.misses)
		}
		for k := range 1 << 16 {
			start := isa.Addr(k) << 2
			if got, want := p.b.Contains(start), p.r.Contains(start); got != want {
				t.Fatalf("copy %d at end: Contains(%#x) = %v, reference %v", n, start, got, want)
			}
		}
	}
}

func fuzzTwoLevel(t *testing.T, cfg TwoLevelConfig, l1Entries, l1Assoc int, ops []byte) {
	type copyPair struct {
		tl *TwoLevel
		r  *refTwoLevel
	}
	live := []copyPair{{
		NewTwoLevel(cfg, New(l1Entries, l1Assoc)),
		newRefTwoLevel(cfg, newRefBTB(l1Entries, l1Assoc)),
	}}
	now := int64(0)
	for i := 0; i+2 < len(ops); i += 3 {
		op := ops[i]
		start := isa.Addr(ops[i+1])<<10 | isa.Addr(ops[i+2])<<2
		if op&0x80 != 0 {
			now++
		}
		p := live[int(op>>3&3)%len(live)]
		if op&0x3f == 0x3f {
			if len(live) < 4 {
				cl := p.tl.Clone(p.tl.l1.Clone())
				if sharedSlice(cl.l1, p.tl.l1) || sharedSlice(cl.l2, p.tl.l2) || sharedSlice(cl, p.tl) {
					t.Fatalf("op %d: Clone shares storage with its original", i/3)
				}
				live = append(live, copyPair{cl, p.r.Clone(p.r.l1.Clone())})
			}
			continue
		}
		switch op & 7 {
		case 0, 1:
			e, resume, ok := p.tl.Handle(start, now)
			re, rresume, rok := p.r.Handle(start, now)
			if e != re || resume != rresume || ok != rok {
				t.Fatalf("op %d: Handle(%#x, %d) = (%+v, %d, %v), reference (%+v, %d, %v)",
					i/3, start, now, e, resume, ok, re, rresume, rok)
			}
		case 2:
			e, ok := p.tl.l1.Lookup(start, now)
			re, rok := p.r.l1.Lookup(start, now)
			if e != re || ok != rok {
				t.Fatalf("op %d: L1 Lookup(%#x, %d) = (%+v, %v), reference (%+v, %v)", i/3, start, now, e, ok, re, rok)
			}
		case 3:
			e := fuzzEntry(op, start)
			p.tl.l1.Insert(e, now)
			p.r.l1.Insert(e, now)
		default:
			e := fuzzEntry(op, start)
			p.tl.OnBTBFill(e, now)
			p.r.OnBTBFill(e, now)
		}
		if got, want := p.tl.Stats(), p.r.stats; got != want {
			t.Fatalf("op %d: stats %+v, reference %+v", i/3, got, want)
		}
	}
	for n, p := range live {
		for k := range 1 << 16 {
			start := isa.Addr(k) << 2
			if got, want := p.tl.l1.Contains(start), p.r.l1.Contains(start); got != want {
				t.Fatalf("copy %d at end: L1 Contains(%#x) = %v, reference %v", n, start, got, want)
			}
			if got, want := p.tl.l2.Contains(start), p.r.l2.Contains(start); got != want {
				t.Fatalf("copy %d at end: L2 Contains(%#x) = %v, reference %v", n, start, got, want)
			}
		}
	}
}
