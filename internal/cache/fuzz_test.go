package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"boomsim/internal/isa"
)

// refSetAssoc is the reference SetAssoc: every set allocated at full
// associativity, each way carrying its own valid bit, indexed by plain
// modulo. SetAssoc stores only its occupied ways, and
// FuzzSetAssocMatchesReference holds it to this model's results.
type refSetAssoc struct {
	ways  []refWay
	assoc int
	nsets uint64
}

type refWay struct {
	tag     uint64
	valid   bool
	lastUse int64
}

func newRefSetAssoc(sizeKB, assoc int) *refSetAssoc {
	nsets := sizeKB * 1024 / isa.BlockBytes / assoc
	if nsets == 0 {
		nsets = 1
	}
	return &refSetAssoc{ways: make([]refWay, nsets*assoc), assoc: assoc, nsets: uint64(nsets)}
}

func (c *refSetAssoc) set(line Line) []refWay {
	base := int(line%c.nsets) * c.assoc
	return c.ways[base : base+c.assoc]
}

func (c *refSetAssoc) Lookup(line Line, now int64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].tag == line {
			s[i].lastUse = now
			return true
		}
	}
	return false
}

func (c *refSetAssoc) Contains(line Line) bool {
	s := c.set(line)
	for i := range s {
		if s[i].valid && s[i].tag == line {
			return true
		}
	}
	return false
}

func (c *refSetAssoc) Insert(line Line, now int64) (victim Line, evicted bool) {
	s := c.set(line)
	lru := 0
	for i := range s {
		if s[i].valid && s[i].tag == line {
			s[i].lastUse = now
			return 0, false
		}
		if !s[i].valid {
			s[i] = refWay{tag: line, valid: true, lastUse: now}
			return 0, false
		}
		if s[i].lastUse < s[lru].lastUse {
			lru = i
		}
	}
	victim = s[lru].tag
	s[lru] = refWay{tag: line, valid: true, lastUse: now}
	return victim, true
}

func (c *refSetAssoc) Clone() *refSetAssoc {
	n := *c
	n.ways = append([]refWay(nil), c.ways...)
	return &n
}

// sharesArray reports whether a and b have the same non-empty backing
// array. A slice with no capacity has no array to share (a clone taken
// before the first insert has an empty pool).
func sharesArray[E any](a, b []E) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// requireSameWays fails unless every set of c holds exactly the reference
// set's valid ways, in way order, with the same LRU stamps. The
// reference's valid ways are a prefix of its set too: it fills the first
// invalid way and never invalidates one.
func requireSameWays(t *testing.T, what string, c *SetAssoc, r *refSetAssoc) {
	t.Helper()
	for i := range c.Sets() {
		got, want := c.sets.Set(i), r.ways[i*r.assoc:(i+1)*r.assoc]
		for w := range want {
			if (w < len(got)) != want[w].valid ||
				w < len(got) && (got[w].tag != want[w].tag || got[w].lastUse != want[w].lastUse) {
				t.Fatalf("%s: set %d holds %+v, reference %+v", what, i, got, want)
			}
		}
	}
}

// FuzzSetAssocMatchesReference drives SetAssoc and the reference model with
// one operation stream and requires identical results from every Lookup,
// Contains and Insert. Geometry: associativity 1–16 over 1–8 KB, which
// yields both power-of-two and non-power-of-two set counts. Each operation
// is two bytes, op and line:
//
//   - op == 0x7e preloads (1 op in 256): the line bytes of the next
//     line+1 operations, which it consumes, go through Preload, while the
//     reference inserts the same lines in order at cycle 0; every set must
//     then hold the reference's ways in the same order;
//   - op&0x7f == 0x7f forks the copy it picks (1 op in 128, so clones are
//     taken mid-sequence from filled sets); otherwise op&3 picks Lookup,
//     Contains or (2 and 3) Insert;
//   - (op>>2)&3 picks which live copy (the original or a clone) it drives;
//   - op&0x80 advances the clock; otherwise the timestamp repeats, so
//     same-cycle LRU ties occur;
//   - 256 lines are at least twice the largest capacity, so sets fill and
//     evict.
//
// A fork clones both models and every copy keeps being driven on its own; a
// clone sharing its pool, offsets or fills with its original fails the
// storage check at once, and would diverge from its reference afterwards.
func FuzzSetAssocMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewPCG(13, 1))
	for n, g := range [][2]uint8{{1, 1}, {2, 4}, {3, 1}, {4, 8}, {16, 1}, {5, 7}, {8, 2}, {15, 8}} {
		ops := make([]byte, 1000)
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		// Half the seeds open with a preload of 128 or 256 lines into the
		// empty cache, as the LLC warm-up does.
		if n%2 == 0 {
			ops[0], ops[1] = 0x7e, byte(127+128*(n/2%2))
		}
		f.Add(g[0]-1, g[1]-1, ops)
	}
	f.Fuzz(func(t *testing.T, assocSeed, sizeSeed uint8, ops []byte) {
		assoc, sizeKB := int(assocSeed%16)+1, int(sizeSeed%8)+1
		type copyPair struct {
			c *SetAssoc
			r *refSetAssoc
		}
		live := []copyPair{{NewSetAssoc(sizeKB, assoc), newRefSetAssoc(sizeKB, assoc)}}
		if c, r := live[0].c, live[0].r; c.Sets() != int(r.nsets) || c.Lines() != len(r.ways) || c.Ways() != assoc {
			t.Fatalf("geometry %dKB/%d-way: %d sets x %d ways (%d lines), reference %d sets x %d ways",
				sizeKB, assoc, c.Sets(), c.Ways(), c.Lines(), r.nsets, r.assoc)
		}
		now := int64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, line := ops[i], Line(ops[i+1])
			if op&0x80 != 0 {
				now++
			}
			p := live[int(op>>2&3)%len(live)]
			if op == 0x7e {
				var run []Line
				for n := 0; n <= int(line) && i+3 < len(ops); n++ {
					i += 2
					run = append(run, Line(ops[i+1]))
				}
				p.c.Preload(run)
				for _, l := range run {
					p.r.Insert(l, 0)
				}
				requireSameWays(t, fmt.Sprintf("op %d: Preload(%v)", i/2, run), p.c, p.r)
				continue
			}
			if op&0x7f == 0x7f {
				if len(live) < 4 {
					cl := p.c.Clone()
					if sharesArray(cl.sets.pool, p.c.sets.pool) || sharesArray(cl.sets.off, p.c.sets.off) ||
						sharesArray(cl.sets.fill, p.c.sets.fill) {
						t.Fatalf("op %d: Clone shares storage with its original", i/2)
					}
					live = append(live, copyPair{cl, p.r.Clone()})
				}
				continue
			}
			switch op & 3 {
			case 0:
				if got, want := p.c.Lookup(line, now), p.r.Lookup(line, now); got != want {
					t.Fatalf("op %d: Lookup(%d, %d) = %v, reference %v", i/2, line, now, got, want)
				}
			case 1:
				if got, want := p.c.Contains(line), p.r.Contains(line); got != want {
					t.Fatalf("op %d: Contains(%d) = %v, reference %v", i/2, line, got, want)
				}
			default:
				v, ev := p.c.Insert(line, now)
				rv, rev := p.r.Insert(line, now)
				if v != rv || ev != rev {
					t.Fatalf("op %d: Insert(%d, %d) = (%d, %v), reference (%d, %v)", i/2, line, now, v, ev, rv, rev)
				}
			}
		}
		for n, p := range live {
			for line := Line(0); line < 256; line++ {
				if got, want := p.c.Contains(line), p.r.Contains(line); got != want {
					t.Fatalf("copy %d at end: Contains(%d) = %v, reference %v", n, line, got, want)
				}
			}
			requireSameWays(t, fmt.Sprintf("copy %d at end", n), p.c, p.r)
		}
	})
}
