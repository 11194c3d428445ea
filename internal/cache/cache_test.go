package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"boomsim/internal/config"
)

func TestGeometry(t *testing.T) {
	c := NewSetAssoc(32, 2) // 32KB, 2-way, 64B lines
	if c.Lines() != 512 {
		t.Fatalf("32KB/64B = 512 lines, got %d", c.Lines())
	}
	if c.Sets() != 256 || c.Ways() != 2 {
		t.Fatalf("expected 256 sets x 2 ways, got %d x %d", c.Sets(), c.Ways())
	}
}

func TestGeometryExactCapacity(t *testing.T) {
	// Non-power-of-two capacities (an LLC with metadata carved out) must be
	// preserved exactly, not rounded down.
	c := NewSetAssoc(8032, 16) // 8MB minus a 160KB carve
	if got := c.Lines() * 64 / 1024; got != 8032 {
		t.Fatalf("capacity %d KB, want 8032", got)
	}
	// Lines mapping to distinct sets must coexist.
	c.Insert(1, 1)
	c.Insert(2, 2)
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("distinct sets interfering")
	}
}

func TestLookupInsert(t *testing.T) {
	c := NewSetAssoc(4, 2)
	if c.Lookup(42, 0) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(42, 1)
	if !c.Lookup(42, 2) {
		t.Fatal("miss after insert")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc(1, 2) // 16 lines, 8 sets x 2 ways
	sets := uint64(c.Sets())
	// Three lines mapping to set 0.
	a, b, d := sets*0, sets*1, sets*2
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.Lookup(a, 3) // a is now MRU
	victim, evicted := c.Insert(d, 4)
	if !evicted || victim != b {
		t.Fatalf("expected b evicted, got %v (evicted=%v)", victim, evicted)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := NewSetAssoc(1, 2)
	sets := uint64(c.Sets())
	a, b, d := sets*0, sets*1, sets*2
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.Insert(a, 3) // refresh, not duplicate
	_, evicted := c.Insert(d, 4)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	if !c.Contains(a) {
		t.Fatal("refreshed line was evicted")
	}
}

func TestContainsNoLRUEffect(t *testing.T) {
	c := NewSetAssoc(1, 2)
	sets := uint64(c.Sets())
	a, b, d := sets*0, sets*1, sets*2
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.Contains(a) // must NOT refresh a
	victim, _ := c.Insert(d, 3)
	if victim != a {
		t.Fatal("Contains perturbed LRU")
	}
}

func TestCachePropertyInsertThenFound(t *testing.T) {
	c := NewSetAssoc(8, 4)
	now := int64(0)
	if err := quick.Check(func(line uint64) bool {
		now++
		c.Insert(line, now)
		return c.Contains(line)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func testCfg() config.Core {
	c := config.Default()
	return c
}

func TestHierarchyDemandMiss(t *testing.T) {
	h := NewHierarchy(testCfg(), 0)
	ready, src := h.Demand(100, 0)
	if src != HitMemory {
		t.Fatalf("cold demand should go to memory, got %v", src)
	}
	want := int64(testCfg().LLCLatency + testCfg().MemLatency)
	if ready != want {
		t.Fatalf("ready = %d, want %d", ready, want)
	}
	// After the fill completes the line is an L1 hit.
	h.Tick(ready)
	r2, src2 := h.Demand(100, ready)
	if src2 != HitL1 || r2 != ready+int64(testCfg().L1ILatency) {
		t.Fatalf("after fill: src=%v ready=%d", src2, r2)
	}
}

func TestHierarchyLLCHitAfterEviction(t *testing.T) {
	cfg := testCfg()
	cfg.L1ISizeKB = 1
	cfg.L1IAssoc = 1
	h := NewHierarchy(cfg, 0)
	// Fill line 0, then evict it by filling conflicting lines.
	r, _ := h.Demand(0, 0)
	h.Tick(r)
	conflict := uint64(16) // 1KB/64B = 16 sets... 16 lines, 16 sets, so line 16 maps to set 0
	r2, _ := h.Demand(conflict, r)
	h.Tick(r2)
	// Line 0 evicted from L1 but still in LLC.
	r3, src := h.Demand(0, r2)
	if src != HitLLC {
		t.Fatalf("expected LLC hit, got %v", src)
	}
	if r3 != r2+int64(cfg.LLCLatency) {
		t.Fatalf("LLC latency wrong: %d", r3-r2)
	}
}

func TestPrefetchThenDemandHitsPFB(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	if !h.Prefetch(5, 0) {
		t.Fatal("prefetch not issued")
	}
	fill := int64(cfg.LLCLatency + cfg.MemLatency)
	h.Tick(fill)
	if !h.Present(5, fill) {
		t.Fatal("line not present after prefetch fill")
	}
	ready, src := h.Demand(5, fill)
	if src != HitPrefetchBuffer {
		t.Fatalf("expected PFB hit, got %v", src)
	}
	if ready != fill+int64(cfg.L1ILatency) {
		t.Fatalf("PFB hit latency wrong")
	}
	// Promotion: now an L1 hit.
	_, src = h.Demand(5, ready)
	if src != HitL1 {
		t.Fatalf("expected L1 hit after promotion, got %v", src)
	}
}

func TestInFlightPrefetchPartialCoverage(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	h.Prefetch(9, 0)
	fill := int64(cfg.LLCLatency + cfg.MemLatency)
	// Demand arrives mid-flight: must wait only the remaining time.
	ready, src := h.Demand(9, fill/2)
	if src != HitInFlight {
		t.Fatalf("expected in-flight merge, got %v", src)
	}
	if ready != fill {
		t.Fatalf("in-flight demand ready=%d, want %d", ready, fill)
	}
	// The merged fill must land in the L1 (demand upgrade).
	h.Tick(fill)
	_, src = h.Demand(9, fill+1)
	if src != HitL1 {
		t.Fatalf("upgraded fill should land in L1, got %v", src)
	}
}

func TestPrefetchDedup(t *testing.T) {
	h := NewHierarchy(testCfg(), 0)
	if !h.Prefetch(3, 0) {
		t.Fatal("first prefetch should issue")
	}
	if h.Prefetch(3, 1) {
		t.Fatal("duplicate prefetch should not issue")
	}
	st := h.Stats()
	if st.Prefetches != 1 {
		t.Fatalf("prefetch count %d, want 1", st.Prefetches)
	}
}

// TestPrefetchOfHeldLineIsANoOp pins what lets the FDIP probe call Prefetch
// without asking Present or InFlight first: for a line in the L1-I, in the
// prefetch buffer (ready or not yet) or behind an MSHR, Prefetch issues
// nothing and changes no counter.
func TestPrefetchOfHeldLineIsANoOp(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	fill := int64(cfg.LLCLatency + cfg.MemLatency)
	h.Demand(1, 0)   // fills the L1-I at fill
	h.Prefetch(2, 0) // lands in the prefetch buffer, ready at fill
	h.Tick(fill)
	h.Prefetch(3, fill) // stays in flight
	if !h.l1.Contains(1) || h.Present(2, fill-1) || !h.Present(2, fill) || !h.InFlight(3) {
		t.Fatal("setup did not reach the L1, buffer and MSHR states")
	}
	for _, c := range []struct {
		state string
		line  Line
		now   int64
	}{
		{"in the L1-I", 1, fill},
		{"in the buffer, ready", 2, fill},
		{"in the buffer, not ready", 2, fill - 1},
		{"in an MSHR", 3, fill},
	} {
		st, mshrs := h.Stats(), h.mshrs.Len()
		if h.Prefetch(c.line, c.now) {
			t.Errorf("Prefetch of a line %s issued a request", c.state)
		}
		if h.Stats() != st || h.mshrs.Len() != mshrs {
			t.Errorf("Prefetch of a line %s changed the stats or the MSHR count", c.state)
		}
	}
}

func TestMSHRExhaustionDropsPrefetches(t *testing.T) {
	cfg := testCfg()
	cfg.MSHREntries = 2
	h := NewHierarchy(cfg, 0)
	h.Prefetch(1, 0)
	h.Prefetch(2, 0)
	if h.Prefetch(3, 0) {
		t.Fatal("prefetch should be dropped when MSHRs are full")
	}
	if h.Stats().PrefetchDropped != 1 {
		t.Fatal("dropped prefetch not counted")
	}
}

func TestPFBFIFOEviction(t *testing.T) {
	cfg := testCfg()
	cfg.PrefetchBufEntries = 2
	h := NewHierarchy(cfg, 0)
	fill := int64(cfg.LLCLatency + cfg.MemLatency)
	h.Prefetch(1, 0)
	h.Prefetch(2, 0)
	h.Prefetch(3, 0)
	// Port serialisation staggers the fills; tick past the last one.
	fill += 3 * int64(cfg.LLCPortOccupancy)
	h.Tick(fill)
	// All three fills completed into a 2-entry FIFO: line 1 (oldest) evicted.
	if h.Present(1, fill) {
		t.Fatal("oldest PFB entry should have been evicted")
	}
	if !h.Present(2, fill) || !h.Present(3, fill) {
		t.Fatal("younger PFB entries missing")
	}
	if h.Stats().PFBEvictions != 1 {
		t.Fatal("PFB eviction not counted")
	}
}

func TestLLCReservationShrinksLLC(t *testing.T) {
	full := NewHierarchy(testCfg(), 0)
	carved := NewHierarchy(testCfg(), 4096)
	if carved.llc.Lines() >= full.llc.Lines() {
		t.Fatal("reservation did not shrink LLC")
	}
}

// TestLLCStorageTracksOccupancy pins the tag store's memory bound: an LLC
// preloaded with an image that leaves one line in every set holds one slot
// per set, and one whose image fills sets 10 lines deep holds the 16-slot
// chunks those sets need. The preload sizes the pool once, so neither
// leaves append slack. Every warm master and fork carries this array, so it
// sets their size.
func TestLLCStorageTracksOccupancy(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lines    int
		min, max float64 // pool capacity per set
	}{
		{"512KB image", 8192, 1, 1.05},
		{"5MB image", 81920, 16, 16},
	} {
		h := NewHierarchy(config.Default(), 0)
		img := make([]Line, tc.lines)
		for i := range img {
			img[i] = Line(i)
		}
		h.WarmLLC(img)
		if got := float64(cap(h.llc.sets.pool)) / float64(h.llc.Sets()); got < tc.min || got > tc.max {
			t.Errorf("%s: LLC pool holds %.3f slots per set, want %g to %g", tc.name, got, tc.min, tc.max)
		}
		if h.llc.Lines() != config.Default().LLCSizeKB*1024/64 {
			t.Errorf("%s: Lines() = %d, want the configured capacity", tc.name, h.llc.Lines())
		}
		for _, l := range []Line{0, Line(tc.lines - 1)} {
			if !h.llc.Contains(l) {
				t.Errorf("%s: warmed line %d missing", tc.name, l)
			}
		}
	}
}

// TestSetsChunkLayout pins the chunk policy the memory bounds rest on: a
// set's chunk is the power of two at or above its fill, capped at the
// associativity; a full chunk that ends the pool grows in place, any other
// moves to the pool's end and leaves a hole; and Clone drops the holes.
func TestSetsChunkLayout(t *testing.T) {
	s := NewSets[int](4, 6)
	s.Append(0, 10)
	s.Append(0, 11) // set 0 ends the pool: grows in place to 2 slots
	s.Append(1, 20) // set 1's chunk follows it
	s.Append(0, 12) // set 0 is full and no longer last: moves, 4 slots
	if len(s.pool) != 7 || s.holes != 2 || s.off[0] != 3 {
		t.Fatalf("after a move: pool %d slots, %d in holes, set 0 at %d; want 7, 2, 3", len(s.pool), s.holes, s.off[0])
	}
	s.Append(0, 13)
	s.Append(0, 14) // set 0 ends the pool again: grows in place to 6, the associativity
	if len(s.pool) != 9 || s.holes != 2 {
		t.Fatalf("after growing in place: pool %d slots, %d in holes; want 9, 2", len(s.pool), s.holes)
	}
	c := s.Clone()
	if len(c.pool) != 7 || cap(c.pool) != 7 || c.holes != 0 || c.off[1] != 6 {
		t.Fatalf("clone: pool %d slots (cap %d), %d in holes, set 1 at %d; want 7, 7, 0, 6",
			len(c.pool), cap(c.pool), c.holes, c.off[1])
	}
	for _, cp := range []Sets[int]{c, c.Clone()} {
		for i := range s.Len() {
			if got, want := cp.Set(i), s.Set(i); !slices.Equal(got, want) {
				t.Fatalf("clone's set %d holds %v, want %v", i, got, want)
			}
		}
	}
}

func TestWarmLLC(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	h.WarmLLC([]Line{77})
	_, src := h.Demand(77, 0)
	if src != HitLLC {
		t.Fatalf("warmed line should be an LLC hit, got %v", src)
	}
}

func TestDemandNotReadyBeforeL1Latency(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	h.Prefetch(4, 0)
	fill := int64(cfg.LLCLatency + cfg.MemLatency)
	// Demand arriving just before completion still pays at least L1 latency.
	ready, _ := h.Demand(4, fill-1)
	if ready < fill-1+int64(cfg.L1ILatency) && ready != fill {
		t.Fatalf("ready=%d violates latency floor", ready)
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{HitL1, HitPrefetchBuffer, HitInFlight, HitLLC, HitMemory} {
		if l.String() == "?" {
			t.Fatalf("missing name for level %d", l)
		}
	}
}

func BenchmarkDemandHit(b *testing.B) {
	h := NewHierarchy(testCfg(), 0)
	r, _ := h.Demand(1, 0)
	h.Tick(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Demand(1, r)
	}
}

func BenchmarkPrefetchProbe(b *testing.B) {
	h := NewHierarchy(testCfg(), 0)
	for i := 0; i < b.N; i++ {
		h.Present(uint64(i%512), int64(i))
	}
}

func TestFetchChargesAndReturnsTime(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	// Cold: goes to memory.
	r1 := h.Fetch(11, 0)
	if r1 < int64(cfg.LLCLatency) {
		t.Fatalf("cold Fetch ready=%d too fast", r1)
	}
	// Repeat while in flight: same completion time.
	if r2 := h.Fetch(11, 5); r2 != r1 {
		t.Fatalf("in-flight Fetch returned %d, want %d", r2, r1)
	}
	// After the fill lands in the prefetch buffer, Fetch reports it.
	h.Tick(r1)
	r3 := h.Fetch(11, r1)
	if r3 > r1+int64(cfg.L1ILatency) {
		t.Fatalf("present line Fetch ready=%d", r3)
	}
}

func TestFetchBypassesMSHRCap(t *testing.T) {
	cfg := testCfg()
	cfg.MSHREntries = 1
	h := NewHierarchy(cfg, 0)
	h.Prefetch(1, 0) // occupies the only MSHR
	if h.Prefetch(2, 0) {
		t.Fatal("prefetch should be capped")
	}
	// A BTB miss probe must still go through (demand priority).
	if r := h.Fetch(3, 0); r <= 0 {
		t.Fatal("Fetch blocked by MSHR cap")
	}
	if !h.InFlight(3) {
		t.Fatal("Fetch did not allocate a fill")
	}
}

func TestDemandPriorityOverPrefetchPort(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg, 0)
	// Saturate the prefetch port with a burst.
	for i := uint64(0); i < 8; i++ {
		h.Prefetch(100+i, 0)
	}
	// A demand at the same cycle must not queue behind the burst.
	ready, _ := h.Demand(500, 0)
	want := int64(cfg.LLCLatency + cfg.MemLatency)
	if ready != want {
		t.Fatalf("demand delayed by prefetch port: ready=%d want=%d", ready, want)
	}
	// The prefetch burst itself, though, is staggered by the port: read the
	// in-flight completion times back through Fetch (which reports the
	// existing MSHR's ready time).
	pFirst := h.Fetch(100, 1)
	pLast := h.Fetch(107, 1)
	if pLast <= pFirst {
		t.Fatalf("prefetch port serialisation missing: first=%d last=%d", pFirst, pLast)
	}
	if pLast-pFirst < 7*int64(cfg.LLCPortOccupancy) {
		t.Fatalf("stagger %d below 7 port slots", pLast-pFirst)
	}
}

// TestHierarchyNextEventBoundsFills pins the event-horizon contract: the
// hierarchy's only spontaneous activity is fill completion, and NextEvent
// reports the earliest pending one (NoEvent when nothing is in flight), so
// the engine may fast-forward to it knowing every earlier Tick is a no-op.
func TestHierarchyNextEventBoundsFills(t *testing.T) {
	h := NewHierarchy(testCfg(), 0)
	if h.NextEvent() != NoEvent {
		t.Fatal("idle hierarchy must report NoEvent")
	}
	ready, _ := h.Demand(100, 0)
	if ev := h.NextEvent(); ev != ready {
		t.Fatalf("next event = %d, want the demand fill's readyAt %d", ev, ready)
	}
	// A second, later fill must not move the horizon earlier.
	ready2, _ := h.Demand(200, 5)
	if ready2 <= ready {
		t.Fatalf("test setup: second fill %d should land after the first %d", ready2, ready)
	}
	if ev := h.NextEvent(); ev != ready {
		t.Fatalf("next event = %d, want the earliest fill %d", ev, ready)
	}
	h.Tick(ready)
	if ev := h.NextEvent(); ev != ready2 {
		t.Fatalf("after first fill: next event = %d, want %d", ev, ready2)
	}
	h.Tick(ready2)
	if h.NextEvent() != NoEvent {
		t.Fatal("drained hierarchy must report NoEvent")
	}
}
