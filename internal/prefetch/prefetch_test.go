package prefetch

import (
	"testing"

	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/isa"
)

func hier() *cache.Hierarchy {
	return cache.NewHierarchy(config.Default(), 0)
}

// fill returns a time by which a small burst of prefetches issued "now" has
// certainly completed: the memory round trip plus slack for LLC port
// serialisation across the burst.
func fill(h *cache.Hierarchy) int64 {
	c := config.Default()
	return int64(c.LLCLatency + c.MemLatency + 32*c.LLCPortOccupancy)
}

func TestNextLinePrefetchesFollowers(t *testing.T) {
	h := hier()
	p := NewNextLine(h, 2)
	p.OnDemand(100, true, isa.Sequential, 0)
	t1 := fill(h)
	h.Tick(t1)
	if !h.Present(101, t1) || !h.Present(102, t1) {
		t.Fatal("next-2-line did not prefetch the following lines")
	}
	if h.Present(103, t1) {
		t.Fatal("next-2-line prefetched too far")
	}
}

func TestNextLineClampsDegree(t *testing.T) {
	p := NewNextLine(hier(), 0)
	if p.n != 1 {
		t.Fatal("degree must clamp to >= 1")
	}
}

func TestDIPLearnsDiscontinuity(t *testing.T) {
	h := hier()
	p := NewDIP(h, 8192)
	// Training pass: access 10 then jump to 500 (a miss).
	p.OnDemand(10, true, isa.Sequential, 0)
	p.OnDemand(500, true, isa.Unconditional, 1)
	if p.Trained != 1 {
		t.Fatalf("trained %d entries, want 1", p.Trained)
	}
	// Trigger pass: re-access 10 -> target 500 (and 501) prefetched.
	p.OnDemand(10, false, isa.Sequential, 2)
	if p.Triggered != 1 {
		t.Fatalf("triggered %d, want 1", p.Triggered)
	}
	t1 := fill(h) + 2
	h.Tick(t1)
	if !h.Present(500, t1) || !h.Present(501, t1) {
		t.Fatal("DIP did not prefetch the discontinuity target")
	}
}

func TestDIPIgnoresSequentialAndHits(t *testing.T) {
	h := hier()
	p := NewDIP(h, 1024)
	p.OnDemand(10, true, isa.Sequential, 0)
	p.OnDemand(11, true, isa.Sequential, 1) // sequential: not a discontinuity
	if p.Trained != 0 {
		t.Fatal("DIP trained on a sequential transition")
	}
	p.OnDemand(600, false, isa.Unconditional, 2) // discontinuity but a hit
	if p.Trained != 0 {
		t.Fatal("DIP trained on a non-miss discontinuity")
	}
}

func TestDIPTableCollision(t *testing.T) {
	h := hier()
	p := NewDIP(h, 16)
	// Two triggers mapping to the same slot: the later wins, the earlier no
	// longer triggers.
	a, b := uint64(5), uint64(5+16)
	p.OnDemand(a, true, isa.Sequential, 0)
	p.OnDemand(900, true, isa.Unconditional, 1)
	p.OnDemand(b, true, isa.Sequential, 2)
	p.OnDemand(950, true, isa.Unconditional, 3)
	p.OnDemand(a, false, isa.Sequential, 4)
	if p.Triggered != 0 {
		t.Fatal("evicted DIP entry still triggered")
	}
	p.OnDemand(b, false, isa.Sequential, 5)
	if p.Triggered != 1 {
		t.Fatal("surviving DIP entry did not trigger")
	}
}

// lineCfg returns a line-granular (RegionLines=1) config with unlimited
// issue rate so the classic stream tests exercise mechanics, not pacing.
func lineCfg() TemporalConfig {
	c := DefaultPIFConfig()
	c.RegionLines = 1
	c.IssueRate = 0
	return c
}

func retireSeq(p *Temporal, lines []uint64, start int64) int64 {
	now := start
	for _, l := range lines {
		p.OnRetire(l, now)
		p.Tick(now)
		now++
	}
	return now
}

func TestTemporalRecordsAndReplays(t *testing.T) {
	h := hier()
	cfg := lineCfg()
	cfg.Lookahead = 4
	p := NewTemporal(h, cfg)
	stream := []uint64{100, 101, 205, 206, 310, 311, 400}
	now := retireSeq(p, stream, 0)

	// Trigger: demand miss on the stream head replays successors.
	p.OnDemand(100, true, isa.Sequential, now)
	p.Tick(now)
	if p.Triggers != 1 {
		t.Fatalf("triggers = %d", p.Triggers)
	}
	end := now + fill(h)
	h.Tick(end)
	for _, l := range []uint64{101, 205, 206, 310} {
		if !h.Present(l, end) {
			t.Fatalf("replayed line %d not prefetched", l)
		}
	}
}

func demandSeq(p *Temporal, lines []uint64, start int64) int64 {
	now := start
	for _, l := range lines {
		p.OnDemand(l, false, isa.Sequential, now)
		p.Tick(now)
		now++
	}
	return now
}

func TestTemporalAdvancesWithFetchStream(t *testing.T) {
	// The replay stream is consumed by the fetch engine (PIF's stream
	// address queue): demand accesses matching the recorded stream advance
	// it and keep the lookahead window in flight.
	h := hier()
	cfg := lineCfg()
	cfg.Lookahead = 2
	p := NewTemporal(h, cfg)
	stream := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	now := retireSeq(p, stream, 0)

	p.OnDemand(10, true, isa.Sequential, now)
	p.Tick(now)
	// Follow the stream with demand accesses; the prefetcher must extend.
	now = demandSeq(p, []uint64{20, 30, 40, 50, 60}, now+1)
	end := now + fill(h)
	h.Tick(end)
	if !h.Present(70, end) {
		t.Fatal("stream did not advance with the fetch stream")
	}
	if p.StreamDeaths != 0 {
		t.Fatal("stream died while being followed")
	}
}

func TestTemporalStreamDiesOnDeviation(t *testing.T) {
	h := hier()
	cfg := lineCfg()
	cfg.MaxDeviations = 2
	p := NewTemporal(h, cfg)
	now := retireSeq(p, []uint64{10, 20, 30, 40, 50}, 0)
	p.OnDemand(10, true, isa.Sequential, now)
	// Demand a completely different, unrecorded stream.
	demandSeq(p, []uint64{900, 910, 920, 930, 940, 950}, now+1)
	if p.StreamDeaths == 0 {
		t.Fatal("deviating stream was never killed")
	}
}

func TestTemporalResyncViaIndex(t *testing.T) {
	// A deviation onto a line the history knows from elsewhere re-syncs the
	// stream instead of killing it.
	h := hier()
	cfg := lineCfg()
	cfg.Lookahead = 2
	p := NewTemporal(h, cfg)
	now := retireSeq(p, []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
		110, 500, 510, 520, 530}, 0)
	p.OnDemand(10, true, isa.Sequential, now)
	p.Tick(now)
	// Jump straight to 500 — beyond the stream window, but present in the
	// history with successors.
	demandSeq(p, []uint64{500, 510}, now+1)
	if p.Resyncs == 0 {
		t.Fatal("index re-sync never happened")
	}
	if p.StreamDeaths != 0 {
		t.Fatal("stream died despite a known continuation")
	}
}

func TestTemporalStaleIndexDetected(t *testing.T) {
	h := hier()
	cfg := lineCfg()
	cfg.HistoryEntries = 16
	p := NewTemporal(h, cfg)
	// Record a line, then wrap the history so its record is overwritten.
	p.OnRetire(999, 0)
	for i := uint64(0); i < 20; i++ {
		p.OnRetire(i, int64(i+1))
	}
	p.OnDemand(999, true, isa.Sequential, 100)
	if p.StaleIndex == 0 {
		t.Fatal("stale index entry not detected")
	}
	if p.Triggers != 0 {
		t.Fatal("stale index entry triggered a replay")
	}
}

func TestTemporalIssuePacing(t *testing.T) {
	// With IssueRate=2, a replay burst drains over multiple cycles instead
	// of monopolising the LLC port in one.
	h := hier()
	cfg := DefaultPIFConfig()
	cfg.RegionLines = 1
	cfg.Lookahead = 8
	cfg.IssueRate = 2
	p := NewTemporal(h, cfg)
	now := retireSeq(p, []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0)
	p.OnDemand(10, true, isa.Sequential, now)
	p.Tick(now)
	first := h.Stats().Prefetches
	if first > 2 {
		t.Fatalf("issued %d prefetches in one cycle, cap is 2", first)
	}
	for i := int64(1); i <= 8; i++ {
		p.Tick(now + i)
	}
	if total := h.Stats().Prefetches; total < 6 {
		t.Fatalf("burst never drained: %d prefetches", total)
	}
}

func TestTemporalRegionExpansion(t *testing.T) {
	// With RegionLines=4, replaying one record prefetches the whole region.
	h := hier()
	cfg := DefaultPIFConfig()
	cfg.RegionLines = 4
	cfg.Lookahead = 2
	cfg.IssueRate = 0
	p := NewTemporal(h, cfg)
	// Two regions: lines 0-3 (region 0) and lines 40-43 (region 10).
	now := retireSeq(p, []uint64{0, 40, 80}, 0)
	p.OnDemand(1, true, isa.Sequential, now) // miss in region 0
	p.Tick(now)
	end := now + fill(h)
	h.Tick(end)
	for l := uint64(40); l < 44; l++ {
		if !h.Present(l, end) {
			t.Fatalf("region replay missed line %d", l)
		}
	}
}

func TestSHIFTDelaysReplay(t *testing.T) {
	h := hier()
	llcRT := int64(config.Default().LLCLatency)
	shiftCfg := DefaultSHIFTConfig(llcRT)
	shiftCfg.RegionLines = 1
	p := NewTemporal(h, shiftCfg)
	if p.Name() != "shift" {
		t.Fatal("SHIFT config should name itself shift")
	}
	now := retireSeq(p, []uint64{10, 20, 30, 40}, 0)
	p.OnDemand(10, true, isa.Sequential, now)
	p.Tick(now)
	if p.Replayed != 0 {
		t.Fatal("SHIFT issued replay prefetches before the metadata arrived")
	}
	p.Tick(now + llcRT)
	if p.Replayed == 0 {
		t.Fatal("SHIFT never issued replay prefetches after metadata latency")
	}
}

func TestPIFIssuesImmediately(t *testing.T) {
	h := hier()
	p := NewTemporal(h, lineCfg())
	if p.Name() != "pif" {
		t.Fatal("PIF config should name itself pif")
	}
	now := retireSeq(p, []uint64{10, 20, 30, 40}, 0)
	p.OnDemand(10, true, isa.Sequential, now)
	p.Tick(now)
	if p.Replayed == 0 {
		t.Fatal("PIF replay should issue without metadata latency")
	}
}

func TestTemporalIndexBound(t *testing.T) {
	h := hier()
	cfg := lineCfg()
	cfg.IndexEntries = 8
	p := NewTemporal(h, cfg)
	for i := uint64(0); i < 100; i++ {
		p.OnRetire(i*3, int64(i))
	}
	if p.index.Len() > 8 {
		t.Fatalf("index grew to %d entries, bound is 8", p.index.Len())
	}
}

func TestTemporalDedupsConsecutiveRetires(t *testing.T) {
	p := NewTemporal(hier(), lineCfg())
	p.OnRetire(5, 0)
	p.OnRetire(5, 1)
	p.OnRetire(5, 2)
	if p.hpos != 1 {
		t.Fatalf("history recorded %d entries for one line", p.hpos)
	}
}

func TestTemporalHistoryWraps(t *testing.T) {
	h := hier()
	cfg := lineCfg()
	cfg.HistoryEntries = 16
	p := NewTemporal(h, cfg)
	for i := uint64(0); i < 40; i++ {
		p.OnRetire(i, int64(i))
	}
	if !p.filled {
		t.Fatal("history should have wrapped")
	}
	// The index for recent lines must point at valid positions.
	pos, ok := p.index.Get(39)
	if !ok || p.history[pos] != 39 {
		t.Fatal("index inconsistent after wrap")
	}
}

func TestTemporalStorageEstimate(t *testing.T) {
	p := NewTemporal(hier(), DefaultPIFConfig())
	kb := p.StorageKB()
	if kb < 150 || kb > 300 {
		t.Fatalf("PIF metadata estimate %d KB, expected ~200 KB", kb)
	}
}

func BenchmarkTemporalRetire(b *testing.B) {
	p := NewTemporal(hier(), DefaultPIFConfig())
	for i := 0; i < b.N; i++ {
		p.OnRetire(uint64(i%4096)*7, int64(i))
	}
}

// TestNextEventContracts pins each prefetcher's event-horizon contract.
// NextLine and DIP act only synchronously inside OnDemand, so they never
// schedule future work; Temporal's delayed-replay queue makes its head's
// issueAt the earliest cycle its Tick can do anything.
func TestNextEventContracts(t *testing.T) {
	h := hier()
	if ev := NewNextLine(h, 2).NextEvent(0); ev != cache.NoEvent {
		t.Fatalf("NextLine.NextEvent = %d, want NoEvent", ev)
	}
	if ev := NewDIP(h, 64).NextEvent(0); ev != cache.NoEvent {
		t.Fatalf("DIP.NextEvent = %d, want NoEvent", ev)
	}

	cfg := lineCfg()
	cfg.Lookahead = 4
	cfg.MetadataLatency = 12
	p := NewTemporal(h, cfg)
	if ev := p.NextEvent(0); ev != cache.NoEvent {
		t.Fatalf("idle Temporal.NextEvent = %d, want NoEvent", ev)
	}
	stream := []uint64{100, 101, 205, 206, 310}
	now := retireSeq(p, stream, 0)

	// A stream-head miss schedules the replay after the metadata round
	// trip: the queue head's issueAt is the next event, and it is exactly
	// when Tick first issues.
	p.OnDemand(100, true, isa.Sequential, now)
	ev := p.NextEvent(now)
	if ev == cache.NoEvent {
		t.Fatal("pending replay must schedule a next event")
	}
	if ev <= now {
		t.Fatalf("replay issueAt %d must be after the trigger at %d (metadata latency)", ev, now)
	}
	p.Tick(ev - 1)
	if got := p.NextEvent(ev - 1); got != ev {
		t.Fatalf("ticking before issueAt must not drain the queue (next event %d, want %d)", got, ev)
	}
	p.Tick(ev)
	if got := p.NextEvent(ev); got != cache.NoEvent {
		t.Fatalf("after the issue cycle the queue must be empty, got %d", got)
	}
}
