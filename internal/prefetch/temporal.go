package prefetch

import (
	"boomsim/internal/cache"
	"boomsim/internal/flatmap"
	"boomsim/internal/isa"
	"boomsim/internal/stats"
)

// TemporalConfig sizes a temporal-streaming instruction prefetcher. It is
// declarative data — the scheme configuration plane serializes it into JSON
// scheme files and wire requests, so the field tags are part of the scheme
// vocabulary.
type TemporalConfig struct {
	// HistoryEntries is the circular instruction-history buffer length in
	// records (32K for PIF/SHIFT per the paper).
	HistoryEntries int `json:"history_entries"`
	// IndexEntries bounds the region -> history-position index (8K).
	IndexEntries int `json:"index_entries"`
	// RegionLines is the spatial-compaction factor: each history record
	// names a region of this many cache lines. PIF records temporal streams
	// of spatial footprints, which is how 32K records cover a multi-MB
	// instruction working set; 1 degenerates to line-granular streaming.
	RegionLines int `json:"region_lines"`
	// Lookahead is how many history records ahead of the stream pointer the
	// prefetcher keeps in flight; it must cover the LLC round trip.
	Lookahead int `json:"lookahead"`
	// MetadataLatency is charged before replay prefetches can issue after a
	// stream (re)start: zero for PIF's core-private metadata, one LLC round
	// trip for SHIFT's LLC-virtualised history (schemes express the latter
	// declaratively via the prefetcher config's metadata_in_llc flag).
	MetadataLatency int64 `json:"metadata_latency,omitempty"`
	// MaxDeviations ends a stream after this many non-matching retire
	// observations that the index cannot re-synchronise.
	MaxDeviations int `json:"max_deviations"`
	// IssueRate caps prefetch lines issued per cycle (stream buffers drain
	// at link bandwidth; bursts spread instead of monopolising the LLC
	// port). 0 means unlimited.
	IssueRate int `json:"issue_rate"`
}

// DefaultPIFConfig matches the paper's PIF sizing (~200KB of private
// metadata: a 32K-record history of spatial footprints plus an index).
func DefaultPIFConfig() TemporalConfig {
	return TemporalConfig{
		HistoryEntries: 32768,
		IndexEntries:   8192,
		RegionLines:    4,
		Lookahead:      8,
		MaxDeviations:  6,
		IssueRate:      4,
	}
}

// DefaultSHIFTConfig matches the paper's SHIFT sizing; metadataLatency must
// be set to the modelled LLC round trip.
func DefaultSHIFTConfig(llcRoundTrip int64) TemporalConfig {
	c := DefaultPIFConfig()
	c.MetadataLatency = llcRoundTrip
	return c
}

// Temporal is a temporal-streaming instruction prefetcher: it records the
// committed fetch stream as a sequence of spatial regions and, on a trigger
// (a demand miss whose region appears in the history), replays the recorded
// stream ahead of the fetch engine. PIF and SHIFT are both instances; they
// differ in where the metadata lives (latency + storage accounting).
//
// Storage follows occupancy, not capacity: the history and the index's FIFO
// allocate only the slots written so far, doubling as they fill (a history
// slot past them reads as 0, like an unwritten slot of a zeroed buffer), and
// the index grows with the regions it holds.
type Temporal struct {
	hier *cache.Hierarchy
	cfg  TemporalConfig

	// history is a ring of cfg.HistoryEntries region numbers; before the
	// first wrap only its written prefix [0, hpos) is allocated.
	history []uint64
	hpos    int // next write position
	filled  bool

	index flatmap.Map // region -> most recent history position
	// indexQ is the FIFO bound on the index: it grows to cfg.IndexEntries
	// regions, then each new region overwrites the oldest, at qHead.
	indexQ     []uint64
	qHead      int
	lastRegion uint64
	haveLast   bool

	lastDemRegion uint64
	haveLastDem   bool

	// Active stream state.
	active     bool
	streamPos  int // history position of the next expected region
	deviations int

	// Delayed issue queue (metadata latency).
	pending []pendingPrefetch

	// Stats.
	Triggers     uint64
	Replayed     uint64
	Resyncs      uint64
	StaleIndex   uint64
	StreamDeaths uint64
}

type pendingPrefetch struct {
	region  uint64
	issueAt int64
}

// NewTemporal builds a temporal-streaming prefetcher.
func NewTemporal(hier *cache.Hierarchy, cfg TemporalConfig) *Temporal {
	if cfg.HistoryEntries < 16 {
		cfg.HistoryEntries = 16
	}
	if cfg.RegionLines < 1 {
		cfg.RegionLines = 1
	}
	if cfg.Lookahead < 1 {
		cfg.Lookahead = 1
	}
	if cfg.MaxDeviations < 1 {
		cfg.MaxDeviations = 1
	}
	return &Temporal{hier: hier, cfg: cfg}
}

// PublishStats registers the streamer's counters under its namespace of the
// per-component statistics registry.
func (t *Temporal) PublishStats(r *stats.Registry) {
	r.SetUint("triggers", t.Triggers)
	r.SetUint("replayed", t.Replayed)
	r.SetUint("resyncs", t.Resyncs)
	r.SetUint("stale_index", t.StaleIndex)
	r.SetUint("stream_deaths", t.StreamDeaths)
	r.SetInt("metadata_latency", t.cfg.MetadataLatency)
	r.SetUint("history_entries", uint64(t.cfg.HistoryEntries))
}

// Name implements frontend.Prefetcher.
func (p *Temporal) Name() string {
	if p.cfg.MetadataLatency > 0 {
		return "shift"
	}
	return "pif"
}

func (p *Temporal) regionOf(line uint64) uint64 {
	return line / uint64(p.cfg.RegionLines)
}

// OnRetire implements frontend.Prefetcher: records the committed stream at
// region granularity (deduplicating consecutive repeats). Recording from
// the retire stream is what exposes PIF to pipeline latency around
// mispredictions (the paper's Section III-A observation); the *replay* side
// advances with the fetch stream (OnDemand), like PIF's stream address
// queue being consumed by the fetch engine.
func (p *Temporal) OnRetire(line uint64, now int64) {
	region := p.regionOf(line)
	if p.haveLast && region == p.lastRegion {
		return
	}
	p.lastRegion = region
	p.haveLast = true
	p.record(region)
}

func (p *Temporal) record(region uint64) {
	if p.hpos < len(p.history) {
		p.history[p.hpos] = region
	} else {
		p.history = appendBounded(p.history, region, p.cfg.HistoryEntries)
	}
	p.setIndex(region, p.hpos)
	p.hpos++
	if p.hpos == p.cfg.HistoryEntries {
		p.hpos = 0
		p.filled = true
	}
}

// setIndex points region at pos. A region the index does not hold joins the
// FIFO — again, if a stale lookup deleted it while it was still queued —
// and a full FIFO first evicts its oldest region from the index. Without a
// positive bound the index grows unbounded and keeps no FIFO.
func (p *Temporal) setIndex(region uint64, pos int) {
	if _, exists := p.index.Get(region); !exists && p.cfg.IndexEntries > 0 {
		if len(p.indexQ) < p.cfg.IndexEntries {
			p.indexQ = appendBounded(p.indexQ, region, p.cfg.IndexEntries)
		} else {
			p.index.Delete(p.indexQ[p.qHead])
			p.indexQ[p.qHead] = region
			if p.qHead++; p.qHead == len(p.indexQ) {
				p.qHead = 0
			}
		}
	}
	p.index.Set(region, int32(pos))
}

// lookup returns the history position of the region, validating against the
// circular buffer (a wrapped history invalidates old index entries).
func (p *Temporal) lookup(region uint64) (int, bool) {
	pos, ok := p.index.Get(region)
	if !ok {
		return 0, false
	}
	if p.history[pos] != region {
		p.StaleIndex++
		p.index.Delete(region)
		return 0, false
	}
	return int(pos), true
}

// OnDemand implements frontend.Prefetcher: the fetch stream consumes the
// replay stream — a demanded region matching the stream window advances the
// stream pointer and extends the in-flight prefetch window; a miss outside
// the stream (re)starts replay from the indexed position.
func (p *Temporal) OnDemand(line uint64, miss bool, class isa.DiscontinuityClass, now int64) {
	region := p.regionOf(line)
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

// advance moves the stream pointer when the retire stream follows the
// recorded history, keeping Lookahead records in flight. On deviation it
// first tries to re-synchronise through the index; only sustained unindexed
// deviation kills the stream.
func (p *Temporal) advance(region uint64, now int64) {
	if !p.active {
		return
	}
	pos := p.streamPos
	for i := 0; i < 8; i++ {
		if p.at(pos) == region {
			p.streamPos = p.next(pos)
			p.deviations = 0
			p.replayAhead(now)
			return
		}
		pos = p.next(pos)
	}
	if ipos, ok := p.lookup(region); ok && ipos != p.prevPos() {
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

// at reads history position pos; a position not yet written (before the
// first wrap the scan can run past hpos) reads as 0.
func (p *Temporal) at(pos int) uint64 {
	if pos < len(p.history) {
		return p.history[pos]
	}
	return 0
}

// prevPos returns the history position written most recently.
func (p *Temporal) prevPos() int {
	if p.hpos == 0 {
		return p.cfg.HistoryEntries - 1
	}
	return p.hpos - 1
}

// replayAhead issues (or schedules) prefetches for the next Lookahead
// records of the recorded stream.
func (p *Temporal) replayAhead(issueAt int64) {
	pos := p.streamPos
	for i := 0; i < p.cfg.Lookahead; i++ {
		if !p.filled && pos >= p.hpos {
			break // recording has not reached this far yet
		}
		p.pending = append(p.pending, pendingPrefetch{region: p.history[pos], issueAt: issueAt})
		pos = p.next(pos)
	}
}

func (p *Temporal) next(pos int) int {
	pos++
	if pos == p.cfg.HistoryEntries {
		return 0
	}
	return pos
}

// Tick implements frontend.Prefetcher: drains the delayed-issue queue at
// the configured issue rate, expanding each region record into its lines.
// A region already fully present costs no issue bandwidth.
func (p *Temporal) Tick(now int64) {
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

// NextEvent implements frontend.Prefetcher: the earliest queued replay's
// issueAt, or cache.NoEvent when the delayed-issue queue is empty. Tick
// drains the queue in order and stops at the first entry still in the
// future, so the head's issueAt is exactly when the next drain happens; a
// head left ready by an exhausted issue budget reports a cycle <= now,
// which keeps the engine ticking per-cycle while issue is backlogged.
func (p *Temporal) NextEvent(int64) int64 {
	if len(p.pending) == 0 {
		return cache.NoEvent
	}
	return p.pending[0].issueAt
}

// StorageKB estimates the dedicated metadata footprint: ~5 bytes per history
// record (region address + footprint bits) plus the index. For SHIFT this
// storage is virtualised into the LLC (the scheme charges LLC capacity
// instead); the number still reports the metadata volume.
func (p *Temporal) StorageKB() int {
	historyB := p.cfg.HistoryEntries * 5
	indexB := p.cfg.IndexEntries * 8
	return (historyB + indexB) / 1024
}

// firstAlloc is the slot count a growing ring allocates on its first write.
const firstAlloc = 1024

// appendBounded appends v to buf, doubling its capacity (from firstAlloc,
// and never past limit) when it is full, so a ring that fills to limit
// allocates a handful of times rather than on every append.
func appendBounded(buf []uint64, v uint64, limit int) []uint64 {
	if len(buf) == cap(buf) {
		grown := make([]uint64, len(buf), min(max(2*cap(buf), firstAlloc), limit))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, v)
}
