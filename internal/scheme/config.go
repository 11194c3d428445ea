package scheme

import (
	"fmt"
	"math"

	"boomsim/internal/btb"
	"boomsim/internal/core"
	"boomsim/internal/prefetch"
)

// Config is the complete, declarative description of a control-flow-delivery
// scheme: every knob the generic builder (Config.Build) interprets, and
// nothing else. A Config is plain serializable data — no closures, no
// component handles — so schemes round-trip through JSON, travel over the
// wire to boomsimd workers, and can be authored by users without touching
// this package. The built-in schemes (Base .. Boomerang, the limit studies,
// the hierarchical-BTB alternatives) are all expressed as Config values; see
// the constructors in scheme.go.
//
// Two Configs that marshal to the same JSON build microarchitecturally
// identical instances: Build is a pure function of (Config, Env).
type Config struct {
	// Name identifies the scheme in results, registries and the paper's
	// figures. Required.
	Name string `json:"name"`
	// Description summarises the mechanism.
	Description string `json:"description,omitempty"`
	// StorageOverheadKB is the per-core metadata cost beyond the baseline
	// front end — the paper's Section VI-D accounting, the axis of its
	// headline comparison. It is declarative bookkeeping, not a model input.
	StorageOverheadKB float64 `json:"storage_overhead_kb,omitempty"`

	// FTQDepth sets the fetch target queue depth: 0 uses the core
	// configuration's full decoupled depth (Table I: 32), non-decoupled
	// schemes use a shallow queue (the built-ins use 4).
	FTQDepth int `json:"ftq_depth,omitempty"`
	// FDIPProbes enables the FTQ-directed prefetch engine (FDIP and every
	// scheme layered on it).
	FDIPProbes bool `json:"fdip_probes,omitempty"`
	// PerfectL1 makes every demand fetch an L1-I hit (the Figure 1 limit
	// studies).
	PerfectL1 bool `json:"perfect_l1,omitempty"`
	// Predictor selects the direction predictor ("tage", "bimodal",
	// "never-taken"); empty defers to the run's Env, then TAGE. A non-empty
	// Env.Predictor always wins, so predictor sweeps work on any scheme.
	Predictor string `json:"predictor,omitempty"`

	// BTBEntries overrides the basic-block BTB capacity (0 = the core
	// configuration's, Table I: 2048). Confluence models a generous 16K.
	BTBEntries int `json:"btb_entries,omitempty"`
	// PredecodeBTBFills prefills the BTB by predecoding every cache line
	// the hierarchy fills (Confluence's fill-path predecode).
	PredecodeBTBFills bool `json:"predecode_btb_fills,omitempty"`
	// LLCReservedKB carves capacity out of the LLC for virtualised
	// prefetcher metadata (SHIFT/Confluence charge the history's footprint).
	LLCReservedKB int `json:"llc_reserved_kb,omitempty"`

	// Prefetcher attaches a history-based L1-I prefetcher; nil means none
	// (FDIP's prefetching is the engine's own, enabled by FDIPProbes).
	Prefetcher *PrefetcherConfig `json:"prefetcher,omitempty"`
	// MissPolicy selects what happens on a genuine BTB miss; nil means the
	// conventional sequential fall-through.
	MissPolicy *MissPolicyConfig `json:"miss_policy,omitempty"`
}

// Prefetcher kinds.
const (
	PrefetchNextLine = "next-line"
	PrefetchDIP      = "dip"
	PrefetchTemporal = "temporal"
)

// PrefetcherConfig describes a history-based L1-I prefetcher.
type PrefetcherConfig struct {
	// Kind is one of the Prefetch* constants.
	Kind string `json:"kind"`
	// Degree is the next-line prefetch depth (next-N-line; default 2).
	Degree int `json:"degree,omitempty"`
	// TableEntries sizes the DIP discontinuity table (default 8192).
	TableEntries int `json:"table_entries,omitempty"`
	// Temporal sizes a temporal-streaming prefetcher; nil uses the paper's
	// PIF sizing (prefetch.DefaultPIFConfig).
	Temporal *prefetch.TemporalConfig `json:"temporal,omitempty"`
	// MetadataInLLC virtualises the temporal metadata into the LLC (SHIFT):
	// the builder charges one LLC round trip of metadata latency, whatever
	// the core's LLC latency is configured to be.
	MetadataInLLC bool `json:"metadata_in_llc,omitempty"`
}

// Miss-policy kinds.
const (
	MissPolicyBoomerang = "boomerang"
	MissPolicyTwoLevel  = "two-level"
	MissPolicyPerfect   = "perfect"
)

// MissPolicyConfig describes the BTB miss policy.
type MissPolicyConfig struct {
	// Kind is one of the MissPolicy* constants.
	Kind string `json:"kind"`
	// Boomerang tunes the stall-and-predecode unit; nil uses the evaluated
	// design point (core.DefaultConfig).
	Boomerang *core.Config `json:"boomerang,omitempty"`
	// TwoLevel sizes a hierarchical BTB; nil uses the bulk-preload z-series
	// organisation (btb.BulkPreloadConfig).
	TwoLevel *btb.TwoLevelConfig `json:"two_level,omitempty"`
	// L2InLLC virtualises the second BTB level into the LLC (PhantomBTB):
	// every L2 access pays the configured LLC round trip instead of
	// TwoLevel's L2Latency.
	L2InLLC bool `json:"l2_in_llc,omitempty"`
}

// knownPredictors matches newDirection's accepted names.
var knownPredictors = map[string]bool{"": true, "tage": true, "bimodal": true, "never-taken": true}

// Upper bounds on what a config may ask for. Each lies far above every value
// the paper or this repository uses (at most 32,768 entries, 64 FTQ slots,
// 8 throttled blocks, single-digit latencies) and far below what would make
// Build allocate without limit or a run stop retiring instructions.
const (
	// maxEntries bounds every table: BTB, prefetcher history and index,
	// DIP table, second BTB level.
	maxEntries = 1 << 20
	// maxPerEvent bounds FTQ depth, second-level ways, and the lines or
	// records a prefetcher or Boomerang's throttle handles per event.
	maxPerEvent = 1 << 10
	// maxLatency bounds the cycles one predecode or second-level access
	// takes.
	maxLatency = 1 << 12
)

// Validate reports the first problem that would make Build panic or build a
// nonsensical machine. It is the gate every external entry point (registry
// registration, JSON scheme files, wire requests) passes configs through.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scheme %q: %s", c.Name, fmt.Sprintf(format, args...))
	}
	if c.Name == "" {
		return fmt.Errorf("scheme config has no name")
	}
	if c.FTQDepth < 0 || c.FTQDepth > maxPerEvent {
		return fail("ftq_depth must be in [0, %d], got %d", maxPerEvent, c.FTQDepth)
	}
	if c.BTBEntries < 0 || c.BTBEntries > maxEntries {
		return fail("btb_entries must be in [0, %d], got %d", maxEntries, c.BTBEntries)
	}
	if c.LLCReservedKB < 0 {
		return fail("llc_reserved_kb must be >= 0, got %d", c.LLCReservedKB)
	}
	// JSON, the config's cache key and wire form, cannot carry NaN or ±Inf.
	if kb := c.StorageOverheadKB; kb < 0 || math.IsNaN(kb) || math.IsInf(kb, 0) {
		return fail("storage_overhead_kb must be finite and >= 0, got %g", c.StorageOverheadKB)
	}
	if !knownPredictors[c.Predictor] {
		return fail("unknown predictor %q (have: tage, bimodal, never-taken)", c.Predictor)
	}
	if p := c.Prefetcher; p != nil {
		switch p.Kind {
		case PrefetchNextLine:
			if p.Degree < 0 || p.Degree > maxPerEvent {
				return fail("next-line degree must be in [0, %d], got %d", maxPerEvent, p.Degree)
			}
		case PrefetchDIP:
			if p.TableEntries < 0 || p.TableEntries > maxEntries {
				return fail("dip table_entries must be in [0, %d], got %d", maxEntries, p.TableEntries)
			}
		case PrefetchTemporal:
			if t := p.Temporal; t != nil {
				if t.HistoryEntries <= 0 || t.IndexEntries <= 0 || t.RegionLines <= 0 || t.Lookahead <= 0 {
					return fail("temporal prefetcher needs positive history_entries, index_entries, region_lines and lookahead")
				}
				if t.HistoryEntries > maxEntries || t.IndexEntries > maxEntries || t.Lookahead > maxPerEvent {
					return fail("temporal prefetcher needs history_entries and index_entries <= %d, lookahead <= %d",
						maxEntries, maxPerEvent)
				}
				// A negative issue_rate would silently disable prefetching
				// (budget exhausted before the first line); negative
				// latencies and deviation budgets are equally nonsensical.
				if t.IssueRate < 0 || t.MaxDeviations < 0 || t.MetadataLatency < 0 {
					return fail("temporal prefetcher needs issue_rate, max_deviations and metadata_latency >= 0")
				}
			}
		default:
			return fail("unknown prefetcher kind %q (have: %s, %s, %s)",
				p.Kind, PrefetchNextLine, PrefetchDIP, PrefetchTemporal)
		}
		if p.Kind != PrefetchTemporal && (p.Temporal != nil || p.MetadataInLLC) {
			return fail("temporal parameters set on a %q prefetcher", p.Kind)
		}
	}
	if m := c.MissPolicy; m != nil {
		switch m.Kind {
		case MissPolicyBoomerang:
			if b := m.Boomerang; b != nil {
				if b.ThrottleN < 0 || b.MaxScanLines <= 0 || b.PredecodeLatency < 0 || b.PrefetchBufferEntries < 0 {
					return fail("boomerang policy needs throttle_n >= 0, max_scan_lines > 0, predecode_latency >= 0, prefetch_buffer_entries >= 0")
				}
				if b.ThrottleN > maxPerEvent || b.PredecodeLatency > maxLatency {
					return fail("boomerang policy needs throttle_n <= %d, predecode_latency <= %d", maxPerEvent, maxLatency)
				}
			}
			if m.TwoLevel != nil || m.L2InLLC {
				return fail("two-level parameters set on a boomerang miss policy")
			}
		case MissPolicyTwoLevel:
			if t := m.TwoLevel; t != nil {
				if t.L2Entries <= 0 || t.L2Assoc <= 0 {
					return fail("two-level policy needs positive l2_entries and l2_assoc")
				}
				if t.L2Entries > maxEntries || t.L2Assoc > maxPerEvent {
					return fail("two-level policy needs l2_entries <= %d, l2_assoc <= %d", maxEntries, maxPerEvent)
				}
				if t.L2Latency < 0 || t.PreloadLines < 0 || t.TemporalGroup < 0 {
					return fail("two-level policy latencies and preload sizes must be >= 0")
				}
				if t.L2Latency > maxLatency {
					return fail("two-level policy needs l2_latency <= %d, got %d", maxLatency, t.L2Latency)
				}
			}
			if m.Boomerang != nil {
				return fail("boomerang parameters set on a two-level miss policy")
			}
		case MissPolicyPerfect:
			if m.Boomerang != nil || m.TwoLevel != nil || m.L2InLLC {
				return fail("perfect miss policy takes no parameters")
			}
		default:
			return fail("unknown miss policy kind %q (have: %s, %s, %s)",
				m.Kind, MissPolicyBoomerang, MissPolicyTwoLevel, MissPolicyPerfect)
		}
	}
	return nil
}
