// Package scheme assembles the control-flow-delivery configurations the
// paper evaluates (Section V-A): the no-prefetch baseline, Next-Line, DIP,
// FDIP, PIF, SHIFT, Confluence and Boomerang, plus the perfect-L1-I and
// perfect-BTB limit studies of Figure 1. Each scheme is a declarative
// Config — FTQ depth, prefetcher kind and parameters, BTB organisation,
// miss policy, predictor, and the paper's per-core storage-overhead
// accounting (Section VI-D) — interpreted by one generic builder
// (Config.Build). Because schemes are data, they serialize to JSON, travel
// over the wire, and users compose novel scenarios without touching this
// package; the constructors below are merely the built-in Config values.
package scheme

import (
	"fmt"

	"boomsim/internal/btb"
	"boomsim/internal/core"
	"boomsim/internal/isa"
	"boomsim/internal/prefetch"
	"boomsim/internal/program"
)

// Scheme is the historical name for a buildable configuration; schemes are
// now pure data, so it is the Config itself.
type Scheme = Config

// baselineFTQDepth is the shallow FTQ of non-decoupled schemes: enough to
// buffer fetch addresses, too shallow to prefetch from.
const baselineFTQDepth = 4

// shiftLLCReservedKB approximates the LLC capacity the virtualised
// instruction history occupies (32K records x ~5B).
const shiftLLCReservedKB = 160

// confluenceBTBEntries is the paper's generous Confluence model: SHIFT
// augmented with a 16K-entry BTB filled by predecoding incoming blocks.
const confluenceBTBEntries = 16384

// Base is the no-prefetch baseline every speedup normalises to: TAGE + 2K
// basic-block BTB, non-decoupled fetch.
func Base() Config {
	return Config{
		Name:        "Base",
		Description: "No instruction or BTB prefetching",
		FTQDepth:    baselineFTQDepth,
	}
}

// NextLine adds a next-2-line sequential prefetcher to the baseline.
func NextLine() Config {
	return Config{
		Name:        "Next Line",
		Description: "Next-2-line sequential prefetcher",
		FTQDepth:    baselineFTQDepth,
		Prefetcher:  &PrefetcherConfig{Kind: PrefetchNextLine, Degree: 2},
	}
}

// DIP is the discontinuity prefetcher (8K-entry table + next-2-line).
func DIP() Config {
	return Config{
		Name:              "DIP",
		Description:       "Discontinuity prefetcher, 8K-entry table + next-2-line",
		StorageOverheadKB: 64, // 8K entries x ~64 bits of tag+target
		FTQDepth:          baselineFTQDepth,
		Prefetcher:        &PrefetcherConfig{Kind: PrefetchDIP, TableEntries: 8192},
	}
}

// FDIP is fetch-directed instruction prefetch: the decoupled front end with
// a 32-entry FTQ driving prefetch probes.
func FDIP() Config {
	return Config{
		Name:              "FDIP",
		Description:       "Fetch-directed instruction prefetch (32-entry FTQ)",
		StorageOverheadKB: 0.2, // the deeper FTQ itself (204 bytes)
		FDIPProbes:        true,
	}
}

// PIF is Proactive Instruction Fetch: temporal streaming with per-core
// private metadata (the paper cites >200KB per core).
func PIF() Config {
	tcfg := prefetch.DefaultPIFConfig()
	return Config{
		Name:              "PIF",
		Description:       "Temporal-streaming prefetcher, private metadata",
		StorageOverheadKB: 224,
		FTQDepth:          baselineFTQDepth,
		Prefetcher:        &PrefetcherConfig{Kind: PrefetchTemporal, Temporal: &tcfg},
	}
}

// SHIFT virtualises the temporal-streaming metadata into the LLC: replay
// pays the LLC round trip, the history carves LLC capacity, and the index
// extends the LLC tag array (240KB of dedicated storage).
func SHIFT() Config {
	tcfg := prefetch.DefaultPIFConfig()
	return Config{
		Name:              "SHIFT",
		Description:       "Shared history instruction fetch, LLC-virtualised metadata",
		StorageOverheadKB: 240.0 / 16, // 240KB LLC tag extension amortised over 16 cores
		FTQDepth:          baselineFTQDepth,
		LLCReservedKB:     shiftLLCReservedKB,
		Prefetcher: &PrefetcherConfig{
			Kind: PrefetchTemporal, Temporal: &tcfg, MetadataInLLC: true,
		},
	}
}

// Confluence rides SHIFT for L1-I prefetching and predecodes every arriving
// cache line into the BTB (modelled, per the paper, as SHIFT + a 16K-entry
// BTB for a generous upper bound). It does not detect BTB misses: when a
// prefetch is late or wrong, the front end runs sequentially.
func Confluence() Config {
	tcfg := prefetch.DefaultPIFConfig()
	return Config{
		Name:              "Confluence",
		Description:       "SHIFT + BTB prefill via predecode of incoming blocks",
		StorageOverheadKB: 240.0/16 + 0, // SHIFT machinery; BTB prefill reuses blocks
		FTQDepth:          baselineFTQDepth,
		BTBEntries:        confluenceBTBEntries,
		PredecodeBTBFills: true,
		LLCReservedKB:     shiftLLCReservedKB,
		Prefetcher: &PrefetcherConfig{
			Kind: PrefetchTemporal, Temporal: &tcfg, MetadataInLLC: true,
		},
	}
}

// Boomerang is the paper's architecture: FDIP plus BTB miss detection and
// predecode-driven prefill, at 540 bytes of added storage.
func Boomerang() Config {
	return BoomerangThrottled(core.DefaultConfig().ThrottleN)
}

// BoomerangThrottled parameterises the next-N-block policy under BTB misses
// (Figure 10 sweeps N in {0,1,2,4,8}).
func BoomerangThrottled(n int) Config {
	cfg := core.DefaultConfig()
	cfg.ThrottleN = n
	name := "Boomerang"
	if n != core.DefaultConfig().ThrottleN {
		name = fmt.Sprintf("Boomerang-N%d", n)
	}
	return BoomerangCustom(name, cfg)
}

// BoomerangCustom builds a Boomerang variant with an explicit unit
// configuration (throttle policy, unthrottled operation); the ablation
// specs express theirs as inline scheme configs instead.
func BoomerangCustom(name string, bcfg core.Config) Config {
	return Config{
		Name:              name,
		Description:       "FDIP + BTB miss detection and predecode prefill (metadata-free)",
		StorageOverheadKB: float64(core.StorageBytes(32, bcfg.PrefetchBufferEntries)) / 1024,
		FDIPProbes:        true,
		MissPolicy:        &MissPolicyConfig{Kind: MissPolicyBoomerang, Boomerang: &bcfg},
	}
}

// BoomerangUnthrottled is Section IV-C1's alternative miss policy: keep
// feeding the FTQ sequentially while the miss resolves instead of stalling.
func BoomerangUnthrottled() Config {
	cfg := core.DefaultConfig()
	cfg.Unthrottled = true
	return BoomerangCustom("Boomerang-Unthrottled", cfg)
}

// TwoLevelBTB is the Section II-C alternative Boomerang is positioned
// against: FDIP plus a large second-level BTB with bulk spatial preload
// (IBM z-series style). Every L1-BTB miss pays the L2 access latency.
func TwoLevelBTB() Config {
	l2 := btb.BulkPreloadConfig()
	return Config{
		Name:              "2-Level BTB",
		Description:       "FDIP + 16K-entry L2 BTB with bulk spatial preload",
		StorageOverheadKB: 16384 * 84 / 8 / 1024,
		FDIPProbes:        true,
		MissPolicy:        &MissPolicyConfig{Kind: MissPolicyTwoLevel, TwoLevel: &l2},
	}
}

// PhantomBTBScheme is the other Section II-C alternative: temporal groups of
// BTB entries virtualised into the LLC, so every L1-BTB miss that hits the
// virtual second level pays an LLC round trip.
func PhantomBTBScheme() Config {
	// L2InLLC sets the latency from the configured LLC at build time.
	l2 := btb.PhantomBTBConfig(0)
	return Config{
		Name:              "PhantomBTB",
		Description:       "FDIP + LLC-virtualised temporal-group BTB",
		StorageOverheadKB: 2, // per-core control state; groups live in the LLC
		FDIPProbes:        true,
		MissPolicy:        &MissPolicyConfig{Kind: MissPolicyTwoLevel, TwoLevel: &l2, L2InLLC: true},
	}
}

// PerfectL1I is the Figure 1 limit study: every fetch hits the L1-I.
func PerfectL1I() Config {
	return Config{
		Name:        "Perfect L1-I",
		Description: "All instruction fetches hit the L1-I",
		FTQDepth:    baselineFTQDepth,
		PerfectL1:   true,
	}
}

// PerfectCF adds a perfect BTB on top of the perfect L1-I (Figure 1's
// second bar): no BTB misses ever occur.
func PerfectCF() Config {
	return Config{
		Name:        "Perfect L1-I + BTB",
		Description: "Perfect L1-I and no BTB misses",
		FTQDepth:    baselineFTQDepth,
		PerfectL1:   true,
		MissPolicy:  &MissPolicyConfig{Kind: MissPolicyPerfect},
	}
}

// PerfectBTB resolves every BTB miss instantly with ground truth from the
// code image (capacity-infinite BTB). Indirect targets still need learning,
// so target mispredictions survive — only BTB misses are eliminated.
type PerfectBTB struct{ Img *program.Image }

// Handle implements the frontend MissHandler contract.
func (p *PerfectBTB) Handle(pc isa.Addr, now int64) (btb.Entry, int64, bool) {
	blk, ok := p.Img.BlockContaining(pc)
	if !ok {
		return btb.Entry{}, now, false
	}
	e := btb.Entry{
		Start:  pc,
		NInstr: blk.NInstr - uint16((pc-blk.Addr)/isa.InstrBytes),
		Kind:   blk.Term.Kind,
	}
	switch blk.Term.Kind {
	case isa.CondDirect, isa.UncondDirect, isa.CallDirect:
		e.Target = blk.Term.Target
	}
	return e, now, true
}

// All returns the six schemes of Figures 7-9 in presentation order.
func All() []Config {
	return []Config{Base(), NextLine(), DIP(), FDIP(), SHIFT(), Confluence(), Boomerang()}
}
