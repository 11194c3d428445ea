// Package config holds the microarchitectural parameter sets for the
// simulated core and memory hierarchy. Default values reproduce Table I of
// the Boomerang paper (HPCA 2017): a 3-way out-of-order core resembling an
// ARM Cortex-A57 at 2 GHz on a 16-core tiled CMP with a 4x4 mesh NUCA LLC.
package config

import "fmt"

// Core collects every knob a single simulated core needs. The zero value is
// not useful; start from Default() and override.
type Core struct {
	// FetchWidth is the number of instructions fetched per cycle.
	FetchWidth int
	// RetireWidth is the number of instructions retired per cycle.
	RetireWidth int
	// BackendDepth is the fetch-to-resolve depth in cycles: a branch fetched
	// at cycle c resolves (and can squash) no earlier than c+BackendDepth.
	BackendDepth int
	// ROBSize caps in-flight (fetched, unretired) instructions.
	ROBSize int

	// FTQDepth is the fetch target queue depth. The paper uses 32 entries
	// for FDIP and Boomerang; the non-decoupled baseline uses a few entries.
	FTQDepth int

	// L1I geometry and latency.
	L1ISizeKB  int
	L1IAssoc   int
	L1ILatency int
	// PrefetchBufEntries is the fully-associative L1-I prefetch buffer size.
	PrefetchBufEntries int
	// MSHREntries bounds outstanding instruction fills.
	MSHREntries int

	// LLCLatency is the average LLC round-trip latency in cycles (30 for the
	// 4x4 mesh of Table I; 18 for the crossbar of Figure 11). It is the
	// independent variable of Figures 2, 5 and 11.
	LLCLatency int
	// LLCSizeKB is the effective LLC capacity visible to this core's
	// instruction stream (8 MB shared across the 16-core CMP).
	LLCSizeKB int
	// LLCAssoc is the LLC associativity.
	LLCAssoc int
	// MemLatency is the LLC-miss (memory) penalty in cycles beyond the LLC
	// round trip: 45 ns at 2 GHz = 90 cycles.
	MemLatency int
	// LLCPortOccupancy serialises a core's LLC requests: each fill occupies
	// the core's LLC port/link for this many cycles, so useless prefetch
	// traffic delays useful fills (the effect behind Figure 10's
	// over-prefetching penalty).
	LLCPortOccupancy int

	// BTBEntries is the basic-block BTB capacity (2K in Table I).
	BTBEntries int
	// BTBAssoc is the BTB associativity.
	BTBAssoc int
	// BTBPrefetchBufEntries is Boomerang's FIFO BTB prefetch buffer (32).
	BTBPrefetchBufEntries int
	// RASDepth is the return address stack depth.
	RASDepth int

	// PrefetchProbesPerCycle bounds prefetch-engine probe issue rate.
	PrefetchProbesPerCycle int
	// TAGEStorageKB is the direction predictor storage budget (8 KB).
	TAGEStorageKB int
}

// Default returns the Table I configuration for one core of the modelled
// 16-core CMP (mesh NUCA, ~30-cycle average LLC round trip).
func Default() Core {
	return Core{
		FetchWidth:   3,
		RetireWidth:  3,
		BackendDepth: 12,
		ROBSize:      128,

		FTQDepth: 32,

		L1ISizeKB:          32,
		L1IAssoc:           2,
		L1ILatency:         2,
		PrefetchBufEntries: 64,
		MSHREntries:        16,

		LLCLatency:       30,
		LLCSizeKB:        8192,
		LLCAssoc:         16,
		MemLatency:       90,
		LLCPortOccupancy: 2,

		BTBEntries:            2048,
		BTBAssoc:              4,
		BTBPrefetchBufEntries: 32,
		RASDepth:              32,

		PrefetchProbesPerCycle: 2,
		TAGEStorageKB:          8,
	}
}

// WithBTB returns a copy with the BTB capacity replaced (used by the BTB
// sweeps of Figures 3 and 5).
func (c Core) WithBTB(entries int) Core {
	c.BTBEntries = entries
	return c
}

// WithLLCLatency returns a copy with the LLC round-trip latency replaced
// (used by the latency sweeps of Figures 2, 5 and 11).
func (c Core) WithLLCLatency(cycles int) Core {
	c.LLCLatency = cycles
	return c
}

// Upper bounds Validate puts on what a caller may request: far above every
// configuration the paper or this repository simulates (at most 32,768 BTB
// entries, a 600-cycle LLC), and far below a BTB whose allocation has no
// limit or an LLC so slow that a run stops retiring instructions.
const (
	maxBTBEntries = 1 << 20
	maxLLCLatency = 1 << 12
)

// Validate reports the first nonsensical parameter, if any.
func (c Core) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.FetchWidth > 0, "FetchWidth must be positive"},
		{c.RetireWidth > 0, "RetireWidth must be positive"},
		{c.BackendDepth > 0, "BackendDepth must be positive"},
		{c.ROBSize >= c.RetireWidth, "ROBSize must cover at least one retire group"},
		{c.FTQDepth > 0, "FTQDepth must be positive"},
		{c.L1ISizeKB > 0 && c.L1IAssoc > 0, "L1I geometry must be positive"},
		{c.L1IAssoc <= 255, "L1IAssoc must be at most 255"},
		{c.L1ILatency >= 1, "L1ILatency must be >= 1"},
		{c.PrefetchBufEntries >= 0, "PrefetchBufEntries must be >= 0"},
		{c.MSHREntries > 0, "MSHREntries must be positive"},
		{c.LLCLatency >= 1 && c.LLCLatency <= maxLLCLatency, "LLCLatency must be in [1, 4096]"},
		{c.LLCSizeKB > 0 && c.LLCAssoc > 0, "LLC geometry must be positive"},
		{c.LLCAssoc <= 255, "LLCAssoc must be at most 255"},
		{c.MemLatency >= 0, "MemLatency must be >= 0"},
		{c.LLCPortOccupancy >= 0, "LLCPortOccupancy must be >= 0"},
		{c.BTBEntries > 0 && c.BTBEntries <= maxBTBEntries, "BTBEntries must be in [1, 1048576]"},
		{c.BTBAssoc > 0, "BTBAssoc must be positive"},
		{c.BTBPrefetchBufEntries >= 0, "BTBPrefetchBufEntries must be >= 0"},
		{c.RASDepth > 0, "RASDepth must be positive"},
		{c.PrefetchProbesPerCycle > 0, "PrefetchProbesPerCycle must be positive"},
		{c.TAGEStorageKB > 0, "TAGEStorageKB must be positive"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("config: %s", ch.what)
		}
	}
	return nil
}
