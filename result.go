package boomsim

import (
	"boomsim/internal/frontend"
	"boomsim/internal/sim"
	"boomsim/internal/stats"
)

// Result is one simulation's outcome: plain data, ready for JSON.
type Result struct {
	// Scheme and Workload name the simulated configuration.
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`

	// Instructions and Cycles span the measurement window; IPC is their
	// ratio (the paper's per-core performance metric).
	Instructions uint64  `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	IPC          float64 `json:"ipc"`

	// FetchStallCycles counts cycles the fetch engine sat waiting for
	// instruction lines on the correct path; StallFraction normalises by
	// total cycles. StallCycles splits them by the discontinuity class of
	// the stalled line (Figure 3's attribution).
	FetchStallCycles uint64      `json:"fetch_stall_cycles"`
	StallFraction    float64     `json:"stall_fraction"`
	StallCycles      ClassCounts `json:"stall_cycles_by_class"`

	// Squash anatomy (Figure 7's unit: events per kilo-instruction).
	MispredictSquashesPerKI float64 `json:"mispredict_squashes_per_ki"`
	BTBMissSquashesPerKI    float64 `json:"btb_miss_squashes_per_ki"`

	// BTB behaviour on correct-path prediction attempts.
	BTBLookups  uint64  `json:"btb_lookups"`
	BTBMisses   uint64  `json:"btb_misses"`
	BTBMissRate float64 `json:"btb_miss_rate"`

	// L1IMissesPerKI is demand instruction-line misses per
	// kilo-instruction (MPKI).
	L1IMissesPerKI float64 `json:"l1i_misses_per_ki"`

	// Hierarchy traffic: prefetches issued, LLC accesses and misses.
	Prefetches  uint64 `json:"prefetches"`
	LLCAccesses uint64 `json:"llc_accesses"`
	LLCMisses   uint64 `json:"llc_misses"`

	// PredecodedLines counts cache lines run through a predecoder
	// (Boomerang's miss scans, Confluence's fill path; zero elsewhere).
	PredecodedLines uint64 `json:"predecoded_lines"`
	// PrefetchMetaBytes estimates prefetcher metadata moved (temporal
	// streamers only).
	PrefetchMetaBytes uint64 `json:"prefetch_meta_bytes"`

	// StorageOverheadKB is the scheme's per-core metadata bill (Section
	// VI-D) — the axis of the paper's headline comparison.
	StorageOverheadKB float64 `json:"storage_overhead_kb"`

	// Stats is the full per-component statistics registry: every counter
	// each simulated component (frontend, bpu, cache, btb, prefetch,
	// boomerang, ...) registered under its own dotted namespace, e.g.
	// "cache.llc_misses" or "bpu.tage.useful_resets". The headline fields
	// above are a projection of it; this is the complete measurement plane,
	// and it flows unchanged through boomsimd responses, Prometheus
	// metrics, and cluster reassembly. JSON renders it sorted by name, so
	// Result round-trips bytes exactly.
	Stats map[string]float64 `json:"stats,omitempty"`

	// Epochs is the flight-recorder timeline (WithFlightRecorder): windowed
	// counter deltas that exactly tile the measurement window. Omitted —
	// and absent from the Result's bytes — unless recording was enabled.
	Epochs []Epoch `json:"epochs,omitempty"`
}

// Epoch is one flight-recorder sample: counter deltas over the window
// [StartCycle, StartCycle+Cycles) of the measurement window. Summing a
// field across a Result's epochs reproduces the run total for that counter
// over the recorded window.
type Epoch struct {
	StartCycle       int64  `json:"start_cycle"`
	Cycles           int64  `json:"cycles"`
	Instructions     uint64 `json:"instructions"`
	FetchStallCycles uint64 `json:"fetch_stall_cycles"`
	FTQEmptyCycles   uint64 `json:"ftq_empty_cycles"`
	BTBMisses        uint64 `json:"btb_misses"`
	Squashes         uint64 `json:"squashes"`
	Prefetches       uint64 `json:"prefetches"`
	PrefetchHits     uint64 `json:"prefetch_hits"`
	DemandMisses     uint64 `json:"demand_misses"`
}

// ClassCounts attributes per-class quantities to how the fetch stream
// entered the line: sequentially, via a taken conditional, or via an
// unconditional redirect.
type ClassCounts struct {
	Sequential    uint64 `json:"sequential"`
	Conditional   uint64 `json:"conditional"`
	Unconditional uint64 `json:"unconditional"`
}

func newResult(r sim.Result, storageKB float64) Result {
	st := r.Stats
	out := Result{
		Scheme:       r.SchemeName,
		Workload:     r.WorkloadName,
		Instructions: st.RetiredInstrs,
		Cycles:       st.Cycles,
		IPC:          r.IPC,

		FetchStallCycles: st.FetchStallCycles,
		StallFraction:    st.StallFraction(),
		StallCycles: ClassCounts{
			Sequential:    st.StallByClass[0],
			Conditional:   st.StallByClass[1],
			Unconditional: st.StallByClass[2],
		},

		MispredictSquashesPerKI: st.MispredictSquashesPerKI(),
		BTBMissSquashesPerKI:    st.SquashesPerKI(frontend.SquashBTBMiss),

		BTBLookups:  st.BTBLookups,
		BTBMisses:   st.BTBMisses,
		BTBMissRate: st.BTBMissRate(),

		Prefetches:  r.Hier.Prefetches,
		LLCAccesses: r.Hier.LLCAccesses,
		LLCMisses:   r.Hier.LLCMisses,

		PredecodedLines:   r.PredecodedLines,
		PrefetchMetaBytes: r.PrefetchMetaBytes,
		StorageOverheadKB: storageKB,
	}
	if st.RetiredInstrs > 0 {
		out.L1IMissesPerKI = float64(st.DemandLineMisses) * 1000 / float64(st.RetiredInstrs)
	}
	if r.Registry != nil {
		out.Stats = r.Registry.Map()
	}
	if len(r.Epochs) > 0 {
		out.Epochs = make([]Epoch, len(r.Epochs))
		for i, e := range r.Epochs {
			out.Epochs[i] = Epoch(e)
		}
	}
	return out
}

// Speedup returns r's performance relative to base (same workload): the
// ratio of IPCs, the paper's Figures 9/11 metric.
func Speedup(base, r Result) float64 { return stats.Speedup(base.IPC, r.IPC) }

// Coverage returns the fraction of base's front-end stall cycles that r
// eliminated — the paper's "stall cycles covered" metric (Figures 2, 5, 8).
// Stall cycles are normalised per retired instruction so windows of
// different lengths compare fairly; when the baseline barely stalls the
// metric is defined as zero rather than a noise-amplified ratio. The
// experiment engine's coverage metric is the same function, so spec
// reports and public-API output agree.
func Coverage(base, r Result) float64 {
	return stats.Coverage(float64(base.FetchStallCycles), float64(base.Instructions),
		float64(r.FetchStallCycles), float64(r.Instructions))
}
