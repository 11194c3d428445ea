package stats

// Speedup is a run's performance relative to its baseline on the same
// workload: the ratio of IPCs, the paper's Figures 9/11 metric. It is zero
// when the baseline's IPC is.
func Speedup(baseIPC, ipc float64) float64 {
	if baseIPC == 0 {
		return 0
	}
	return ipc / baseIPC
}

// coverageFloor is the baseline stall rate, in stall cycles per
// instruction, below which Coverage is zero.
const coverageFloor = 0.002

// Coverage is the fraction of the baseline's front-end stall cycles a run
// eliminated — the paper's "stall cycles covered" metric (Figures 2, 5, 8).
// Stall cycles are normalised per retired instruction so windows of
// different lengths compare fairly. When the baseline barely stalls (e.g.
// an LLC latency below the pipelined L1-I hit time) there is nothing to
// cover, and the metric is zero rather than a noise-amplified ratio. The
// public API and the experiment engine both compute coverage here, so the
// formula and its floor live in one place.
func Coverage(baseStalls, baseInstrs, stalls, instrs float64) float64 {
	b := perInstr(baseStalls, baseInstrs)
	if b < coverageFloor {
		return 0
	}
	return 1 - perInstr(stalls, instrs)/b
}

func perInstr(stalls, instrs float64) float64 {
	if instrs == 0 {
		return 0
	}
	return stalls / instrs
}
