package boomsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key returns the canonical identity of the simulation's full configuration:
// scheme, workload, predictor, BTB and LLC overrides, footprint override,
// both seeds, the measurement window and the cycle budget. Two Simulations
// with equal Keys produce byte-identical Results — a Run is a pure function
// of this string — so the Key is safe to use as a cache or memoisation key.
// Progress callbacks are deliberately excluded: they observe a run without
// affecting it. So are warm reuse and cycle skipping (BOOMSIM_NO_SKIP=1
// turns skipping off): both are pure wall-clock trades whose on and off runs
// produce byte-identical Results, so either setting may serve a cached
// Result for the other.
//
// The format is stable within a process and human-readable; persist the
// Fingerprint instead if you need a fixed-width identifier.
func (s *Simulation) Key() string {
	key := fmt.Sprintf(
		"scheme=%q|workload=%q|predictor=%q|btb=%d|llc=%d|footprint=%d|imageseed=%d|walkseed=%d|warm=%d|measure=%d|maxcycles=%d",
		s.schemeName, s.workloadName, s.predictor,
		s.btbEntries, s.llcLatency, s.footprintKB,
		s.imageSeed, s.walkSeed,
		s.warmInstrs, s.measureInstrs, s.maxCycles)
	if s.flightEvery > 0 {
		// The flight recorder changes the Result's bytes (epochs ride on it),
		// so recorded runs get their own cache identity. Appended only when
		// set, preserving historical keys for every unrecorded run.
		key += fmt.Sprintf("|flightevery=%d", s.flightEvery)
	}
	if s.schemeCfg != nil {
		// An inline scheme's identity is its full declarative config, not
		// just its name: two custom schemes may share a name but differ in
		// recipe. JSON marshaling is deterministic over the config structs,
		// so equal configs yield equal keys. Registry-resolved runs keep the
		// historical key format, preserving cache identity across versions.
		key += "|schemecfg=" + string(s.schemeCfgJSON())
	}
	return key
}

// schemeCfgJSON is the inline scheme config's canonical JSON — the one
// encoding shared by Key (cache identity) and the wire request (what the
// worker executes), so routing and execution can never diverge. Call only
// with schemeCfg set.
func (s *Simulation) schemeCfgJSON() []byte {
	cfg, err := json.Marshal(s.schemeCfg)
	if err != nil {
		// Unreachable: SchemeConfig is plain data. Fail loudly rather than
		// silently aliasing distinct configs in caches.
		panic(fmt.Sprintf("boomsim: marshaling scheme config: %v", err))
	}
	return cfg
}

// Fingerprint returns the SHA-256 of Key as lowercase hex: a fixed-width,
// content-addressed identifier for the configuration, suitable for cache
// keys, file names and log correlation.
func (s *Simulation) Fingerprint() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}
