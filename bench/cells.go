package main

import (
	"fmt"
	"math/rand/v2"

	"boomsim"
	"boomsim/internal/sim"
	"boomsim/internal/wire"
	"boomsim/internal/workload"
)

// cell is one simulated configuration a workload runs: a scheme on a
// simulator profile, with its footprint, LLC latency, window and seeds.
type cell struct {
	Scheme, Profile string
	KB, LLC         int // footprint and LLC round trip; 0 keeps the default
	Warm, Measure   uint64
	Image, Walk     uint64 // code-image and walk seeds
}

// sim builds the cell through the public API.
func (c cell) sim(extra ...boomsim.Option) (*boomsim.Simulation, error) {
	opts := []boomsim.Option{
		boomsim.WithScheme(c.Scheme),
		boomsim.WithWorkload(c.Profile),
		boomsim.WithSeeds(c.Image, c.Walk),
		boomsim.WithWindow(c.Warm, c.Measure),
	}
	if c.KB > 0 {
		opts = append(opts, boomsim.WithFootprintKB(c.KB))
	}
	if c.LLC > 0 {
		opts = append(opts, boomsim.WithLLCLatency(c.LLC))
	}
	return boomsim.New(append(opts, extra...)...)
}

// spec is the same configuration as sim, spelled for internal/sim, so the
// traced run can call each layer itself and still produce the bytes the
// public API produces.
func (c cell) spec() (sim.Spec, error) {
	info, err := boomsim.LookupScheme(c.Scheme)
	if err != nil {
		return sim.Spec{}, err
	}
	p, err := profile(c.Profile)
	if err != nil {
		return sim.Spec{}, err
	}
	if c.KB > 0 {
		p.Gen.FootprintKB = c.KB
	}
	s := sim.DefaultSpec(info.Config, p)
	if c.LLC > 0 {
		s.Cfg = s.Cfg.WithLLCLatency(c.LLC)
	}
	s.ImageSeed, s.WalkSeed = c.Image, c.Walk
	s.WarmInstrs, s.MeasureInstrs = c.Warm, c.Measure
	return s, nil
}

// request is the cell as a boomsimd request body.
func (c cell) request() wire.RunRequest {
	image, walk, warm, measure := c.Image, c.Walk, c.Warm, c.Measure
	return wire.RunRequest{
		Scheme:        c.Scheme,
		Workload:      c.Profile,
		FootprintKB:   c.KB,
		LLCLatency:    c.LLC,
		ImageSeed:     &image,
		WalkSeed:      &walk,
		WarmInstrs:    &warm,
		MeasureInstrs: &measure,
	}
}

func profile(name string) (workload.Profile, error) {
	if p, ok := workload.ByName(name); ok {
		return p, nil
	}
	if p := workload.SPECLike(); p.Name == name {
		return p, nil
	}
	return workload.Profile{}, fmt.Errorf("unknown simulator profile %q", name)
}

// seeded returns cells with both seeds set to seed.
func seeded(cells []cell, seed uint64) []cell {
	out := append([]cell(nil), cells...)
	for i := range out {
		out[i].Image, out[i].Walk = seed, seed
	}
	return out
}

// The 18×7 grid: every built-in scheme on every built-in profile. Names are
// pinned rather than read from the registry so the grid cannot change shape
// under the benchmark.
var (
	gridSchemes = []string{
		"Base", "Next Line", "DIP", "FDIP", "SHIFT", "Confluence", "Boomerang",
		"PIF", "Perfect L1-I", "Perfect L1-I + BTB", "2-Level BTB", "PhantomBTB",
		"Boomerang-Unthrottled",
		"Boomerang-N0", "Boomerang-N1", "Boomerang-N2", "Boomerang-N4", "Boomerang-N8",
	}
	gridProfiles = []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2", "SPEC-like"}
)

func grid(schemes, profiles []string, kb int, warm, measure uint64) []cell {
	var out []cell
	for _, p := range profiles {
		for _, s := range schemes {
			out = append(out, cell{Scheme: s, Profile: p, KB: kb, Warm: warm, Measure: measure})
		}
	}
	return out
}

func sims(cells []cell, extra ...boomsim.Option) ([]*boomsim.Simulation, error) {
	out := make([]*boomsim.Simulation, len(cells))
	for i, c := range cells {
		s, err := c.sim(extra...)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.Scheme, c.Profile, err)
		}
		out[i] = s
	}
	return out, nil
}

// order is the seeded permutation in which operation op of a run visits n
// items: the one thing --seed changes in the simulation workloads.
func order(seed uint64, op, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(op))).Perm(n)
}
