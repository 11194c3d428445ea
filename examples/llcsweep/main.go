// Llcsweep reproduces the paper's motivation studies (Figures 2 and 5) on a
// single workload using the experiment API: FDIP's stall-cycle coverage as a
// function of LLC round-trip latency, under different direction predictors
// and BTB sizes. The two contrarian findings should be visible:
//
//   - coverage barely depends on the direction predictor (even never-taken
//     keeps most of it), because conditional targets are near and
//     unconditional branches don't need prediction;
//   - shrinking the BTB 32K -> 2K costs only ~10-15 points of coverage, lost
//     almost entirely on unconditional discontinuities.
//
// The FDIP variants are built from the registered FDIP config and travel
// inline in the specs, so nothing needs registering.
package main

import (
	"context"
	"encoding/json"
	"log"
	"os"

	"boomsim"
)

func main() {
	fdip, err := boomsim.LookupScheme("FDIP")
	if err != nil {
		log.Fatal(err)
	}
	variant := func(name string, edit func(*boomsim.SchemeConfig)) json.RawMessage {
		cfg := fdip.Config
		cfg.Name = name
		edit(&cfg)
		raw, err := json.Marshal(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return raw
	}
	latencies := []int{10, 30, 50, 70}
	window := &boomsim.ExperimentWindow{Warm: 300_000, Measure: 600_000}

	predictors := boomsim.ExperimentSpec{
		Version:    1,
		Name:       "nutch-predictors",
		Hypothesis: "With a 32K BTB, FDIP's coverage barely depends on the direction predictor (paper Fig. 2).",
		Baseline:   "Base",
		Candidates: []string{"PIF", "FDIP"},
		SchemeConfigs: []json.RawMessage{
			variant("FDIP 2-bit", func(c *boomsim.SchemeConfig) { c.Predictor = "bimodal" }),
			variant("FDIP Never-Taken", func(c *boomsim.SchemeConfig) { c.Predictor = "never-taken" }),
		},
		Workloads: []string{"Nutch"},
		Seeds:     []uint64{1},
		Window:    window,
		Matrix:    &boomsim.ExperimentMatrix{BTBEntries: []int{32768}, LLCLatency: latencies},
		Criteria: []boomsim.ExperimentCriterion{{
			Name: "never-taken-keeps-coverage", Metric: "coverage", Scheme: "FDIP Never-Taken",
			Op: ">=", Threshold: 0.1,
		}},
	}
	btbSizes := boomsim.ExperimentSpec{
		Version:    1,
		Name:       "nutch-btb-size",
		Hypothesis: "With a 2K-entry BTB, FDIP still covers most front-end stall cycles (paper Fig. 5).",
		Baseline:   "Base",
		Candidates: []string{"FDIP"},
		SchemeConfigs: []json.RawMessage{
			variant("FDIP 32K BTB", func(c *boomsim.SchemeConfig) { c.BTBEntries = 32768 }),
		},
		Workloads: []string{"Nutch"},
		Seeds:     []uint64{1},
		Window:    window,
		Matrix:    &boomsim.ExperimentMatrix{LLCLatency: latencies},
		Criteria: []boomsim.ExperimentCriterion{{
			Name: "small-btb-keeps-most-coverage", Metric: "coverage", Scheme: "FDIP",
			Op: ">=", Threshold: 0.5,
		}},
	}

	ctx := context.Background()
	for _, spec := range []boomsim.ExperimentSpec{predictors, btbSizes} {
		report, err := boomsim.RunExperiment(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		report.Render(os.Stdout)
	}
}
