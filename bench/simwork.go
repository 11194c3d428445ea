package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"boomsim"
	"boomsim/internal/obs"
	"boomsim/internal/scheme"
	"boomsim/internal/stats"
)

// Simulated inputs are part of each workload's definition, like a
// benchmark's fixed binaries: host time per instruction differs by up to 2×
// between walk seeds of one profile, which would swamp the changes the
// benchmark exists to detect. --seed orders the work instead (and picks the
// serve workload's request stream). Set-up k uses seeds k+1, so repeated
// set-ups never share a cache entry; the timed loop uses set-up 0's state.
// Set-ups repeat and report their median; those well under a second repeat
// more often, since their relative spread is wider.
const (
	setupRepeats      = 3
	cheapSetupRepeats = 9
)

// Timed-loop spans go on row 0, the per-layer probe on row 1, matrix cells
// from row cellRow on, and serve clients from row clientRow on.
const (
	loopRow   = 0
	probeRow  = 1
	clientRow = 10
	cellRow   = 100
)

func (r *runner) span(name string, tid int, start time.Time, args ...obs.Arg) time.Duration {
	d := time.Since(start)
	if r.col != nil {
		r.col.Add(obs.Span{Name: name, Cat: "bench", Start: start, Dur: d, TID: tid, Args: args})
	}
	return d
}

// steady-db2: FDIP, Confluence and Boomerang on DB2 at its full 5120 KB
// footprint, each operation one warm-reused run of all three. The footprint
// dwarfs the L1-I and the profile is BTB-heavy, so BPU, BTB, cache demand,
// the miss handler and the prefetchers do the work and few cycles are
// skipped.
func runSteady(r *runner) error {
	c := cell{Profile: "DB2", Warm: 200_000, Measure: 1_000_000}
	if r.opts.quick {
		c = cell{Profile: "DB2", KB: 256, Warm: 5_000, Measure: 20_000}
	}
	var cells []cell
	for _, s := range []string{"FDIP", "Confluence", "Boomerang"} {
		c.Scheme = s
		cells = append(cells, c)
	}
	return r.runRounds(cells, setupRepeats)
}

// stall-llc600: the no-prefetch baseline on Apache at 768 KB behind a
// 600-cycle LLC round trip. Almost every cycle is a stall the engine
// fast-forwards, so the skip horizon and Hierarchy.NextEvent do the work
// while the BPU, BTB and prefetchers idle.
func runStall(r *runner) error {
	c := cell{Scheme: "Base", Profile: "Apache", KB: 768, LLC: 600, Warm: 200_000, Measure: 2_000_000}
	if r.opts.quick {
		c = cell{Scheme: "Base", Profile: "Apache", KB: 128, LLC: 600, Warm: 5_000, Measure: 20_000}
	}
	return r.runRounds([]cell{c}, cheapSetupRepeats)
}

// runRounds times rounds of warm-reused runs of cells. Set-up generates the
// image and warms one master per cell (a one-instruction measure window
// shares the warm key); each round then forks every master and measures
// the full window, exactly as Simulation.Run does for a repeated caller.
// Every round's Result bytes must equal the first round's.
func (r *runner) runRounds(cells []cell, setups int) error {
	ctx := context.Background()
	var run []*boomsim.Simulation
	for k := 0; k < setups; k++ {
		cs := seeded(cells, uint64(k+1))
		err := r.timeSetup(func() error {
			warmers, err := sims(cs, boomsim.WithWindow(cs[0].Warm, 1))
			if err != nil {
				return err
			}
			for _, s := range warmers {
				if _, err := s.Run(ctx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if k == 0 {
			cells = cs
			if run, err = sims(cs); err != nil {
				return err
			}
		}
	}

	var masters []*scheme.Instance
	if r.traced {
		var err error
		if masters, err = r.probe(cells); err != nil {
			return err
		}
	}

	ref := make([][]byte, len(cells))
	refStats := make([][]byte, len(cells))
	r.loop(func(i int, traced bool) (time.Duration, error) {
		perm := order(r.opts.seed, i, len(cells))
		if traced {
			return 0, r.tracedRound(i, perm, cells, masters, refStats)
		}
		for _, j := range perm {
			res, err := run[j].Run(ctx)
			if err != nil {
				return 0, err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return 0, err
			}
			if ref[j] == nil {
				ref[j] = b
				if refStats[j], err = json.Marshal(res.Stats); err != nil {
					return 0, err
				}
			} else if !bytes.Equal(b, ref[j]) {
				return 0, fmt.Errorf("%s on %s: Result differs from the first round's", cells[j].Scheme, cells[j].Profile)
			}
		}
		return 0, nil
	})
	for _, b := range ref {
		if b == nil {
			return nil // a cell never ran; the failures are already recorded
		}
	}
	return r.checkDigest(digestBytes(bytes.Join(ref, []byte("\n"))))
}

// tracedRound does what Simulation.Run does — fork the warmed master, run
// the measure window, publish the statistics — calling each layer itself so
// every step gets a span. The published statistics must equal the untraced
// rounds' byte for byte, and the three steps must account for at least 95%
// of the round.
func (r *runner) tracedRound(i int, perm []int, cells []cell, masters []*scheme.Instance, refStats [][]byte) error {
	round := time.Now()
	var covered time.Duration
	for _, j := range perm {
		c := cells[j]
		start := time.Now()
		fork := masters[j].Clone()
		covered += r.span("scheme.clone", loopRow, start)
		if fork == nil {
			return fmt.Errorf("%s on %s: master is not clonable", c.Scheme, c.Profile)
		}
		start = time.Now()
		st := fork.Engine.Run(c.Measure, 0)
		covered += r.span("frontend.run", loopRow, start, obs.Arg{Key: "instructions", Value: st.RetiredInstrs})
		start = time.Now()
		reg := stats.NewRegistry()
		fork.PublishStats(reg)
		covered += r.span("scheme.publish", loopRow, start)
		b, err := json.Marshal(reg.Map())
		if err != nil {
			return err
		}
		if refStats[j] != nil && !bytes.Equal(b, refStats[j]) {
			return fmt.Errorf("%s on %s: traced statistics differ from the untraced run's", c.Scheme, c.Profile)
		}
	}
	total := r.span("round", loopRow, round, obs.Arg{Key: "op", Value: i})
	if cov := covered.Seconds() / total.Seconds(); cov < 0.95 {
		return fmt.Errorf("clone, run and publish spans cover %.1f%% of traced round %d, want at least 95%%", 100*cov, i)
	}
	return nil
}

// sweepGrid is the 18×7 grid at the sweeps' footprint and window. Quick
// mode keeps every scheme but only two profiles: each warmed master holds
// a few MB of cache state whatever the window, and tests run every
// workload in one process.
func (r *runner) sweepGrid() []cell {
	if r.opts.quick {
		return smallGrid()
	}
	return grid(gridSchemes, gridProfiles, 512, 150_000, 200_000)
}

func smallGrid() []cell { return grid(gridSchemes, gridProfiles[:2], 64, 2_000, 5_000) }

// pairCells is the sweeps' per-layer probe and the serve workload's hot
// set: Confluence and Boomerang, the paper's two headline schemes, on the
// grid's profiles and footprint (the full grid would hold 126 more warmed
// instances in memory).
func (r *runner) pairCells(warm uint64) []cell {
	pair := []string{"Confluence", "Boomerang"}
	if r.opts.quick {
		return grid(pair, gridProfiles[:2], 64, 2_000, 5_000)
	}
	return grid(pair, gridProfiles, 512, warm, 200_000)
}

// runMatrix runs all through RunMatrix in the order perm gives and returns
// the results in all's order.
func runMatrix(all []*boomsim.Simulation, perm []int, opts ...boomsim.MatrixOption) ([]boomsim.Result, error) {
	grid := make([]*boomsim.Simulation, len(all))
	for k, j := range perm {
		grid[k] = all[j]
	}
	res, err := boomsim.RunMatrix(context.Background(), grid, append(opts, boomsim.WithParallelism(parallelism))...)
	if err != nil {
		return nil, err
	}
	out := make([]boomsim.Result, len(res))
	for k, j := range perm {
		out[j] = res[k]
	}
	return out, nil
}

// sweep-cold: what a one-shot sweep pays. Each operation is a cold pass
// (coldPass): a fresh process runs the 18×7 grid through RunMatrix with the
// public API's defaults, so it generates all 7 images, builds all 126
// schemes, warms each into the warm arena, forks it and measures the
// window. The operation's latency is the child's own time for that, without
// process start-up or its reply; resident_mb is the child's resident set
// after its pass, what such a sweep holds. Every pass must reproduce the
// first byte for byte. Nothing carries over from one pass to the next, so
// set-up only primes the system (the binary's pages, the allocator) with
// whole cold passes over a small grid; a full pass would repeat the
// operation.
func runSweepCold(r *runner) error {
	cells := seeded(r.sweepGrid(), 1)
	small := seeded(smallGrid(), 1)
	for k := 0; k < cheapSetupRepeats; k++ {
		if err := r.timeSetup(func() error {
			_, err := coldPass(small, order(r.opts.seed, -1-k, len(small)), false)
			return err
		}); err != nil {
			return err
		}
	}
	if r.traced {
		if _, err := r.probe(seeded(r.pairCells(cells[0].Warm), 1)); err != nil {
			return err
		}
	}
	var ref []byte
	r.loop(func(i int, traced bool) (time.Duration, error) {
		start := time.Now()
		rep, err := coldPass(cells, order(r.opts.seed, i, len(cells)), traced)
		if err != nil {
			return 0, err
		}
		if traced {
			r.span("bench.cold_pass", loopRow, start)
			if _, err := r.mergeCells(rep.Trace, start); err != nil {
				return 0, err
			}
		} else {
			r.rssMB = append(r.rssMB, rep.ResidentMB)
		}
		if ref == nil {
			ref = rep.Results
		} else if !bytes.Equal(rep.Results, ref) {
			return 0, fmt.Errorf("cold pass %d differs from the first", i)
		}
		return time.Duration(rep.MS * float64(time.Millisecond)), nil
	})
	if ref == nil {
		return nil
	}
	return r.checkDigest(digestBytes(ref))
}

// sweep-rerun: the same 18×7 grid run again in a process that already ran
// it, as a long-lived sweep loop or boomsimd's /v1/matrix does. Set-up is a
// cold pass that warms a master per cell; every operation forks them all,
// and every rerun must reproduce the cold pass byte for byte. All but the
// last set-up run in child processes (coldPass), since a second in-process
// cold pass would only find the masters the first one warmed.
func runSweepRerun(r *runner) error {
	cells := seeded(r.sweepGrid(), 1)
	all, err := sims(cells)
	if err != nil {
		return err
	}
	var ref []byte
	for k := 0; k < setupRepeats; k++ {
		perm := order(r.opts.seed, -1-k, len(cells))
		if err := r.timeSetup(func() error {
			if k < setupRepeats-1 {
				_, err := coldPass(cells, perm, false)
				return err
			}
			res, err := runMatrix(all, perm)
			if err != nil {
				return err
			}
			if err := checkGrid(cells, res); err != nil {
				return err
			}
			ref, err = json.Marshal(res)
			return err
		}); err != nil {
			return err
		}
	}
	if err := r.checkDigest(digestBytes(ref)); err != nil {
		return err
	}
	if r.traced {
		if _, err := r.probe(seeded(r.pairCells(cells[0].Warm), 1)); err != nil {
			return err
		}
	}
	r.loop(func(i int, traced bool) (time.Duration, error) {
		perm := order(r.opts.seed, i, len(cells))
		var res []boomsim.Result
		var err error
		if traced {
			res, err = r.tracedMatrix(all, perm)
		} else {
			res, err = runMatrix(all, perm)
		}
		if err != nil {
			return 0, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b, ref) {
			return 0, fmt.Errorf("rerun %d differs from the cold pass", i)
		}
		return 0, nil
	})
	return nil
}

// tracedMatrix runs one pass with RunMatrix's own per-cell spans and copies
// them into the run's trace under a span for the whole call.
func (r *runner) tracedMatrix(all []*boomsim.Simulation, perm []int) ([]boomsim.Result, error) {
	tr := boomsim.NewTrace()
	start := time.Now()
	res, err := runMatrix(all, perm, boomsim.WithMatrixTrace(tr))
	r.span("boomsim.run_matrix", loopRow, start)
	if err != nil {
		return nil, err
	}
	trace, err := chromeJSON(tr)
	if err != nil {
		return nil, err
	}
	if _, err := r.mergeCells(trace, start); err != nil {
		return nil, err
	}
	return res, nil
}

// checkGrid verifies that a pass returned one complete result per cell, in
// order.
func checkGrid(cells []cell, res []boomsim.Result) error {
	if len(res) != len(cells) {
		return fmt.Errorf("got %d results for %d cells", len(res), len(cells))
	}
	for i, c := range cells {
		x := res[i]
		if x.Scheme != c.Scheme || x.Workload != c.Profile || x.Instructions < c.Measure || x.Cycles <= 0 {
			return fmt.Errorf("cell %d (%s on %s): implausible result: %s on %s, %d instructions, %d cycles",
				i, c.Scheme, c.Profile, x.Scheme, x.Workload, x.Instructions, x.Cycles)
		}
	}
	return nil
}
