package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"boomsim"
	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/core"
	"boomsim/internal/isa"
	"boomsim/internal/obs"
	"boomsim/internal/prefetch"
	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/sim"
	"boomsim/internal/stats"
	"boomsim/internal/workload"
)

// probe measures the per-layer metrics on a workload's own configurations:
// it calls each module's public functions from here, records a span around
// every call, and returns the warmed masters it built so the traced loop
// can fork them.
func (r *runner) probe(cells []cell) ([]*scheme.Instance, error) {
	specs := make([]sim.Spec, len(cells))
	for j, c := range cells {
		var err error
		if specs[j], err = c.spec(); err != nil {
			return nil, err
		}
	}

	// program: one image per distinct profile, footprint and seed; first
	// holds the first spec that uses each.
	type imageKey struct {
		profile string
		kb      int
		seed    uint64
	}
	keyOf := func(s sim.Spec) imageKey {
		return imageKey{s.Workload.Name, s.Workload.Gen.FootprintKB, s.ImageSeed}
	}
	images := map[imageKey]*program.Image{}
	var first []sim.Spec
	var gen time.Duration
	for _, s := range specs {
		if images[keyOf(s)] != nil {
			continue
		}
		start := time.Now()
		img, err := s.Workload.Image(s.ImageSeed)
		gen += r.span("program.generate", probeRow, start, obs.Arg{Key: "profile", Value: s.Workload.Name})
		if err != nil {
			return nil, err
		}
		images[keyOf(s)] = img
		first = append(first, s)
		// Put the image in internal/sim's image cache too, untimed, so the
		// warm timing below excludes generation.
		tiny := s
		tiny.WarmInstrs, tiny.MeasureInstrs, tiny.ReuseWarm = 0, 1, false
		if _, err := sim.Run(tiny); err != nil {
			return nil, err
		}
	}
	r.layer("program.generate_ms", ms(gen)/float64(len(first)))

	steps := 100_000
	if r.opts.quick {
		steps = 5_000
	}
	var walk time.Duration
	for _, s := range first {
		w := workload.NewWalker(images[keyOf(s)], s.WalkSeed)
		start := time.Now()
		for i := 0; i < steps; i++ {
			sinkAddr ^= w.Next().Target
		}
		walk += r.span("program.walker", probeRow, start, obs.Arg{Key: "steps", Value: steps})
	}
	r.layer("program.walker_ns_per_step", float64(walk.Nanoseconds())/float64(steps*len(first)))

	var build time.Duration
	for j, s := range specs {
		start := time.Now()
		s.Scheme.Build(scheme.Env{Cfg: s.Cfg, Img: images[keyOf(s)], WalkSeed: s.WalkSeed, Predictor: s.Predictor})
		build += r.span("scheme.build", probeRow, start, obs.Arg{Key: "cell", Value: j})
	}
	r.layer("scheme.build_ms", ms(build)/float64(len(specs)))

	masters := make([]*scheme.Instance, len(specs))
	var warm time.Duration
	for j, s := range specs {
		start := time.Now()
		var err error
		masters[j], err = sim.WarmInstance(s)
		warm += r.span("sim.warm", probeRow, start, obs.Arg{Key: "cell", Value: j})
		if err != nil {
			return nil, err
		}
	}
	r.layer("sim.warm_ms", ms(warm)/float64(len(specs)))

	// frontend: fork each master, run its measure window, publish.
	var clone, run, publish time.Duration
	var instrs, cycles, ticked, skipped float64
	var calls callCounts
	for j, s := range specs {
		start := time.Now()
		fork := masters[j].Clone()
		clone += r.span("scheme.clone", probeRow, start, obs.Arg{Key: "cell", Value: j})
		if fork == nil {
			return nil, fmt.Errorf("%s on %s: master is not clonable", cells[j].Scheme, cells[j].Profile)
		}
		start = time.Now()
		st := fork.Engine.Run(s.MeasureInstrs, 0)
		run += r.span("frontend.run", probeRow, start, obs.Arg{Key: "cell", Value: j})
		start = time.Now()
		reg := stats.NewRegistry()
		fork.PublishStats(reg)
		publish += r.span("scheme.publish", probeRow, start, obs.Arg{Key: "cell", Value: j})

		skip := float64(fork.Engine.SkippedCycles())
		instrs += float64(st.RetiredInstrs)
		cycles += float64(st.Cycles)
		skipped += skip
		ticked += float64(st.Cycles) - skip
		calls.add(reg.Map(), float64(st.Cycles)-skip)
	}
	nsPerInstr := float64(run.Nanoseconds()) / instrs
	r.layer("scheme.clone_ms", ms(clone)/float64(len(specs)))
	r.layer("scheme.publish_ms", ms(publish)/float64(len(specs)))
	r.layer("frontend.ns_per_instr", nsPerInstr)
	r.layer("frontend.ns_per_ticked_cycle", float64(run.Nanoseconds())/ticked)
	r.layer("frontend.skipped_cycle_pct", 100*skipped/cycles)
	r.layer("frontend.cpi", cycles/instrs)

	// boomsim: the same cells through RunMatrix, whose cell spans give the
	// per-cell time and the pool's idle share.
	grid, err := sims(cells)
	if err != nil {
		return nil, err
	}
	tr := boomsim.NewTrace()
	start := time.Now()
	if _, err := boomsim.RunMatrix(context.Background(), grid,
		boomsim.WithParallelism(parallelism), boomsim.WithMatrixTrace(tr)); err != nil {
		return nil, err
	}
	wall := r.span("boomsim.run_matrix", probeRow, start)
	trace, err := chromeJSON(tr)
	if err != nil {
		return nil, err
	}
	cellMS, err := r.mergeCells(trace, start)
	if err != nil {
		return nil, err
	}
	var busy float64
	for _, d := range cellMS {
		busy += d
	}
	r.layer("sim.cell_p50_ms", median(cellMS))
	r.layer("sim.cell_p90_ms", percentile(cellMS, 90))
	r.layer("boomsim.matrix_idle_pct", 100*(1-busy/(ms(wall)*parallelism)))

	// Component kernels: each image's committed path replayed through fresh
	// instances, timed per call.
	var k kernels
	for _, s := range first {
		start := time.Now()
		k.replay(images[keyOf(s)], s.Cfg, s.WalkSeed, steps)
		r.span("kernels.replay", probeRow, start, obs.Arg{Key: "profile", Value: s.Workload.Name})
	}
	attributed := 0.0
	for _, kn := range []struct {
		name  string
		calls float64
	}{
		// The registry counts no direction-predictor calls: use the replay's
		// committed conditional branches.
		{"bpu.predict_update", 1000 * k.conds / k.instrs},
		{"btb.lookup", 1000 * calls.btbLookups / instrs},
		{"btb.predecode", 1000 * calls.probes / instrs},
		{"core.handle", 1000 * calls.handles / instrs},
		{"cache.demand", 1000 * calls.demands / instrs},
		{"cache.next_event", 1000 * calls.nextEvents / instrs},
		{"prefetch.retire", 1000 * calls.retires / instrs},
	} {
		ns := k.nsPerCall(kn.name)
		est := 100 * ns * kn.calls / 1000 / nsPerInstr
		attributed += est
		r.layer(kn.name+"_ns", ns)
		r.layer(kn.name+"_calls_per_kinstr", kn.calls)
		r.layer(kn.name+"_est_pct", est)
	}
	r.layer("frontend.unattributed_pct", 100-attributed)

	if err := r.probeServer(cells); err != nil {
		return nil, err
	}
	return masters, nil
}

// callCounts sums, over the probe's runs, how often the engine called each
// kernel, from each run's statistics registry. Where the registry has no
// counter for a call, the field's comment says what stands in for it.
type callCounts struct {
	btbLookups float64 // btb.hits + btb.misses: every BTB.Lookup
	probes     float64 // boomerang.probes: one ResolveMiss each
	handles    float64 // btb.misses of Boomerang runs: every miss reaches Handle
	demands    float64 // cache.demand_accesses
	nextEvents float64 // ticked cycles: an upper bound, one skip check per loop turn
	retires    float64 // frontend.demand_line_accesses of temporal-prefetcher runs
}

func (c *callCounts) add(m map[string]float64, ticked float64) {
	c.btbLookups += m["btb.hits"] + m["btb.misses"]
	if _, ok := m["boomerang.probes"]; ok {
		c.probes += m["boomerang.probes"]
		c.handles += m["btb.misses"]
	}
	c.demands += m["cache.demand_accesses"]
	c.nextEvents += ticked
	if _, ok := m["prefetch.replayed"]; ok {
		c.retires += m["frontend.demand_line_accesses"]
	}
}

func chromeJSON(tr *boomsim.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := tr.WriteChromeTrace(&buf)
	return buf.Bytes(), err
}

// mergeCells copies RunMatrix's per-cell spans from a Chrome trace of one
// pass into the run's trace (on rows from cellRow, starting at the pass's
// start) and returns each cell's duration in milliseconds.
func (r *runner) mergeCells(trace []byte, start time.Time) ([]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return nil, fmt.Errorf("reading matrix trace: %w", err)
	}
	var out []float64
	for _, e := range doc.TraceEvents {
		if e.Name != "cell" || e.Ph != "X" {
			continue
		}
		d := time.Duration(e.Dur) * time.Microsecond
		out = append(out, ms(d))
		if r.col != nil {
			r.col.Add(obs.Span{
				Name: "boomsim.cell", Cat: "sweep",
				Start: start.Add(time.Duration(e.TS) * time.Microsecond), Dur: d,
				TID: cellRow + e.TID,
				Args: []obs.Arg{
					{Key: "scheme", Value: e.Args["scheme"]},
					{Key: "workload", Value: e.Args["workload"]},
					{Key: "warm", Value: e.Args["warm"]},
				},
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("matrix trace holds no cell spans")
	}
	return out, nil
}

// percentile is the nearest-rank p-th percentile.
func percentile(values []float64, p float64) float64 {
	d := sorted(values)
	i := int(float64(len(d))*p/100+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

// Sinks keep the compiler from discarding timed calls' results.
var (
	sinkAddr  isa.Addr
	sinkCycle int64
)

// kernels accumulates per-call host time of the component kernels.
type kernels struct {
	ns     map[string]float64
	calls  map[string]float64
	conds  float64 // committed conditional branches replayed
	instrs float64 // instructions replayed
}

func (k *kernels) add(name string, d time.Duration, calls int) {
	if k.ns == nil {
		k.ns, k.calls = map[string]float64{}, map[string]float64{}
	}
	k.ns[name] += float64(d.Nanoseconds())
	k.calls[name] += float64(calls)
}

func (k *kernels) nsPerCall(name string) float64 { return k.ns[name] / k.calls[name] }

// replay walks n committed steps of img and drives each kernel with them
// through fresh component instances built from cfg:
//   - bpu: TAGE Predict, Update and Shift on every conditional branch;
//   - btb: Lookup of every block (inserting on a miss), and the
//     predecoder's miss resolution on every address that missed;
//   - core: Boomerang.Handle on the same miss addresses, ticking the
//     hierarchy between calls;
//   - cache: Demand of every fetched line with Tick, and NextEvent probed in
//     bursts between groups of demands;
//   - prefetch: the temporal streamer's OnRetire on every fetched line.
func (k *kernels) replay(img *program.Image, cfg config.Core, walkSeed uint64, n int) {
	w := workload.NewWalker(img, walkSeed)
	steps := make([]program.Step, n)
	var lines []cache.Line
	for i := range steps {
		s := w.Next()
		steps[i] = s
		k.instrs += float64(s.Block.NInstr)
		first := cache.LineOf(s.Block.Addr)
		last := cache.LineOf(s.Block.Addr + isa.Addr(s.Block.NInstr-1)*isa.InstrBytes)
		for l := first; l <= last; l++ {
			lines = append(lines, l)
		}
	}
	imageLines := make([]cache.Line, 0, (img.Limit-img.Base)/isa.BlockBytes+1)
	for a := img.Base; a < img.Limit; a += isa.BlockBytes {
		imageLines = append(imageLines, cache.LineOf(a))
	}
	hierarchy := func() *cache.Hierarchy {
		h := cache.NewHierarchy(cfg, 0)
		h.WarmLLC(imageLines)
		return h
	}

	type cond struct {
		pc    isa.Addr
		taken bool
	}
	var conds []cond
	for _, s := range steps {
		if s.Block.Term.Kind == isa.CondDirect {
			conds = append(conds, cond{s.Block.BranchPC(), s.Taken})
		}
	}
	k.conds += float64(len(conds))
	tage := bpu.NewTAGE(cfg.TAGEStorageKB)
	start := time.Now()
	for _, c := range conds {
		p := tage.Predict(c.pc)
		tage.Update(p, c.pc, c.taken)
		tage.Shift(c.taken)
	}
	k.add("bpu.predict_update", time.Since(start), len(conds))

	entry := func(s program.Step) btb.Entry {
		return btb.Entry{Start: s.Block.Addr, NInstr: s.Block.NInstr, Kind: s.Block.Term.Kind, Target: s.Block.Term.Target}
	}
	var misses []isa.Addr
	scratch := btb.New(cfg.BTBEntries, cfg.BTBAssoc)
	for i, s := range steps {
		if _, hit := scratch.Lookup(s.Block.Addr, int64(i)); !hit {
			misses = append(misses, s.Block.Addr)
			scratch.Insert(entry(s), int64(i))
		}
	}
	b := btb.New(cfg.BTBEntries, cfg.BTBAssoc)
	start = time.Now()
	for i, s := range steps {
		if _, hit := b.Lookup(s.Block.Addr, int64(i)); !hit {
			b.Insert(entry(s), int64(i))
		}
	}
	k.add("btb.lookup", time.Since(start), len(steps))

	bcfg := core.DefaultConfig()
	dec := btb.NewPredecoder(img)
	var extras []btb.Entry
	var scanned []isa.Addr
	start = time.Now()
	for _, pc := range misses {
		_, extras, scanned = dec.AppendResolveMiss(pc, bcfg.MaxScanLines, extras[:0], scanned[:0])
	}
	k.add("btb.predecode", time.Since(start), len(misses))

	h := hierarchy()
	boom := core.New(bcfg, h, btb.NewPredecoder(img))
	boom.SetBTB(btb.New(cfg.BTBEntries, cfg.BTBAssoc))
	now := int64(0)
	start = time.Now()
	for _, pc := range misses {
		now += 4
		h.Tick(now)
		if _, resume, ok := boom.Handle(pc, now); ok && resume > now {
			now = resume
		}
	}
	k.add("core.handle", time.Since(start), len(misses))

	h = hierarchy()
	now = 0
	const group, burst = 64, 256
	var demand, next time.Duration
	for i := 0; i < len(lines); i += group {
		t0 := time.Now()
		for _, l := range lines[i:min(i+group, len(lines))] {
			h.Tick(now)
			if ready, _ := h.Demand(l, now); ready > now+int64(cfg.L1ILatency) {
				now = ready
			} else {
				now++
			}
		}
		t1 := time.Now()
		for j := 0; j < burst; j++ {
			sinkCycle ^= h.NextEvent()
		}
		demand += t1.Sub(t0)
		next += time.Since(t1)
	}
	k.add("cache.demand", demand, len(lines))
	k.add("cache.next_event", next, burst*((len(lines)+group-1)/group))

	tp := prefetch.NewTemporal(cache.NewHierarchy(cfg, 0), prefetch.DefaultPIFConfig())
	start = time.Now()
	for i, l := range lines {
		tp.OnRetire(l, int64(i))
	}
	k.add("prefetch.retire", time.Since(start), len(lines))
}
