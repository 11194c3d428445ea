package scheme

import (
	"fmt"

	"boomsim/internal/bpu"
	"boomsim/internal/btb"
	"boomsim/internal/cache"
	"boomsim/internal/config"
	"boomsim/internal/core"
	"boomsim/internal/frontend"
	"boomsim/internal/isa"
	"boomsim/internal/prefetch"
	"boomsim/internal/program"
	"boomsim/internal/stats"
)

// Env is everything a scheme needs to instantiate.
type Env struct {
	// Cfg is the core configuration (Table I).
	Cfg config.Core
	// Img is the workload's code image.
	Img *program.Image
	// WalkSeed seeds the oracle execution.
	WalkSeed uint64
	// Predictor overrides the scheme's direction predictor: "tage",
	// "bimodal", or "never-taken" (the Figure 2 study). Empty defers to the
	// scheme Config, then TAGE.
	Predictor string
}

// Instance is a built scheme: the engine plus handles to scheme-specific
// components for statistics.
type Instance struct {
	Engine *frontend.Engine
	Hier   *cache.Hierarchy
	BTB    *btb.BTB
	// Dir is the direction predictor the engine predicts with.
	Dir bpu.Direction
	// Boom is non-nil for Boomerang configurations.
	Boom *core.Boomerang
	// TwoLvl is non-nil for hierarchical-BTB configurations (2-Level BTB,
	// PhantomBTB).
	TwoLvl *btb.TwoLevel
	// Predec is non-nil for schemes with a standalone predecoder
	// (Confluence's fill-path predecode).
	Predec *btb.Predecoder
	// PF is the history-based prefetcher, if any.
	PF frontend.Prefetcher
}

// PublishStats walks every component the instance owns and has each one
// register its counters under its own namespace of reg — the measurement
// plane the whole stack (sim.Result, the public API, boomsimd, the cluster,
// the CLIs) reports from.
func (i *Instance) PublishStats(reg *stats.Registry) {
	i.Engine.PublishStats(reg)
	i.Hier.PublishStats(reg.Namespace("cache"))
	i.BTB.PublishStats(reg.Namespace("btb"))
	if i.Boom != nil {
		i.Boom.PublishStats(reg.Namespace("boomerang"))
	}
	if i.TwoLvl != nil {
		i.TwoLvl.PublishStats(reg.Namespace("btb2"))
	}
	if i.Predec != nil {
		i.Predec.PublishStats(reg.Namespace("predecode"))
	}
	if p, ok := i.PF.(stats.Publisher); ok {
		p.PublishStats(reg.Namespace("prefetch"))
	}
}

func newDirection(name string, kb int) bpu.Direction {
	switch name {
	case "", "tage":
		return bpu.NewTAGE(kb)
	case "bimodal":
		return bpu.NewBimodal(8192)
	case "never-taken":
		return bpu.NewNeverTaken()
	}
	panic(fmt.Sprintf("scheme: unknown predictor %q", name))
}

// attachPredecodeFillHook wires Confluence's fill-path predecode: every line
// filled into the hierarchy is decoded and its branches inserted into the
// BTB. The hook runs inside the per-cycle hierarchy tick; it decodes into a
// reused scratch buffer to honour the zero-alloc contract. Build installs it
// on fresh instances and Instance.Clone re-attaches it on forks (the closure
// captures the predecoder and BTB, so it cannot be copied between instances).
func attachPredecodeFillHook(hier *cache.Hierarchy, dec *btb.Predecoder, b *btb.BTB) {
	var scratch []btb.Entry
	hier.SetFillHook(func(line cache.Line, now int64) {
		scratch = dec.AppendLine(scratch[:0], isa.Addr(line)*isa.BlockBytes)
		for _, entry := range scratch {
			b.Insert(entry, now)
		}
	})
}

// Build interprets the declarative Config against env and assembles the
// machine: hierarchy, BTB, predictor, oracle walker, optional prefetcher and
// miss policy, all wired into a front-end engine. It is the one generic
// builder every scheme — built-in or user-authored — goes through; there are
// no per-scheme construction closures.
//
// Build panics on configs Validate rejects; callers constructing configs
// from external input must Validate first.
func (c Config) Build(env Env) *Instance {
	hier := cache.NewHierarchy(env.Cfg, c.LLCReservedKB)
	btbEntries := c.BTBEntries
	if btbEntries == 0 {
		btbEntries = env.Cfg.BTBEntries
	}
	b := btb.New(btbEntries, env.Cfg.BTBAssoc)
	predictor := env.Predictor
	if predictor == "" {
		predictor = c.Predictor
	}
	dir := newDirection(predictor, env.Cfg.TAGEStorageKB)
	inst := &Instance{Hier: hier, BTB: b, Dir: dir}

	if p := c.Prefetcher; p != nil {
		switch p.Kind {
		case PrefetchNextLine:
			degree := p.Degree
			if degree == 0 {
				degree = 2
			}
			inst.PF = prefetch.NewNextLine(hier, degree)
		case PrefetchDIP:
			entries := p.TableEntries
			if entries == 0 {
				entries = 8192
			}
			inst.PF = prefetch.NewDIP(hier, entries)
		case PrefetchTemporal:
			tcfg := prefetch.DefaultPIFConfig()
			if p.Temporal != nil {
				tcfg = *p.Temporal
			}
			if p.MetadataInLLC {
				tcfg.MetadataLatency = hier.LLCRoundTrip()
			}
			inst.PF = prefetch.NewTemporal(hier, tcfg)
		default:
			panic(fmt.Sprintf("scheme: unknown prefetcher kind %q", p.Kind))
		}
	}

	if c.PredecodeBTBFills {
		dec := btb.NewPredecoder(env.Img)
		attachPredecodeFillHook(hier, dec, b)
		inst.Predec = dec
	}

	var handler frontend.MissHandler
	if m := c.MissPolicy; m != nil {
		switch m.Kind {
		case MissPolicyBoomerang:
			bcfg := core.DefaultConfig()
			if m.Boomerang != nil {
				bcfg = *m.Boomerang
			}
			boom := core.New(bcfg, hier, btb.NewPredecoder(env.Img))
			boom.SetBTB(b)
			handler, inst.Boom = boom, boom
		case MissPolicyTwoLevel:
			tcfg := btb.BulkPreloadConfig()
			if m.TwoLevel != nil {
				tcfg = *m.TwoLevel
			}
			if m.L2InLLC {
				tcfg.L2Latency = hier.LLCRoundTrip()
			}
			tl := btb.NewTwoLevel(tcfg, b)
			handler, inst.TwoLvl = tl, tl
		case MissPolicyPerfect:
			handler = &PerfectBTB{Img: env.Img}
		default:
			panic(fmt.Sprintf("scheme: unknown miss policy kind %q", m.Kind))
		}
	}

	inst.Engine = frontend.New(frontend.Options{
		Config: env.Cfg, Image: env.Img, WalkSeed: env.WalkSeed,
		Hierarchy: hier, Direction: dir, BTB: b,
		MissHandler: handler, Prefetcher: inst.PF,
		FDIPProbes: c.FDIPProbes, PerfectL1: c.PerfectL1,
		DecoupledDepth: c.FTQDepth,
	})
	return inst
}
