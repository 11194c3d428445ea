package scheme

import (
	"fmt"

	"boomsim/internal/bpu"
	"boomsim/internal/cache"
	"boomsim/internal/frontend"
	"boomsim/internal/prefetch"
)

// Clone returns an independent deep copy of a built (and possibly warmed)
// instance: the fork and the original simulate identically from this point
// while sharing no mutable state, so a fork of a warmed instance is
// indistinguishable from a fresh warm of the same spec. Build makes only
// components Clone knows, so a component type without a case here panics:
// a new component must say how it is copied, or every fork of it would
// silently re-warm.
//
// Cross-component wiring is re-established on the clones: the Boomerang unit
// and hierarchical BTB point at the cloned L1 BTB and hierarchy, Confluence's
// fill hook (a closure, deliberately dropped by Hierarchy.Clone) is
// re-attached around the cloned predecoder, and the engine is wired to all
// of the above via frontend.CloneDeps.
func (i *Instance) Clone() *Instance {
	hier := i.Hier.Clone()
	b := i.BTB.Clone()
	dir := cloneDirection(i.Dir)
	c := &Instance{Hier: hier, BTB: b, Dir: dir}
	if i.PF != nil {
		c.PF = clonePrefetcher(i.PF, hier)
	}
	var handler frontend.MissHandler
	switch {
	case i.Boom != nil:
		boom := i.Boom.Clone(hier, b)
		handler, c.Boom = boom, boom
	case i.TwoLvl != nil:
		tl := i.TwoLvl.Clone(b)
		handler, c.TwoLvl = tl, tl
	default:
		switch m := i.Engine.MissPolicy().(type) {
		case nil:
			// Conventional front end; nothing to clone.
		case *PerfectBTB:
			handler = m // stateless over an immutable image: safe to share
		default:
			panic(fmt.Sprintf("scheme: Clone: unknown miss handler %T", m))
		}
	}
	if i.Predec != nil {
		c.Predec = i.Predec.Clone()
		attachPredecodeFillHook(hier, c.Predec, b)
	}
	c.Engine = i.Engine.Clone(frontend.CloneDeps{
		Hierarchy:   hier,
		Direction:   dir,
		BTB:         b,
		MissHandler: handler,
		Prefetcher:  c.PF,
	})
	return c
}

func cloneDirection(d bpu.Direction) bpu.Direction {
	switch v := d.(type) {
	case *bpu.TAGE:
		return v.Clone()
	case *bpu.Bimodal:
		return v.Clone()
	case *bpu.NeverTaken:
		return v.Clone()
	}
	panic(fmt.Sprintf("scheme: Clone: unknown direction predictor %T", d))
}

func clonePrefetcher(p frontend.Prefetcher, hier *cache.Hierarchy) frontend.Prefetcher {
	switch v := p.(type) {
	case *prefetch.NextLine:
		return v.CloneFor(hier)
	case *prefetch.DIP:
		return v.CloneFor(hier)
	case *prefetch.Temporal:
		return v.CloneFor(hier)
	}
	panic(fmt.Sprintf("scheme: Clone: unknown prefetcher %T", p))
}
