package sim

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"boomsim/internal/config"
	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// immutableTypes are the only storage a fork may share with its master:
// data nothing writes once built. The code image is generated once and
// read by every component; PerfectBTB resolves misses from that image and
// holds nothing else. Config values are plain data copied by value, so
// they reach no storage the walk could see.
var immutableTypes = map[reflect.Type]bool{
	reflect.TypeFor[*program.Image]():     true,
	reflect.TypeFor[*scheme.PerfectBTB](): true,
}

// span is one allocation reachable from a root, a pointed-to value or a
// slice's backing array (cap × element size), with the path it was first
// reached by.
type span struct {
	lo, hi uintptr
	path   string
}

// reach walks everything a value can reach, unexported fields included,
// and records each allocation as a span. Strings are immutable and skipped.
// Func fields are skipped too: they are the hierarchy's fill hook, which
// Clone never copies but re-attaches, bound to the fork's own components
// (scheme.Instance.Clone), so the closure's captures are the fork's. Warm
// state holds no Go map, so every component forks by copying flat arrays;
// reaching a map, a channel or an unsafe pointer fails the walk.
type reach struct {
	spans   []span
	visited map[visit]bool
	t       *testing.T
}

type visit struct {
	addr uintptr
	typ  reflect.Type
}

func reachable(t *testing.T, root any) []span {
	r := &reach{visited: map[visit]bool{}, t: t}
	r.walk(reflect.ValueOf(root), "")
	return r.spans
}

// enter records an allocation and reports whether it is the first visit
// of that address as that type.
func (r *reach) enter(addr, size uintptr, typ reflect.Type, path string) bool {
	if r.visited[visit{addr, typ}] {
		return false
	}
	r.visited[visit{addr, typ}] = true
	if size > 0 {
		r.spans = append(r.spans, span{addr, addr + size, path})
	}
	return true
}

func (r *reach) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || immutableTypes[v.Type()] {
			return
		}
		if r.enter(v.Pointer(), v.Type().Elem().Size(), v.Type(), path) {
			r.walk(v.Elem(), path)
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		elem := v.Type().Elem()
		if r.enter(v.Pointer(), uintptr(v.Cap())*elem.Size(), v.Type(), path) && hasRefs(elem) {
			// Slots past len may still hold references (a ring's stale
			// slots), so walk the whole capacity.
			all := v.Slice(0, v.Cap())
			for i := range all.Len() {
				r.walk(all.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Interface:
		if !v.IsNil() {
			r.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			r.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		if hasRefs(v.Type().Elem()) {
			for i := range v.Len() {
				r.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Map, reflect.Chan, reflect.UnsafePointer:
		r.t.Fatalf("%s: warm state holds a %s", path, v.Type())
	}
}

// hasRefs reports whether a value of type t can reach other storage the
// walk must follow.
func hasRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		for i := range t.NumField() {
			if hasRefs(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return hasRefs(t.Elem())
	}
	return false
}

// union sorts spans and merges the overlapping ones (a pointer into a slab
// lies inside the slab's span), keeping the lowest span's path.
func union(s []span) []span {
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []span
	for _, sp := range s {
		if n := len(out); n > 0 && sp.lo < out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, sp.hi)
			continue
		}
		out = append(out, sp)
	}
	return out
}

// requireNoSharedStorage fails if master and fork reach a common
// allocation other than the immutable types.
func requireNoSharedStorage(t *testing.T, master, fork *scheme.Instance) {
	t.Helper()
	m := union(reachable(t, master))
	for _, f := range reachable(t, fork) {
		i := sort.Search(len(m), func(i int) bool { return m[i].hi > f.lo })
		if i < len(m) && m[i].lo < f.hi {
			t.Fatalf("fork shares storage with its master: fork%s overlaps master%s", f.path, m[i].path)
		}
	}
}

// footprint sums the bytes reachable from an instance, each allocation
// counted once: what holding it as a warm master costs, with the shared
// image left out. It is deterministic, unlike heap growth measured
// around a build.
func footprint(t *testing.T, inst *scheme.Instance) uintptr {
	var total uintptr
	for _, sp := range union(reachable(t, inst)) {
		total += sp.hi - sp.lo
	}
	return total
}

// TestCloneSharesNoMutableStorage walks every built-in scheme's warmed
// master and a fork of it and requires that the two reach no common
// pointer target or slice backing array, apart from the immutable image,
// and no Go map at all. A Clone that forgets to deep-copy a field fails here at once,
// before the shared field changes any result. The fork is also run, so a
// clone whose first steps write through to the master would still show up
// in TestForkMatchesFreshWarm.
func TestCloneSharesNoMutableStorage(t *testing.T) {
	w := fastProfile("Apache")
	w.Gen.FootprintKB = 128
	for _, s := range builtinSchemes() {
		t.Run(s.Name, func(t *testing.T) {
			spec := DefaultSpec(s, w)
			spec.WarmInstrs = 20_000
			master, err := WarmInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			fork := master.Clone()
			if fork == nil {
				t.Fatalf("%s: instance not clonable", s.Name)
			}
			requireNoSharedStorage(t, master, fork)
			fork.Engine.Run(5_000, 0)
			requireNoSharedStorage(t, master, fork)
		})
	}
}

// TestWarmMasterFootprint pins what one warm master holds, as the warm
// arena keeps it: the compacted clone of the scheme warmed for 50K
// instructions on a 512 KB Apache image (the setting of boomsimd's
// serve-mixed misses), and for 200K on DB2's 5 MB image. Each bound is the
// footprint measured when the BTBs and the cache tag stores began to hold
// per-set chunks, plus 10%. Before that a Confluence master on Apache held
// about 1.02 MB, and 1.6 MB before the temporal history followed occupancy.
func TestWarmMasterFootprint(t *testing.T) {
	apache, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("Apache profile missing")
	}
	apache.Gen.FootprintKB = 512
	db2, ok := workload.ByName("DB2")
	if !ok {
		t.Fatal("DB2 profile missing")
	}
	for _, c := range []struct {
		scheme scheme.Config
		w      workload.Profile
		warm   uint64
		bytes  uintptr // measured
	}{
		{scheme.Confluence(), apache, 50_000, 451_504},
		{scheme.SHIFT(), apache, 50_000, 405_656},
		{scheme.PIF(), apache, 50_000, 404_504},
		{scheme.PhantomBTBScheme(), apache, 50_000, 432_872},
		{scheme.Boomerang(), apache, 50_000, 392_424},
		{scheme.TwoLevelBTB(), apache, 50_000, 423_144},
		{scheme.FDIP(), apache, 50_000, 386_552},
		{scheme.Base(), apache, 50_000, 376_760},
		{scheme.DIP(), apache, 50_000, 508_136},
		{scheme.Confluence(), db2, 200_000, 3_896_976},
		{scheme.Boomerang(), db2, 200_000, 3_593_912},
	} {
		name := c.scheme.Name
		if c.w.Name != apache.Name {
			name += " on " + c.w.Name
		}
		t.Run(name, func(t *testing.T) {
			spec := DefaultSpec(c.scheme, c.w)
			spec.WarmInstrs = c.warm
			master, _, err := warmMaster(context.Background(), spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := footprint(t, master)
			t.Logf("%s master: %d bytes", name, got)
			if bound := c.bytes + c.bytes/10; got > bound {
				t.Fatalf("%s master holds %d bytes, bound %d (measured %d + 10%%)", name, got, bound, c.bytes)
			}
		})
	}
}

// TestBTBsAtTheCapsHoldOnlySetArrays pins what a config at the validation
// caps costs before it runs. A first-level BTB and a second level of 1<<20
// entries each would take 2 x 32 MB if their ways were allocated at
// capacity, and an arena of 256 such masters 16 GB; until entries are
// written each holds only its per-set offsets and fills, 6 bytes per set.
func TestBTBsAtTheCapsHoldOnlySetArrays(t *testing.T) {
	s := scheme.TwoLevelBTB()
	s.Name = "2-Level BTB at the caps"
	s.BTBEntries = 1 << 20
	s.MissPolicy.TwoLevel.L2Entries = 1 << 20
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	w := fastProfile("Apache")
	w.Gen.FootprintKB = 64
	img, err := imageFor(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	inst := s.Build(scheme.Env{Cfg: cfg, Img: img, WalkSeed: 1})
	if got := inst.BTB.Entries(); got != 1<<20 {
		t.Fatalf("first level has %d entries, want %d", got, 1<<20)
	}
	var got uintptr
	for _, sp := range union(append(reachable(t, inst.BTB), reachable(t, inst.TwoLvl)...)) {
		got += sp.hi - sp.lo
	}
	sets := 2 * (1 << 20) / cfg.BTBAssoc
	if want := uintptr(6*sets) + 1024; got > want {
		t.Fatalf("the two BTB levels hold %d bytes before any entry is written, want at most %d (6 per set for %d sets, plus 1 KB)",
			got, want, sets)
	}
}

// TestImageFootprint pins what one cached code image costs: a Block's size
// and the bytes reachable from a DB2 image at its own 5 MB footprint and an
// Apache image at 512 KB (the size boomsimd's serve-mixed requests use),
// each bound the measured footprint plus 10%. Every block used to carry an
// indirect-target slice header and an address hash indexed every block
// start: 80 bytes a block, 36,055,212 bytes for the DB2 image and 2,347,116
// for the Apache one.
func TestImageFootprint(t *testing.T) {
	if got := unsafe.Sizeof(program.Block{}); got > 40 {
		t.Errorf("program.Block is %d bytes, want at most 40", got)
	}
	apache, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("Apache profile missing")
	}
	apache.Gen.FootprintKB = 512
	db2, ok := workload.ByName("DB2")
	if !ok {
		t.Fatal("DB2 profile missing")
	}
	for _, c := range []struct {
		w     workload.Profile
		bytes uintptr // measured
	}{
		{apache, 980_340},
		{db2, 14_311_508},
	} {
		t.Run(c.w.Name, func(t *testing.T) {
			img, err := c.w.Image(1)
			if err != nil {
				t.Fatal(err)
			}
			var got uintptr
			for _, sp := range union(reachable(t, *img)) {
				got += sp.hi - sp.lo
			}
			t.Logf("%s %d KB image: %d blocks, %d bytes", c.w.Name, c.w.Gen.FootprintKB, len(img.Blocks), got)
			if bound := c.bytes + c.bytes/10; got > bound {
				t.Fatalf("%s image holds %d bytes, bound %d (measured %d + 10%%)", c.w.Name, got, bound, c.bytes)
			}
		})
	}
}
