package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

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
// arena keeps it: the scheme warmed for 50K instructions on a 512 KB Apache
// image, the setting of boomsimd's serve-mixed misses. Each bound is the
// footprint measured when the temporal history, the PhantomBTB ring and
// the indexes began to follow occupancy, plus 10%. Before that a
// Confluence master held about 1.6 MB.
func TestWarmMasterFootprint(t *testing.T) {
	apache, ok := workload.ByName("Apache")
	if !ok {
		t.Fatal("Apache profile missing")
	}
	apache.Gen.FootprintKB = 512
	for _, c := range []struct {
		scheme scheme.Config
		bytes  uintptr // measured
	}{
		{scheme.Confluence(), 1_023_936},
		{scheme.SHIFT(), 557_512},
		{scheme.PIF(), 561_000},
		{scheme.PhantomBTBScheme(), 1_075_008},
		{scheme.Boomerang(), 528_904},
	} {
		t.Run(c.scheme.Name, func(t *testing.T) {
			spec := DefaultSpec(c.scheme, apache)
			spec.WarmInstrs = 50_000
			master, err := WarmInstance(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := footprint(t, master)
			t.Logf("%s master: %d bytes", c.scheme.Name, got)
			if bound := c.bytes + c.bytes/10; got > bound {
				t.Fatalf("%s master holds %d bytes, bound %d (measured %d + 10%%)", c.scheme.Name, got, bound, c.bytes)
			}
		})
	}
}
