package flatmap

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := &Map{}
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Set(1, 10)
	m.Set(2, 20)
	m.Set(1, 11) // replace
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v want 11,true", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d want 2", m.Len())
	}
	m.Delete(1)
	if _, ok := m.Get(1); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) after delete = %d,%v want 20,true", v, ok)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Map
	if _, ok := m.Get(7); ok {
		t.Fatal("zero-value map reported a hit")
	}
	m.Delete(7) // must not panic
	m.Set(7, 70)
	if v, ok := m.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v want 70,true", v, ok)
	}
}

// TestAgainstReference fuzzes the map against a builtin map through a long
// churn sequence, exercising growth and backward-shift deletion.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := &Map{}
	ref := map[uint64]int32{}
	keys := make([]uint64, 0, 4096)
	for step := 0; step < 200_000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			k := uint64(rng.Intn(2000))*64 + 0xF000_0000 // line-shaped keys
			v := int32(rng.Intn(1 << 20))
			m.Set(k, v)
			if _, seen := ref[k]; !seen {
				keys = append(keys, k)
			}
			ref[k] = v
		case op < 8: // delete (possibly absent)
			var k uint64
			if len(keys) > 0 && rng.Intn(4) > 0 {
				k = keys[rng.Intn(len(keys))]
			} else {
				k = uint64(rng.Intn(2000))*64 + 0xF000_0000
			}
			m.Delete(k)
			delete(ref, k)
		default: // lookup
			k := uint64(rng.Intn(2000))*64 + 0xF000_0000
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("step %d: Get(%#x) = %d,%v want %d,%v", step, k, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d want %d", step, m.Len(), len(ref))
		}
	}
	for k, rv := range ref {
		if v, ok := m.Get(k); !ok || v != rv {
			t.Fatalf("final: Get(%#x) = %d,%v want %d,true", k, v, ok, rv)
		}
	}
}

func TestSteadyStateNoAllocs(t *testing.T) {
	m := &Map{}
	for i := uint64(0); i < 32; i++ {
		m.Set(i*64, int32(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Set(99*64, 99)
		if _, ok := m.Get(13 * 64); !ok {
			t.Fatal("miss")
		}
		m.Delete(99 * 64)
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %v times per run", allocs)
	}
}
