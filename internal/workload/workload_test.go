package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"boomsim/internal/isa"
	"boomsim/internal/program"
)

func testImage(t testing.TB, seed uint64) *program.Image {
	t.Helper()
	g := program.DefaultGenParams()
	g.Seed = seed
	g.FootprintKB = 128
	g.Layers = 4
	img, err := program.Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestProfilesGenerate(t *testing.T) {
	if len(Profiles) != 6 {
		t.Fatalf("expected 6 workloads (Table II), got %d", len(Profiles))
	}
	for _, p := range Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g := p.Gen
			g.FootprintKB = 96 // shrink for test speed; shape params unchanged
			g.Seed = 42
			img, err := program.Generate(g)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWalker(img, 7)
			for i := 0; i < 20000; i++ {
				w.Next()
			}
			if w.Instructions() == 0 {
				t.Fatal("no instructions executed")
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("NoSuchWorkload"); ok {
		t.Error("ByName accepted a bogus name")
	}
}

func TestProfileFootprints(t *testing.T) {
	// The OLTP workloads must have the largest footprints — that property
	// drives the Oracle/DB2 behaviour in Figures 7-9.
	oracle, _ := ByName("Oracle")
	db2, _ := ByName("DB2")
	for _, p := range Profiles {
		if p.Name == "Oracle" || p.Name == "DB2" {
			continue
		}
		if p.Gen.FootprintKB >= oracle.Gen.FootprintKB {
			t.Errorf("%s footprint >= Oracle", p.Name)
		}
		if p.Gen.FootprintKB >= db2.Gen.FootprintKB {
			t.Errorf("%s footprint >= DB2", p.Name)
		}
	}
}

func TestWalkerDeterminism(t *testing.T) {
	img := testImage(t, 1)
	a, b := NewWalker(img, 9), NewWalker(img, 9)
	for i := 0; i < 50000; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.Block.Addr != sb.Block.Addr || sa.Taken != sb.Taken || sa.Target != sb.Target {
			t.Fatalf("walkers diverged at step %d", i)
		}
	}
}

func TestWalkerSeedChangesPath(t *testing.T) {
	img := testImage(t, 1)
	a, b := NewWalker(img, 1), NewWalker(img, 2)
	diverged := false
	for i := 0; i < 10000; i++ {
		if a.Next().Target != b.Next().Target {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different walker seeds produced identical paths")
	}
}

func TestWalkerAlwaysOnBlockStarts(t *testing.T) {
	img := testImage(t, 3)
	w := NewWalker(img, 5)
	for i := 0; i < 50000; i++ {
		s := w.Next()
		if _, ok := img.BlockAt(s.Target); !ok {
			t.Fatalf("step %d: target %#x is not a block start", i, s.Target)
		}
	}
}

func TestWalkerCallReturnBalance(t *testing.T) {
	img := testImage(t, 5)
	w := NewWalker(img, 7)
	for i := 0; i < 100000; i++ {
		s := w.Next()
		if s.Block.Term.Kind == isa.Return && s.Target == img.Functions[0].Entry && w.CallDepth() == 0 {
			// A bare return to root would indicate stack underflow.
			t.Fatalf("stack underflow at step %d", i)
		}
	}
	if w.MaxCallDepthSeen() > 64 {
		t.Fatalf("call depth %d exceeds the layering bound", w.MaxCallDepthSeen())
	}
	if w.MaxCallDepthSeen() < 2 {
		t.Fatal("walker never descended the layer stack")
	}
}

func TestWalkerReturnsMatchCallSites(t *testing.T) {
	img := testImage(t, 7)
	w := NewWalker(img, 9)
	var stack []isa.Addr
	for i := 0; i < 100000; i++ {
		s := w.Next()
		kind := s.Block.Term.Kind
		if kind.IsCall() {
			stack = append(stack, s.Block.FallThrough())
		}
		if kind.IsReturn() {
			if len(stack) == 0 {
				t.Fatalf("return with empty shadow stack at step %d", i)
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.Target != want {
				t.Fatalf("return to %#x, expected call-site fall-through %#x", s.Target, want)
			}
		}
	}
}

func TestLoopTripsObserved(t *testing.T) {
	img := testImage(t, 9)
	w := NewWalker(img, 11)
	// Count consecutive taken streaks per loop branch; each streak must be
	// exactly Trip-1 long before a not-taken.
	streak := map[isa.Addr]uint32{}
	checked := 0
	for i := 0; i < 200000 && checked < 50; i++ {
		s := w.Next()
		if s.Block.Term.Behaviour != program.BehaviourLoop {
			continue
		}
		pc := s.Block.BranchPC()
		if s.Taken {
			streak[pc]++
		} else {
			if got, want := streak[pc], s.Block.Term.Period-1; got != want && got != 0 {
				// got==0 can happen if we started observing mid-loop.
				t.Fatalf("loop %#x: streak %d, want %d", pc, got, want)
			}
			streak[pc] = 0
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no loop exits observed in window")
	}
}

func TestBiasOutcomesMatchBias(t *testing.T) {
	img := testImage(t, 11)
	w := NewWalker(img, 13)
	taken := map[isa.Addr]int{}
	total := map[isa.Addr]int{}
	bias := map[isa.Addr]float64{}
	for i := 0; i < 300000; i++ {
		s := w.Next()
		if s.Block.Term.Behaviour != program.BehaviourBias || s.Block.Term.Period > 0 {
			// Phase-stable branches converge to their bias only over many
			// phases; check the per-occurrence ones.
			continue
		}
		pc := s.Block.BranchPC()
		total[pc]++
		if s.Taken {
			taken[pc]++
		}
		bias[pc] = s.Block.Term.Bias
	}
	checked := 0
	for pc, n := range total {
		if n < 500 {
			continue
		}
		got := float64(taken[pc]) / float64(n)
		if diff := got - bias[pc]; diff > 0.08 || diff < -0.08 {
			t.Errorf("branch %#x: observed taken rate %.3f, bias %.3f", pc, got, bias[pc])
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no high-frequency biased branches in window")
	}
}

func TestEntryClassConsistency(t *testing.T) {
	img := testImage(t, 13)
	w := NewWalker(img, 15)
	prev := w.Next()
	for i := 0; i < 50000; i++ {
		s := w.Next()
		want := isa.ClassOf(prev.Block.Term.Kind, prev.Taken)
		if s.EntryClass != want {
			t.Fatalf("step %d: entry class %v, want %v", i, s.EntryClass, want)
		}
		prev = s
	}
}

func TestMeasureBasics(t *testing.T) {
	img := testImage(t, 15)
	w := NewWalker(img, 17)
	st := program.Measure(w, 100000, 9)
	if st.Steps != 100000 || st.Branches != st.Steps {
		t.Fatal("every step ends in a branch")
	}
	if st.CondBranches == 0 || st.Calls == 0 || st.Returns == 0 {
		t.Fatal("expected a mix of branch kinds")
	}
	if st.Instrs < st.Steps {
		t.Fatal("instruction count must be >= block count")
	}
	if st.TouchedLines < 100 {
		t.Fatalf("dynamic footprint suspiciously small: %d lines", st.TouchedLines)
	}
}

func TestTakenCondDistanceShape(t *testing.T) {
	// Figure 4 property: the overwhelming majority of taken conditional
	// branches land within 4 cache blocks of the branch.
	img := testImage(t, 17)
	w := NewWalker(img, 19)
	st := program.Measure(w, 300000, 9)
	cdf := program.CDF(st.TakenCondDist)
	if st.TakenConds == 0 {
		t.Fatal("no taken conditionals")
	}
	if cdf[4] < 0.85 {
		t.Errorf("taken-cond distance CDF at 4 blocks = %.3f, want >= 0.85 (paper: ~0.92)", cdf[4])
	}
}

// TestFig4 checks Figure 4's row as `boomtrace -dynamic` prints it for the
// registered server workloads (0..7 and 8+ blocks, at a 256 KB footprint).
func TestFig4(t *testing.T) {
	for _, name := range []string{"Apache", "DB2"} {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		p.Gen.FootprintKB = 256
		img, err := p.Image(1)
		if err != nil {
			t.Fatal(err)
		}
		st := program.Measure(NewWalker(img, 1), 200_000, 9)
		cdf := program.CDF(st.TakenCondDist)
		if cdf4 := cdf[4]; cdf4 < 0.8 {
			t.Fatalf("%s: CDF(4 blocks)=%v, paper says ~0.92", name, cdf4)
		}
		if last := cdf[8]; last < 0.999 {
			t.Fatalf("%s: CDF must reach 1 at 8+, got %v", name, last)
		}
	}
}

func TestCDF(t *testing.T) {
	h := []uint64{2, 3, 5}
	cdf := program.CDF(h)
	if cdf[0] != 0.2 || cdf[1] != 0.5 || cdf[2] != 1.0 {
		t.Fatalf("CDF = %v", cdf)
	}
	empty := program.CDF([]uint64{0, 0})
	if empty[1] != 0 {
		t.Fatal("empty CDF should be all zeros")
	}
}

func BenchmarkWalker(b *testing.B) {
	g := program.DefaultGenParams()
	g.FootprintKB = 512
	img, err := program.Generate(g)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWalker(img, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

func TestSPECLikeProfile(t *testing.T) {
	// The SPEC-like motivation profile must build, run, and stay tiny: its
	// dynamic footprint should fit the 32KB L1-I.
	p := SPECLike()
	img, err := p.Image(1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bytes() > 160*1024 {
		t.Fatalf("SPEC-like text %d KB, want < 160 KB", img.Bytes()/1024)
	}
	w := NewWalker(img, 1)
	st := program.Measure(w, 100000, 9)
	if st.TouchedLines*64 > 48*1024 {
		t.Fatalf("SPEC-like dynamic footprint %d KB, want < 48 KB", st.TouchedLines*64/1024)
	}
	// It must not be listed in Table II.
	if _, ok := ByName("SPEC-like"); ok {
		t.Fatal("SPEC-like must not be part of the Table II profile list")
	}
}

// TestWalkerStreamPinned hashes the first 500K steps (block address,
// direction, target, entry class) of every built-in profile at its own
// footprint, image seed 1 and walk seed 1, and compares the digests with
// ones recorded before the code image changed its in-memory layout. A
// layout change must leave the oracle's retire stream untouched.
func TestWalkerStreamPinned(t *testing.T) {
	want := map[string]string{
		"Nutch":     "6cc81a8522696fce",
		"Streaming": "285e978e7d8959f9",
		"Apache":    "aef2da894dd88218",
		"Zeus":      "9795b728c1289070",
		"Oracle":    "feb11b69b4dda96e",
		"DB2":       "0799615f2fb92070",
		"SPEC-like": "1f5aba6f6734495c",
	}
	var got []string
	for _, p := range append(append([]Profile(nil), Profiles...), SPECLike()) {
		img, err := p.Image(1)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(img, 1)
		h := fnv.New64a()
		var rec [18]byte
		for i := 0; i < 500_000; i++ {
			s := w.Next()
			binary.LittleEndian.PutUint64(rec[0:], s.Block.Addr)
			binary.LittleEndian.PutUint64(rec[8:], s.Target)
			rec[16] = 0
			if s.Taken {
				rec[16] = 1
			}
			rec[17] = byte(s.EntryClass)
			h.Write(rec[:])
		}
		d := fmt.Sprintf("%016x", h.Sum64())
		got = append(got, fmt.Sprintf("%q: %q,", p.Name, d))
		if want[p.Name] != d {
			t.Errorf("%s: stream digest %s, want %s", p.Name, d, want[p.Name])
		}
	}
	if t.Failed() {
		t.Logf("digests:\n%s", strings.Join(got, "\n"))
	}
}
