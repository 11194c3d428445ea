package bpu

import (
	"testing"
	"testing/quick"

	"boomsim/internal/isa"
	"boomsim/internal/xrand"
)

func TestNeverTaken(t *testing.T) {
	p := NewNeverTaken()
	for pc := isa.Addr(0); pc < 1000; pc += 4 {
		if p.Predict(pc).Taken {
			t.Fatal("never-taken predicted taken")
		}
	}
	if p.StorageBits() != 0 {
		t.Fatal("never-taken must be metadata-free")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(8192)
	pc := isa.Addr(0x4000)
	for i := 0; i < 10; i++ {
		pred := b.Predict(pc)
		b.Update(pred, pc, true)
	}
	if !b.Predict(pc).Taken {
		t.Fatal("bimodal failed to learn always-taken")
	}
	for i := 0; i < 10; i++ {
		pred := b.Predict(pc)
		b.Update(pred, pc, false)
	}
	if b.Predict(pc).Taken {
		t.Fatal("bimodal failed to re-learn not-taken")
	}
}

func TestBimodalStorage(t *testing.T) {
	b := NewBimodal(8192)
	if b.StorageBits() != 2*8192 {
		t.Fatalf("storage = %d bits", b.StorageBits())
	}
}

func TestTAGEBudget(t *testing.T) {
	tg := NewTAGE(8)
	bits := tg.StorageBits()
	kb := bits / 8 / 1024
	if kb < 6 || kb > 8 {
		t.Fatalf("TAGE storage %d KB, want ~8 KB budget", kb)
	}
}

func TestTAGELearnsAlwaysTaken(t *testing.T) {
	tg := NewTAGE(8)
	pc := isa.Addr(0x1000)
	for i := 0; i < 64; i++ {
		p := tg.Predict(pc)
		tg.Update(p, pc, true)
		tg.Shift(true)
	}
	if !tg.Predict(pc).Taken {
		t.Fatal("TAGE failed on always-taken")
	}
}

func TestTAGELearnsPattern(t *testing.T) {
	// A short periodic pattern (TNTN...) is beyond bimodal but within
	// TAGE's shortest history.
	tg := NewTAGE(8)
	pc := isa.Addr(0x2000)
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		p := tg.Predict(pc)
		if i > 1000 {
			total++
			if p.Taken == taken {
				correct++
			}
		}
		tg.Update(p, pc, taken)
		tg.Shift(taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("TAGE accuracy on alternating pattern = %.3f, want >= 0.95", acc)
	}
}

func TestTAGELearnsLoop(t *testing.T) {
	// Loop branch: taken 7 times, not-taken once — periodic with period 8.
	tg := NewTAGE(8)
	pc := isa.Addr(0x3000)
	correct, total := 0, 0
	for i := 0; i < 16000; i++ {
		taken := i%8 != 7
		p := tg.Predict(pc)
		if i > 8000 {
			total++
			if p.Taken == taken {
				correct++
			}
		}
		tg.Update(p, pc, taken)
		tg.Shift(taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.93 {
		t.Fatalf("TAGE accuracy on loop(8) = %.3f, want >= 0.93", acc)
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure history
	// correlation, invisible to bimodal.
	rng := xrand.New(5)
	tage := NewTAGE(8)
	bim := NewBimodal(8192)
	pcA, pcB := isa.Addr(0x100), isa.Addr(0x20000)
	tCorrect, bCorrect, total := 0, 0, 0
	prevA := false
	for i := 0; i < 30000; i++ {
		outA := rng.Bool(0.5)
		pa := tage.Predict(pcA)
		tage.Update(pa, pcA, outA)
		tage.Shift(outA)
		pb0 := bim.Predict(pcA)
		bim.Update(pb0, pcA, outA)

		outB := prevA
		pt := tage.Predict(pcB)
		pb := bim.Predict(pcB)
		if i > 10000 {
			total++
			if pt.Taken == outB {
				tCorrect++
			}
			if pb.Taken == outB {
				bCorrect++
			}
		}
		tage.Update(pt, pcB, outB)
		tage.Shift(outB)
		bim.Update(pb, pcB, outB)
		prevA = outA
	}
	tAcc := float64(tCorrect) / float64(total)
	bAcc := float64(bCorrect) / float64(total)
	if tAcc < 0.9 {
		t.Fatalf("TAGE accuracy on correlated branch = %.3f, want >= 0.9", tAcc)
	}
	if tAcc <= bAcc+0.2 {
		t.Fatalf("TAGE (%.3f) should clearly beat bimodal (%.3f) on correlation", tAcc, bAcc)
	}
}

func TestTAGESnapshotRestore(t *testing.T) {
	tg := NewTAGE(8)
	rng := xrand.New(9)
	for i := 0; i < 500; i++ {
		tg.Shift(rng.Bool(0.5))
	}
	pc := isa.Addr(0x4444)
	var snap HistState
	tg.SnapshotInto(&snap)
	before := tg.Predict(pc)
	// Wander down a wrong path.
	for i := 0; i < 100; i++ {
		tg.Shift(rng.Bool(0.5))
	}
	tg.Restore(snap)
	after := tg.Predict(pc)
	if before.Taken != after.Taken || before.provider != after.provider ||
		before.idx != after.idx || before.tag != after.tag {
		t.Fatal("restore did not reproduce prediction state")
	}
}

func TestTAGESnapshotIsolation(t *testing.T) {
	// Snapshots must be value copies: mutating the predictor afterwards must
	// not alter an earlier snapshot's effect.
	tg := NewTAGE(8)
	var snapEmpty HistState
	tg.SnapshotInto(&snapEmpty)
	for i := 0; i < 50; i++ {
		tg.Shift(true)
	}
	tg.Restore(snapEmpty)
	fresh := NewTAGE(8)
	pc := isa.Addr(0x8080)
	if tg.Predict(pc).idx != fresh.Predict(pc).idx {
		t.Fatal("restored-to-empty history differs from fresh predictor")
	}
}

func TestTAGEDeterminism(t *testing.T) {
	run := func() []bool {
		tg := NewTAGE(8)
		rng := xrand.New(3)
		var out []bool
		for i := 0; i < 5000; i++ {
			pc := isa.Addr(0x1000 + (rng.Uint64()%64)*4)
			taken := rng.Bool(0.6)
			p := tg.Predict(pc)
			out = append(out, p.Taken)
			tg.Update(p, pc, taken)
			tg.Shift(taken)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TAGE nondeterministic at step %d", i)
		}
	}
}

// histReg and foldedReg are the reference model of TAGE's speculative
// history: a 192-bit shift register (bit 0 is the newest outcome) and a
// folded register that carries its own geometry, one per CSR.
type histReg [3]uint64

func (h *histReg) shift(bit uint64) {
	h[2] = h[2]<<1 | h[1]>>63
	h[1] = h[1]<<1 | h[0]>>63
	h[0] = h[0]<<1 | bit
}

// at returns history bit i (0 = newest). i must be < 192.
func (h *histReg) at(i int) uint64 {
	return (h[i/64] >> (i % 64)) & 1
}

type foldedReg struct {
	val     uint64
	origLen int // history length being folded
	bits    int // compressed width
}

func (f *foldedReg) shift(newBit, oldBit uint64) {
	f.val = f.val<<1 | newBit
	f.val ^= oldBit << uint(f.origLen%f.bits)
	f.val ^= f.val >> f.bits
	f.val &= 1<<uint(f.bits) - 1
}

// directFold folds the newest length bits of h into width bits: history
// bit i (0 = newest) lands at position i mod width, XORed with every other
// bit that lands there. A folded register shifted one outcome at a time
// must always hold this value.
func directFold(h *histReg, length, width int) uint64 {
	var v uint64
	for i := 0; i < length; i++ {
		v ^= h.at(i) << (i % width)
	}
	return v
}

// refHist is the reference model's whole speculative state: the raw
// register and, per table, its index and two tag registers.
type refHist struct {
	h    histReg
	regs [NumTageTables][3]foldedReg
}

func newRefHist(idxBits int) refHist {
	var r refHist
	for i, l := range tageHistLens {
		r.regs[i] = [3]foldedReg{{origLen: l, bits: idxBits}, {origLen: l, bits: 9}, {origLen: l, bits: 8}}
	}
	return r
}

func (r *refHist) shift(bit uint64) {
	for i := range r.regs {
		old := r.h.at(r.regs[i][0].origLen - 1)
		for j := range r.regs[i] {
			r.regs[i][j].shift(bit, old)
		}
	}
	r.h.shift(bit)
}

func TestFoldedRegMatchesDirectFold(t *testing.T) {
	// TAGE's packed CSRs, shifted in place and rewound by snapshots, must
	// equal the reference registers, and each reference register must
	// equal folding the raw history directly, at every table's length and
	// every register's width.
	for _, budgetKB := range []int{1, 8, 64} {
		tg := NewTAGE(budgetKB)
		ref := newRefHist(int(tg.idxBits))
		var snaps [4]HistState
		var refSnaps [4]refHist
		for k := range snaps {
			tg.SnapshotInto(&snaps[k])
			refSnaps[k] = ref
		}
		rng := xrand.New(uint64(11 + budgetKB))
		for step := 0; step < 3000; step++ {
			k := rng.Intn(len(snaps))
			switch r := rng.Intn(16); {
			case r == 0:
				tg.SnapshotInto(&snaps[k])
				refSnaps[k] = ref
			case r == 1:
				tg.Restore(snaps[k])
				ref = refSnaps[k]
			default:
				taken := rng.Bool(0.5)
				bit := uint64(0)
				if taken {
					bit = 1
				}
				tg.Shift(taken)
				ref.shift(bit)
			}
			if tg.spec.h != ref.h {
				t.Fatalf("%d KB, step %d: history %x, reference %x", budgetKB, step, tg.spec.h, ref.h)
			}
			for i := range tageHistLens {
				got := [3]uint64{tg.spec.idx[i], tg.spec.tg0[i], tg.spec.tg1[i]}
				for j, f := range ref.regs[i] {
					if direct := directFold(&ref.h, f.origLen, f.bits); got[j] != f.val || f.val != direct {
						t.Fatalf("%d KB, step %d, table %d, register %d (%d bits of %d): TAGE %#x, reference %#x, direct fold %#x",
							budgetKB, step, i, j, f.bits, f.origLen, got[j], f.val, direct)
					}
				}
			}
		}
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(32)
	r.Push(100)
	r.Push(200)
	if v, ok := r.Pop(); !ok || v != 200 {
		t.Fatal("pop order wrong")
	}
	if v, ok := r.Pop(); !ok || v != 100 {
		t.Fatal("pop order wrong")
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 6; i++ {
		r.Push(isa.Addr(i * 100))
	}
	// Stack holds 300..600; pops yield 600,500,400,300 then empty.
	want := []isa.Addr{600, 500, 400, 300}
	for _, w := range want {
		v, ok := r.Pop()
		if !ok || v != w {
			t.Fatalf("got %d, want %d", v, w)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("expected empty after overflow wrap")
	}
}

func TestRASCheckpointRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	cp := r.Checkpoint()
	r.Pop()
	r.Push(99)
	r.Push(98)
	r.Restore(cp)
	if v, ok := r.Peek(); !ok || v != 2 {
		t.Fatalf("restore failed: top=%d", v)
	}
	if r.Depth() != 2 {
		t.Fatalf("depth after restore = %d", r.Depth())
	}
}

func TestRASCorruptionBelowTOSPersists(t *testing.T) {
	// Hardware-faithful: wrong-path pushes that overwrite entries below the
	// checkpointed TOS are not repaired.
	r := NewRAS(2)
	r.Push(10)
	r.Push(20)
	cp := r.Checkpoint()
	r.Pop()
	r.Pop()
	r.Push(77) // overwrites slot of 10
	r.Push(88) // overwrites slot of 20 (TOS, will be repaired)
	r.Restore(cp)
	if v, _ := r.Pop(); v != 20 {
		t.Fatalf("TOS should be repaired to 20, got %d", v)
	}
	if v, _ := r.Pop(); v == 10 {
		t.Fatal("deep corruption should persist, but entry was repaired")
	}
}

func TestRASProperty(t *testing.T) {
	// Without overflow, RAS behaves as a stack.
	if err := quick.Check(func(vals []uint32) bool {
		if len(vals) > 30 {
			vals = vals[:30]
		}
		r := NewRAS(32)
		for _, v := range vals {
			r.Push(isa.Addr(v))
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got, ok := r.Pop()
			if !ok || got != isa.Addr(vals[i]) {
				return false
			}
		}
		_, ok := r.Pop()
		return !ok
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTAGEPredictUpdate(b *testing.B) {
	tg := NewTAGE(8)
	rng := xrand.New(1)
	pcs := make([]isa.Addr, 1024)
	for i := range pcs {
		pcs[i] = isa.Addr(0x1000 + i*16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		taken := rng.Bool(0.7)
		p := tg.Predict(pc)
		tg.Update(p, pc, taken)
		tg.Shift(taken)
	}
}

// snapshotSink receives BenchmarkTAGESnapshot's copies: into a local that
// nothing reads, the compiler drops a one-struct-copy snapshot altogether.
var snapshotSink HistState

func BenchmarkTAGESnapshot(b *testing.B) {
	tg := NewTAGE(8)
	for i := 0; i < b.N; i++ {
		tg.SnapshotInto(&snapshotSink)
	}
}
