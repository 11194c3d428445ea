package chaos

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"

	"boomsim/internal/store"
)

// FSPlan is a faulty filesystem's fault mix, evaluated per WriteFile call.
type FSPlan struct {
	// PTornWrite truncates a write to a seeded fraction of its bytes and
	// reports success — the on-disk shape of a crash mid-write.
	PTornWrite float64
	// PWriteError fails the write outright with an I/O error.
	PWriteError float64
}

// FS wraps a store.FS with seeded write faults. Reads and metadata
// operations pass through untouched: the store's verify-on-read path is what
// turns a torn write into a quarantine instead of a served corruption, and
// that is exactly the behavior under test.
type FS struct {
	base store.FS

	mu    sync.Mutex
	rng   *rand.Rand
	plan  FSPlan
	torn  int
	fails int
}

// NewFS builds a faulty filesystem over base (nil = the real one).
func NewFS(base store.FS, seed uint64, plan FSPlan) *FS {
	if base == nil {
		base = store.OSFS{}
	}
	return &FS{base: base, rng: rand.New(rand.NewPCG(seed, seed^0x6c62272e07bb0142)), plan: plan}
}

func (f *FS) ReadFile(name string) ([]byte, error)       { return f.base.ReadFile(name) }
func (f *FS) Rename(o, n string) error                   { return f.base.Rename(o, n) }
func (f *FS) MkdirAll(p string, m os.FileMode) error     { return f.base.MkdirAll(p, m) }
func (f *FS) Remove(name string) error                   { return f.base.Remove(name) }
func (f *FS) ReadDir(name string) ([]os.DirEntry, error) { return f.base.ReadDir(name) }
func (f *FS) Stat(name string) (os.FileInfo, error)      { return f.base.Stat(name) }

// WriteFile applies the plan: a torn write persists only a prefix of data
// but reports success; a write error persists nothing and reports failure.
func (f *FS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	u := f.rng.Float64()
	var cut int
	switch {
	case u < f.plan.PTornWrite:
		f.torn++
		// Tear somewhere strictly inside the payload so the result is
		// neither empty nor complete.
		cut = 1
		if len(data) > 2 {
			cut = 1 + f.rng.IntN(len(data)-1)
		}
		f.mu.Unlock()
		return f.base.WriteFile(name, data[:cut], perm)
	case u < f.plan.PTornWrite+f.plan.PWriteError:
		f.fails++
		f.mu.Unlock()
		return fmt.Errorf("chaos: injected write error for %s", name)
	}
	f.mu.Unlock()
	return f.base.WriteFile(name, data, perm)
}

// FSCounts reports injected torn writes and write errors.
func (f *FS) FSCounts() (torn, fails int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.torn, f.fails
}

// Corrupt overwrites the tail of the file at path with garbage, preserving
// length — the bit-rot case the store's digest check exists for. Tear
// truncates n bytes off the end — a torn store entry, whether the store is
// a worker's or a sweep journal.
func Corrupt(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("chaos: %s is empty, nothing to corrupt", path)
	}
	for i := len(raw) - 1; i >= 0 && i >= len(raw)-8; i-- {
		raw[i] ^= 0x5a
	}
	return os.WriteFile(path, raw, 0o644)
}

// Tear truncates the last n bytes of the file at path (all but one byte if
// n exceeds the file), simulating a write whose tail was lost to a crash.
func Tear(path string, n int) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size() - int64(n)
	if size < 1 {
		size = 1
	}
	return os.Truncate(path, size)
}

var _ store.FS = (*FS)(nil)
