// Package store is a disk-backed, content-addressed result store: the one
// durable format for results. It is the layer under boomsimd's in-memory
// LRU and the coordinator's sweep journal (boomsim.WithJournal). Entries
// are keyed on a configuration fingerprint (boomsim's
// Simulation.Fingerprint — lowercase hex SHA-256), so a result written by
// one process is valid for every process that ever computes the same
// configuration: a worker restart starts warm instead of cold, and a
// worker's store directory resumes a coordinator's sweep.
//
// Crash safety is the point, so every entry is an envelope carrying the
// SHA-256 of its payload, writes are temp-file-plus-rename (never observable
// half-written under POSIX rename semantics) and synced before Put returns,
// and every read re-verifies the digest. An entry that fails verification
// — torn by a crash mid-write, bit rotted, or truncated — is quarantined
// (moved aside, counted, never served) and reported as a miss so the caller
// recomputes it. Corrupt bytes cannot reach a caller.
//
// The filesystem is reached through the FS interface so the fault-injection
// harness (internal/chaos) can tear writes and fail operations
// deterministically in tests; production code uses the real filesystem.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is the slice of filesystem the store needs. The chaos harness wraps it
// to inject partial writes and errors; osFS is the production
// implementation.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// WriteFile must create or truncate name with data; the store only ever
	// calls it on temp files that are renamed into place afterwards.
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
}

// OSFS is the real filesystem. Its writes are durable when they return:
// WriteFile syncs the file, Rename syncs the destination directory, and
// MkdirAll, when it creates path, syncs path's parent, so a Put that
// returned survives power loss.
type OSFS struct{}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
func (OSFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return syncDir(filepath.Dir(newpath))
}
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return nil
	}
	if err := os.MkdirAll(path, perm); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// envelope is the on-disk entry format: the payload plus enough identity to
// verify it. Digest covers exactly the payload bytes; Key repeats the
// entry's fingerprint so a file renamed or hard-linked to the wrong name is
// also caught.
type envelope struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Digest  string          `json:"digest"`
	Payload json.RawMessage `json:"payload"`
}

const (
	envelopeVersion = 1
	quarantineDir   = "quarantine"
	tmpPrefix       = "tmp-"
)

// Options tunes Open.
type Options struct {
	// FS substitutes the filesystem (default the real one).
	FS FS
	// MaxBytes caps the store's payload bytes; 0 = unbounded. When a Put
	// pushes past the cap, the oldest entries (by modification time) are
	// garbage-collected down to ~90% of the cap.
	MaxBytes int64
	// Logger receives store lifecycle events — quarantined corruptions (Warn,
	// each one is data the store refused to serve) and GC passes (Info). Nil
	// discards them.
	Logger *slog.Logger
}

// Store is a goroutine-safe content-addressed result store rooted at one
// directory. Entries live at <dir>/<fp[:2]>/<fp>; quarantined corpses at
// <dir>/quarantine/.
type Store struct {
	dir string
	fs  FS
	max int64
	log *slog.Logger

	mu      sync.Mutex // serialises writes and GC; reads only take it for counters
	entries int64
	bytes   int64

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	quarantined atomic.Uint64
}

// Stats is a point-in-time snapshot of the store's state.
type Stats struct {
	Dir         string `json:"dir"`
	Entries     int64  `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	// Quarantined counts entries that failed verification on read and were
	// moved aside — each one is a corruption the store refused to serve.
	Quarantined uint64 `json:"quarantined"`
}

// Open creates (if needed) and scans the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Store{dir: dir, fs: fsys, max: opts.MaxBytes, log: logger}
	if err := fsys.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan counts the surviving entries so Stats is meaningful from the first
// request after a restart. Leftover temp files (a crash mid-Put) are removed:
// they were never visible and never will be.
func (s *Store) scan() error {
	shards, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var entries, bytes int64
	for _, shard := range shards {
		if !shard.IsDir() || shard.Name() == quarantineDir {
			continue
		}
		files, err := s.fs.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, tmpPrefix) {
				s.fs.Remove(filepath.Join(s.dir, shard.Name(), name))
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries++
			bytes += info.Size()
		}
	}
	s.mu.Lock()
	s.entries, s.bytes = entries, bytes
	s.mu.Unlock()
	return nil
}

func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key)
}

// Get returns the verified payload stored under key, or (nil, false) on a
// miss. A present-but-unverifiable entry counts as a miss: it is moved to
// the quarantine directory and will be recomputed by the caller — corrupt
// bytes are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	raw, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.quarantine(key, int64(len(raw)))
		s.misses.Add(1)
		return nil, false
	}
	sum := sha256.Sum256(env.Payload)
	if env.Key != key || env.Digest != hex.EncodeToString(sum[:]) {
		s.quarantine(key, int64(len(raw)))
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return env.Payload, true
}

// quarantine moves a corrupt entry aside so it is never served again and an
// operator can inspect it; if even the move fails the entry is removed.
func (s *Store) quarantine(key string, size int64) {
	s.quarantined.Add(1)
	dst := filepath.Join(s.dir, quarantineDir, key)
	if err := s.fs.Rename(s.path(key), dst); err != nil {
		s.fs.Remove(s.path(key))
		s.log.Warn("store: corrupt entry removed (quarantine move failed)",
			"key", key, "err", err)
	} else {
		s.log.Warn("store: corrupt entry quarantined", "key", key, "quarantine", dst)
	}
	s.mu.Lock()
	s.entries--
	s.bytes -= size
	s.mu.Unlock()
}

// Put durably stores payload under key: envelope with digest, temp file,
// rename. It returns once the entry survives power loss. A failed Put
// leaves no visible entry and is reported in Stats; the caller's in-memory
// result is unaffected. The entry holds payload in canonical form
// (compact, HTML-escaped JSON, as json.Marshal writes it), which is what
// Get returns.
func (s *Store) Put(key string, payload []byte) error {
	// Digest the bytes the envelope will hold, not the bytes passed in:
	// embedding a RawMessage re-encodes it, and Get hashes the file's bytes.
	canon, err := json.Marshal(json.RawMessage(payload))
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	sum := sha256.Sum256(canon)
	// canon is valid JSON, so the envelope always encodes.
	raw, _ := json.Marshal(envelope{
		V:       envelopeVersion,
		Key:     key,
		Digest:  hex.EncodeToString(sum[:]),
		Payload: canon,
	})
	dst := s.path(key)
	dir := filepath.Dir(dst)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(dir, tmpPrefix+filepath.Base(dst))
	if err := s.fs.WriteFile(tmp, raw, 0o644); err != nil {
		s.writeErrors.Add(1)
		s.fs.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	// Guard the rename: a faulty filesystem may have acknowledged a torn
	// write. Verifying before rename keeps the visible entry set clean; the
	// read path re-verifies anyway, so this is belt and braces, not the
	// safety boundary.
	if got, err := s.fs.ReadFile(tmp); err != nil || len(got) != len(raw) {
		s.writeErrors.Add(1)
		s.fs.Remove(tmp)
		return fmt.Errorf("store: short write for %s", key)
	}
	fresh := true
	if info, err := s.fs.Stat(dst); err == nil {
		fresh = false
		s.bytes -= info.Size()
	}
	if err := s.fs.Rename(tmp, dst); err != nil {
		s.writeErrors.Add(1)
		s.fs.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if fresh {
		s.entries++
	}
	s.bytes += int64(len(raw))
	s.writes.Add(1)
	if s.max > 0 && s.bytes > s.max {
		s.gcLocked()
	}
	return nil
}

// gcLocked evicts oldest-modified entries until the store is back under 90%
// of its byte cap. Called with mu held.
func (s *Store) gcLocked() {
	type candidate struct {
		path  string
		size  int64
		mtime int64
	}
	var all []candidate
	shards, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, shard := range shards {
		if !shard.IsDir() || shard.Name() == quarantineDir {
			continue
		}
		files, err := s.fs.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				continue
			}
			all = append(all, candidate{
				path:  filepath.Join(s.dir, shard.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	target := s.max * 9 / 10
	var evicted int
	var freed int64
	for _, c := range all {
		if s.bytes <= target {
			break
		}
		if err := s.fs.Remove(c.path); err == nil {
			s.entries--
			s.bytes -= c.size
			evicted++
			freed += c.size
		}
	}
	s.log.Info("store: gc pass",
		"evicted", evicted, "freed_bytes", freed, "bytes", s.bytes, "cap", s.max)
}

// Stats snapshots the store counters; safe to call concurrently with reads
// and writes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.entries, s.bytes
	s.mu.Unlock()
	return Stats{
		Dir:         s.dir,
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

var _ FS = OSFS{}
