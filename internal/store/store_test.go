package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boomsim/internal/chaos"
	"boomsim/internal/store"
)

func key(i int) string {
	return fmt.Sprintf("%02x%060x", i%256, i)
}

func mustOpen(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), store.Options{})
	payload := []byte(`{"ipc":1.25,"scheme":"Boomerang"}`)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("Get of an absent key reported a hit")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit / 1 miss / 1 write", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Errorf("Bytes = %d, want > payload size (envelope overhead)", st.Bytes)
	}
}

// TestNonCanonicalPayloadsAreNotQuarantined pins that Put digests the
// bytes it writes: the envelope re-encodes its payload (compacted,
// HTML-escaped), so a digest of the bytes as passed would fail every Get of
// a payload json.Marshal would not have written, and the entry would be
// quarantined on its first read. Get returns the canonical form.
func TestNonCanonicalPayloadsAreNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	cases := []struct{ name, payload, want string }{
		{"canonical", `{"a":1}`, `{"a":1}`},
		{"spaced", `{"a": 1}`, `{"a":1}`},
		{"html", `{"s":"A&B <c>"}`, `{"s":"A\u0026B \u003cc\u003e"}`},
		{"indented", "{\n  \"ipc\": 1.25,\n  \"scheme\": \"Boomerang\"\n}\n", `{"ipc":1.25,"scheme":"Boomerang"}`},
	}
	for i, c := range cases {
		if err := s.Put(key(i), []byte(c.payload)); err != nil {
			t.Fatalf("%s: Put: %v", c.name, err)
		}
		got, ok := s.Get(key(i))
		if !ok || string(got) != c.want {
			t.Errorf("%s: Get = %q, %v; want %q", c.name, got, ok, c.want)
		}
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Entries != int64(len(cases)) {
		t.Errorf("stats = %+v, want %d entries and none quarantined", st, len(cases))
	}
	s2 := mustOpen(t, dir, store.Options{})
	for i, c := range cases {
		if got, ok := s2.Get(key(i)); !ok || string(got) != c.want {
			t.Errorf("%s: after reopen Get = %q, %v; want %q", c.name, got, ok, c.want)
		}
	}
}

func TestEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(key(i), []byte(fmt.Sprintf(`{"cell":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// A different process opens the same directory: every entry must be
	// visible and verified — this is the worker-restart survival property.
	s2 := mustOpen(t, dir, store.Options{})
	if st := s2.Stats(); st.Entries != 20 {
		t.Fatalf("reopened store sees %d entries, want 20", st.Entries)
	}
	for i := 0; i < 20; i++ {
		got, ok := s2.Get(key(i))
		if !ok || string(got) != fmt.Sprintf(`{"cell":%d}`, i) {
			t.Fatalf("entry %d did not survive reopen: %q, %v", i, got, ok)
		}
	}
}

func TestCorruptEntryIsQuarantinedNeverServed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	k := key(7)
	if err := s.Put(k, []byte(`{"cell":7}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k[:2], k)
	if err := chaos.Corrupt(path); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Entries != 0 {
		t.Errorf("Entries = %d, want 0 after quarantine", st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", k)); err != nil {
		t.Errorf("corrupt entry was not moved to quarantine: %v", err)
	}
	// A fresh Put of the recomputed result must succeed and serve cleanly.
	if err := s.Put(k, []byte(`{"cell":7}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || string(got) != `{"cell":7}` {
		t.Fatalf("recomputed entry not served: %q, %v", got, ok)
	}
}

func TestTruncatedEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	k := key(9)
	if err := s.Put(k, []byte(`{"cell":9,"stats":{"a":1,"b":2}}`)); err != nil {
		t.Fatal(err)
	}
	if err := chaos.Tear(filepath.Join(dir, k[:2], k), 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated entry served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestMisfiledEntryIsQuarantined(t *testing.T) {
	// An entry whose envelope key disagrees with its filename (a bad copy or
	// a tampered file) must not be served under the wrong identity.
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	if err := s.Put(key(1), []byte(`{"cell":1}`)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, key(1)[:2], key(1))
	dst := filepath.Join(dir, key(2)[:2], key(2))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("entry served under a fingerprint it does not belong to")
	}
}

func TestTornWritesNeverServeCorruptData(t *testing.T) {
	// Torn writes on every single write: no Get may ever return bytes other
	// than what was Put, and successful-looking Puts that actually tore are
	// caught at read (or by the store's own pre-rename verification).
	dir := t.TempDir()
	ffs := chaos.NewFS(nil, 42, chaos.FSPlan{PTornWrite: 0.5, PWriteError: 0.2})
	s := mustOpen(t, dir, store.Options{FS: ffs})
	good := 0
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf(`{"cell":%d,"payload":"%s"}`, i, strings.Repeat("x", i)))
		if err := s.Put(key(i), payload); err == nil {
			good++
		}
		if got, ok := s.Get(key(i)); ok && !bytes.Equal(got, payload) {
			t.Fatalf("Get(%d) returned corrupt bytes: %q", i, got)
		}
	}
	torn, fails := ffs.FSCounts()
	if torn == 0 || fails == 0 {
		t.Fatalf("fault plan injected nothing (torn=%d fails=%d) — test is vacuous", torn, fails)
	}
	if good == 0 {
		t.Fatal("no Put ever succeeded — fault plan too hot to prove anything")
	}
	if st := s.Stats(); st.WriteErrors == 0 {
		t.Error("store reported zero write errors under an injecting filesystem")
	}
}

func TestCrashedPutLeavesNoVisibleEntry(t *testing.T) {
	// Simulate a crash between temp write and rename: a leftover tmp file
	// must be swept on reopen and never surface as an entry.
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{})
	if err := s.Put(key(3), []byte(`{"cell":3}`)); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, key(4)[:2], "tmp-"+key(4))
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte(`{"v":1,"key":"partial`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, store.Options{})
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened store sees %d entries, want 1 (tmp debris must not count)", st.Entries)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover tmp file survived reopen")
	}
	if _, ok := s2.Get(key(4)); ok {
		t.Fatal("crashed Put's key reported a hit")
	}
}

func TestGCEvictsOldestWhenOverCap(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, store.Options{MaxBytes: 2000})
	for i := 0; i < 40; i++ {
		if err := s.Put(key(i), []byte(fmt.Sprintf(`{"cell":%d,"pad":"%s"}`, i, strings.Repeat("p", 64)))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 2000 {
		t.Errorf("Bytes = %d, want <= cap after GC", st.Bytes)
	}
	if st.Entries >= 40 {
		t.Errorf("Entries = %d, want evictions under a byte cap", st.Entries)
	}
	// Newest entries should have survived.
	if _, ok := s.Get(key(39)); !ok {
		t.Error("most recent entry was evicted")
	}
}

func TestOverwriteDoesNotDoubleCount(t *testing.T) {
	s := mustOpen(t, t.TempDir(), store.Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(key(5), []byte(`{"cell":5}`)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("Entries = %d after 3 identical Puts, want 1", st.Entries)
	}
}
