package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"boomsim/internal/store"
)

// TestRunHitBytesMatchMiss pins what a result-cache hit answers: the bytes
// of the miss that computed the result, with only the cached flag set. A
// second server over the same durable store answers its first request with
// a store-promoted hit, which must come out byte for byte the same.
func TestRunHitBytesMatchMiss(t *testing.T) {
	inline := fastRun("", "DB2", 93)
	inline.SchemeConfig = json.RawMessage(`{"name":"Boomerang-FTQ16","ftq_depth":16,"fdip_probes":true,"miss_policy":{"kind":"boomerang"}}`)
	recorded := fastRun("Boomerang", "Apache", 93)
	recorded.FlightEvery = 5_000
	reqs := map[string]RunRequest{
		"Confluence": fastRun("Confluence", "Apache", 93),
		"inline":     inline,
		"recorded":   recorded,
	}

	dir := t.TempDir()
	open := func() *testService {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return newTestService(t, Config{Store: st})
	}
	post := func(s *testService, name string, req RunRequest) []byte {
		t.Helper()
		code, body := s.post(t, "/v1/run", req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		return body
	}

	first := open()
	want := map[string][]byte{}
	for name, req := range reqs {
		miss := post(first, name, req)
		if n := bytes.Count(miss, []byte(`"cached": false`)); n != 1 {
			t.Fatalf("%s: miss body holds %d cached=false flags, want 1:\n%s", name, n, miss)
		}
		want[name] = bytes.Replace(miss, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		if hit := post(first, name, req); !bytes.Equal(hit, want[name]) {
			t.Errorf("%s: hit body differs from the miss body beyond the cached flag:\nmiss: %s\nhit:  %s", name, miss, hit)
		}
	}
	if st := first.srv.Stats(); st.SimsStarted != uint64(len(reqs)) || st.CacheHits != uint64(len(reqs)) {
		t.Errorf("first server: %+v, want %d sims and %d hits", st, len(reqs), len(reqs))
	}

	second := open()
	for name, req := range reqs {
		for _, from := range []string{"store-promoted", "cache"} {
			if hit := post(second, name, req); !bytes.Equal(hit, want[name]) {
				t.Errorf("%s: %s hit differs from the first server's hit:\nwant: %s\ngot:  %s", name, from, want[name], hit)
			}
		}
	}
	if st := second.srv.Stats(); st.SimsStarted != 0 || st.CacheHits != 2*uint64(len(reqs)) {
		t.Errorf("second server: %+v, want no sims and %d hits", st, 2*len(reqs))
	}
}

// hitRequest primes a fresh server with one Confluence run and returns a
// function that serves the identical, now cached, request in-process.
func hitRequest(tb testing.TB) func() *httptest.ResponseRecorder {
	tb.Helper()
	srv := New(Config{})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	body, err := json.Marshal(fastRun("Confluence", "Apache", 94))
	if err != nil {
		tb.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		return rec
	}
	for _, wantCached := range []bool{false, true} {
		rec := serve()
		var rr RunResponse
		err := json.Unmarshal(rec.Body.Bytes(), &rr)
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" || err != nil || rr.Cached != wantCached {
			tb.Fatalf("priming: status %d, Content-Type %q, cached %v (want %v), err %v: %s",
				rec.Code, ct, rr.Cached, wantCached, err, rec.Body.Bytes())
		}
	}
	return serve
}

// TestRunHitAllocations pins the cost of a result-cache hit: decoding the
// request, building and fingerprinting the Simulation, and copying the
// bytes encoded when the entry was inserted. Encoding the Result costs
// about 150 allocations more, so a hit path that encodes again fails.
func TestRunHitAllocations(t *testing.T) {
	serve := hitRequest(t)
	const budget = 100
	if allocs := testing.AllocsPerRun(50, func() { serve() }); allocs > budget {
		t.Errorf("a cached /v1/run request allocates %v times, want at most %d", allocs, budget)
	}
}

func BenchmarkRunHit(b *testing.B) {
	serve := hitRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
