package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzServerRun posts arbitrary bodies to /v1/run. Whatever the body, the
// answer is JSON under a status the API documents: 200, a client error (400
// or 404), backpressure (429, 503) or a deadline (504). A 500, or a panic
// that kills the process, fails. A body that succeeds is answered again from
// the result cache with the same bytes, the cached flag set.
func FuzzServerRun(f *testing.F) {
	seed := func(req RunRequest) {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(fastRun("Boomerang", "Apache", 1))
	seed(fastRun("Confluence", "DB2", 2))
	inline := fastRun("", "Zeus", 3)
	inline.SchemeConfig = json.RawMessage(`{"name":"PIF-small","ftq_depth":16,"fdip_probes":true,` +
		`"prefetcher":{"kind":"temporal","temporal":{"history_entries":4096,"index_entries":1024,"region_lines":4,"lookahead":8}},` +
		`"miss_policy":{"kind":"two-level","two_level":{"l2_entries":4096,"l2_assoc":4,"l2_latency":4,"preload_lines":1}}}`)
	seed(inline)
	recorded := fastRun("FDIP", "Apache", 4)
	recorded.FlightEvery = 5_000
	seed(recorded)
	for _, raw := range []string{
		`{not json`,
		`{"scheme":"Boomerang","no_such_field":1}`,
		`{"workload":"Apache","footprint_kb":64,"measure_instrs":20000,"no_cycle_skip":true}`,
		`{"workload":"Apache","footprint_kb":64,"measure_instrs":20000,"btb_entries":4611686018427387904}`,
		`{"workload":"Apache","footprint_kb":64,"measure_instrs":20000,"scheme_config":` +
			`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":4611686018427387904,"index_entries":8,"region_lines":4,"lookahead":8}}}}`,
		`{"workload":"Apache","footprint_kb":8,"measure_instrs":20000}`,
	} {
		f.Add([]byte(raw))
	}

	// A short deadline keeps every input quick, and a small cache keeps
	// memory flat however many inputs run.
	srv := New(Config{RequestTimeout: 2 * time.Second, CacheEntries: 16})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	post := func(t *testing.T, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" || !json.Valid(out) {
			t.Fatalf("status %d answered with Content-Type %q and a body that is not JSON: %q", resp.StatusCode, ct, out)
		}
		return resp.StatusCode, out
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		code, first := post(t, body)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("body %q: status %d: %s", body, code, first)
		}
		want := bytes.Replace(first, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		code, again := post(t, body)
		if code != http.StatusOK || !bytes.Equal(again, want) {
			t.Fatalf("body %q: repeat answered %d with bytes that differ from the first answer's beyond the cached flag:\nfirst: %s\nagain: %s",
				body, code, first, again)
		}
	})
}
