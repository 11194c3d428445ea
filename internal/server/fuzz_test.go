package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"boomsim"
	"boomsim/internal/wire"
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

	// A small cache keeps memory flat however many inputs run.
	post := newFuzzServer(f, "/v1/run", 16)

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

// FuzzServerJobs posts arbitrary bodies to /v1/jobs. The batch answers 200
// or, for a body that is no batch, 400, always in JSON. In a 200 every job
// carries exactly one of a result, which decodes to a boomsim.Result, or an
// error under a per-job status the API documents; a 500, or a panic that
// kills the process, fails. A job that succeeds is answered again from the
// result cache with the same bytes, the cached flag set.
func FuzzServerJobs(f *testing.F) {
	seed := func(jobs ...RunRequest) {
		raw, err := json.Marshal(wire.JobsRequest{Jobs: jobs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(fastRun("Boomerang", "Apache", 1), fastRun("FDIP", "DB2", 1))
	seed(fastRun("Base", "Apache", 2), RunRequest{Scheme: "NoSuchScheme"})
	inline := fastRun("", "Zeus", 3)
	inline.SchemeConfig = json.RawMessage(`{"name":"Boomerang-FTQ64","ftq_depth":64,"fdip_probes":true,"miss_policy":{"kind":"boomerang"}}`)
	seed(inline)
	recorded := fastRun("FDIP", "Apache", 4)
	recorded.FlightEvery = 5_000
	seed(recorded)
	for _, raw := range []string{
		`{"jobs":[]}`,
		`{"jobs":[{"scheme":"Boomerang"}`,
		`{"jobs":[{"scheme":"Boomerang"}],"no_such_field":1}`,
	} {
		f.Add([]byte(raw))
	}

	// The cache holds a full batch, so a repeat finds every job that
	// succeeded the first time.
	post := newFuzzServer(f, "/v1/jobs", maxJobs)

	f.Fuzz(func(t *testing.T, body []byte) {
		code, raw := post(t, body)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("body %q: status %d: %s", body, code, raw)
		}
		var first wire.JobsResponse
		if err := json.Unmarshal(raw, &first); err != nil {
			t.Fatalf("body %q: undecodable batch answer %s: %v", body, raw, err)
		}
		for i, jr := range first.Jobs {
			if (len(jr.Result) > 0) == (jr.Error != "") {
				t.Fatalf("body %q: jobs[%d] = %+v, want exactly one of result or error", body, i, jr)
			}
			if jr.Error != "" {
				switch jr.Status {
				case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					t.Fatalf("body %q: jobs[%d] failed with status %d: %s", body, i, jr.Status, jr.Error)
				}
				continue
			}
			var r boomsim.Result
			if err := json.Unmarshal(jr.Result, &r); err != nil {
				t.Fatalf("body %q: jobs[%d] result does not decode: %v", body, i, err)
			}
		}

		code, raw = post(t, body)
		var again wire.JobsResponse
		if err := json.Unmarshal(raw, &again); code != http.StatusOK || err != nil || len(again.Jobs) != len(first.Jobs) {
			t.Fatalf("body %q: repeat answered %d with %d jobs (%v), want 200 with %d", body, code, len(again.Jobs), err, len(first.Jobs))
		}
		for i, jr := range first.Jobs {
			if jr.Error != "" {
				continue
			}
			if rep := again.Jobs[i]; !rep.Cached || !bytes.Equal(rep.Result, jr.Result) {
				t.Fatalf("body %q: repeat jobs[%d]: cached=%v, want a cache hit with the first answer's bytes:\nfirst: %s\nagain: %s",
					body, i, rep.Cached, jr.Result, rep.Result)
			}
		}
	})
}

// newFuzzServer starts a server whose short deadline keeps every input
// quick, and returns a poster for path that fails the input unless the
// answer is JSON.
func newFuzzServer(f *testing.F, path string, cacheEntries int) func(*testing.T, []byte) (int, []byte) {
	srv := New(Config{RequestTimeout: 2 * time.Second, CacheEntries: cacheEntries})
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return func(t *testing.T, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
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
}
