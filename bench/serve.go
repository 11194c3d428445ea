package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"boomsim"
	"boomsim/internal/obs"
	"boomsim/internal/server"
	"boomsim/internal/wire"
)

// service is an in-process boomsimd behind a loopback HTTP listener, with
// the fingerprints and result digests of the cells primed into it.
type service struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	bodies  [][]byte // request body per hot cell
	keys    []string // expected response key per hot cell
	digests []string // digest of each hot cell's compact Result JSON
}

func newService() *service {
	srv := server.New(server.Config{Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return &service{srv: srv, ts: ts, client: client}
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// post sends one /v1/run request and returns the response body.
func (s *service) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// prime runs every cell once through the service, concurrently from the
// benchmark's clients, and records what later responses must match.
func (s *service) prime(cells []cell) error {
	n := len(cells)
	s.bodies, s.keys, s.digests = make([][]byte, n), make([]string, n), make([]string, n)
	for j, c := range cells {
		sm, err := c.sim()
		if err != nil {
			return err
		}
		s.keys[j] = sm.Fingerprint()
		if s.bodies[j], err = json.Marshal(c.request()); err != nil {
			return err
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < n; j += clients {
				var digest string
				digest, errs[j] = s.check(s.bodies[j], s.keys[j], "")
				s.digests[j] = digest
			}
		}(c)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("priming %s on %s: %w", cells[j].Scheme, cells[j].Profile, err)
		}
	}
	return nil
}

// check posts body and verifies the response (see verify).
func (s *service) check(body []byte, key, digest string) (string, error) {
	b, err := s.post(body)
	if err != nil {
		return "", err
	}
	return verify(b, key, digest)
}

// verify checks a response body: the expected key and, when digest is not
// empty, the full result. It returns the digest of the body's compact
// Result JSON.
func verify(body []byte, key, digest string) (string, error) {
	var resp wire.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	if resp.Key != key {
		return "", fmt.Errorf("response key %s, want %s", resp.Key, key)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, resp.Result); err != nil {
		return "", err
	}
	got := digestBytes(compact.Bytes())
	if digest != "" && got != digest {
		return "", fmt.Errorf("result digest %s, want %s", got, digest)
	}
	return got, nil
}

// checkMiss verifies the response to a miss, whose result no earlier
// request gives: the expected key and a plausible result for the cell.
func checkMiss(body []byte, key string, c cell) error {
	var resp wire.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Key != key {
		return fmt.Errorf("response key %s, want %s", resp.Key, key)
	}
	var res boomsim.Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	return checkGrid([]cell{c}, []boomsim.Result{res})
}

// keyOf extracts the "key" field from a response body without decoding the
// whole result, keeping the clients' CPU share small on a two-core machine.
func keyOf(body []byte) string {
	const field = `"key": "`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return ""
	}
	rest := body[i+len(field):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// Every missEvery-th request of a client misses the result cache. A traced
// run traces whole blocks of missEvery requests, every second block, so the
// traced and untraced requests hold the same share of misses.
const missEvery = 20

func isMiss(i int) bool   { return i%missEvery == missEvery-1 }
func isTraced(i int) bool { return (i/missEvery)%2 == 1 }

// serve-mixed: an in-process boomsimd (Workers 2) behind loopback HTTP,
// driven in a closed loop by two clients. The hot set is the paper's two
// headline schemes on all 7 profiles, primed in set-up. Nineteen of every
// twenty requests hit the result cache (cache, JSON and HTTP path, no
// simulation); the twentieth asks for a hot cell with a walk seed no
// request used before, so it goes through admission and singleflight, warms
// a new master into the warm arena, forks it and measures the window. The
// misses fill the arena, which holds at most 256 masters, so resident_mb is
// that of a server that has run for a while.
func runServe(r *runner) error {
	var hot []cell
	var svc *service
	for k := 0; k < setupRepeats; k++ {
		cells := seeded(r.pairCells(50_000), uint64(k+1))
		s := newService()
		if err := r.timeSetup(func() error { return s.prime(cells) }); err != nil {
			s.close()
			return err
		}
		if k == 0 {
			hot, svc = cells, s
			defer svc.close()
		} else {
			s.close()
		}
	}
	if err := r.checkDigest(digestBytes([]byte(strings.Join(svc.digests, "\n")))); err != nil {
		return err
	}
	if r.traced {
		if _, err := r.probe(hot); err != nil {
			return err
		}
	}

	type clientLog struct {
		untraced, traced  []float64
		attempted, failed int
		problems          []string
	}
	logs := make([]clientLog, clients)
	before := memStats()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			fail := func(i int, err error) {
				lg.failed++
				if len(lg.problems) < 20 {
					lg.problems = append(lg.problems, fmt.Sprintf("client %d request %d: %v", c, i, err))
				}
			}
			rng := rand.New(rand.NewPCG(r.opts.seed, uint64(c)))
			for i := 0; i < 2*missEvery || time.Since(start) < r.until; i++ {
				lg.attempted++
				j := rng.IntN(len(hot))
				body, key := svc.bodies[j], svc.keys[j]
				var miss cell
				if isMiss(i) {
					// Misses walk the hot set in turn, each client from its
					// own starting cell, so every run mixes their costs alike.
					miss = hot[(i/missEvery+c*len(hot)/clients)%len(hot)]
					miss.Walk = 1<<32 | uint64(c)<<24 | uint64(i)
					sm, err := miss.sim()
					if err == nil {
						key = sm.Fingerprint()
						body, err = json.Marshal(miss.request())
					}
					if err != nil {
						fail(i, err)
						continue
					}
				}
				t0 := time.Now()
				b, err := svc.post(body)
				d := time.Since(t0)
				switch {
				case err != nil:
				case isMiss(i):
					err = checkMiss(b, key, miss)
				case i%50 == 49:
					_, err = verify(b, key, svc.digests[j])
				case keyOf(b) != key:
					err = fmt.Errorf("response key %q, want %s", keyOf(b), key)
				}
				if err != nil {
					fail(i, err)
					continue
				}
				if r.traced && isTraced(i) {
					lg.traced = append(lg.traced, ms(d))
					r.span("server.request", clientRow+c, t0, obs.Arg{Key: "miss", Value: isMiss(i)})
				} else {
					lg.untraced = append(lg.untraced, ms(d))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, lg := range logs {
		r.opMS = append(r.opMS, lg.untraced...)
		r.tracedMS = append(r.tracedMS, lg.traced...)
		r.attempted += lg.attempted
		r.failed += lg.failed
		r.problems = append(r.problems, lg.problems...)
	}
	r.processLayers(before, r.attempted)
	return nil
}

// probeServer measures the request path on the workload's own cells with a
// fresh service: one miss per cell, then hits from both clients, then the
// encoding cost of one cached response.
func (r *runner) probeServer(cells []cell) error {
	svc := newService()
	defer svc.close()
	var missMS, hitMS []float64
	for j, c := range cells {
		body, err := json.Marshal(c.request())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := svc.post(body); err != nil {
			return fmt.Errorf("probe miss for cell %d: %w", j, err)
		}
		missMS = append(missMS, ms(r.span("server.miss", probeRow, t0, obs.Arg{Key: "cell", Value: j})))
	}
	if err := svc.prime(cells); err != nil { // all hits now
		return err
	}
	hits := 1000
	if r.opts.quick {
		hits = 20
	}
	var mu sync.Mutex
	var bodyBytes float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := make([]float64, 0, hits)
			var size float64
			for i := 0; i < hits; i++ {
				j := (c + i*clients) % len(cells)
				t0 := time.Now()
				b, err := svc.post(svc.bodies[j])
				d := time.Since(t0)
				if err == nil && keyOf(b) != svc.keys[j] {
					err = fmt.Errorf("probe hit: response key %q, want %s", keyOf(b), svc.keys[j])
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, ms(d))
				size += float64(len(b))
			}
			mu.Lock()
			hitMS = append(hitMS, local...)
			bodyBytes += size
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	raw, err := svc.post(svc.bodies[0])
	if err != nil {
		return err
	}
	var resp server.RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	var encode []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		encode = append(encode, float64(time.Since(t0).Nanoseconds())/1e3)
	}

	all := append(append([]float64(nil), hitMS...), missMS...)
	tailMS := sorted(all)[len(all)-1]
	if _, v, ok := tail(all); ok {
		tailMS = v
	}
	st := svc.srv.Stats()
	r.layer("server.hit_p50_ms", median(hitMS))
	r.layer("server.miss_p50_ms", median(missMS))
	r.layer("server.tail_ms", tailMS)
	r.layer("server.encode_us", median(encode))
	r.layer("server.response_kb", bodyBytes/float64(len(hitMS))/1024)
	r.layer("server.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	r.layer("server.flight_shared", float64(st.FlightShared))
	r.layer("server.rejected", float64(st.Rejected))
	r.layer("server.sim_ns_per_instr", st.NsPerInstr())
	return nil
}
