package cluster

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"boomsim/internal/wire"
)

// onLog hands every coordinator log message to a function; the event loop
// logs synchronously, so the function runs on the goroutine that called Run.
type onLog func(msg string)

func (f onLog) Enabled(context.Context, slog.Level) bool { return true }
func (f onLog) Handle(_ context.Context, r slog.Record) error {
	f(r.Message)
	return nil
}
func (f onLog) WithAttrs([]slog.Attr) slog.Handler { return f }
func (f onLog) WithGroup(string) slog.Handler      { return f }

// TestCoordinatorRetriesFailedBatches pins the one retry path: the
// transport posts each batch once, and the event loop decides what a failed
// post costs. Every row sends two jobs, which travel in one batch, to one
// fake worker whose whole-batch answers are scripted.
func TestCoordinatorRetriesFailedBatches(t *testing.T) {
	fail := func(codes ...int) func(int) int {
		return func(post int) int {
			if post <= len(codes) {
				return codes[post-1]
			}
			return 0
		}
	}
	always := func(code int) func(int) int { return func(int) int { return code } }
	type outcome struct {
		err         error
		posts       []fakePost
		stats       Stats
		sinceCancel time.Duration
	}
	rejected := func(code int) func(*testing.T, outcome) {
		return func(t *testing.T, o outcome) {
			var se *StatusError
			if !errors.As(o.err, &se) || se.Code != code || errors.Is(o.err, ErrWorkerFailed) {
				t.Fatalf("err = %v, want the worker's whole-batch %d", o.err, code)
			}
			if len(o.posts) != 1 {
				t.Fatalf("worker saw %d posts, want 1: a %d is not retried", len(o.posts), code)
			}
		}
	}
	// recovered checks a sweep that completed after failed posts; each
	// failed post requeues both jobs.
	recovered := func(failed int) func(*testing.T, outcome) {
		return func(t *testing.T, o outcome) {
			if o.err != nil {
				t.Fatalf("sweep failed: %v", o.err)
			}
			if len(o.posts) != failed+1 {
				t.Fatalf("worker saw %d posts, want %d failed and 1 answered", len(o.posts), failed)
			}
			if want := uint64(2 * failed); o.stats.JobsRetried != want {
				t.Errorf("JobsRetried = %d, want %d (2 jobs x %d failed posts)", o.stats.JobsRetried, want, failed)
			}
		}
	}
	cases := []struct {
		name     string
		batch    func(post int) int
		perJob   func(key string, seen int) *wire.JobResult
		attempts int
		breaker  time.Duration // BreakerCooldown; 0 = 10ms
		// cancelOnTrip cancels the sweep as the worker's breaker opens.
		cancelOnTrip bool
		check        func(*testing.T, outcome)
	}{
		{name: "whole-batch 400 aborts after one post", batch: always(http.StatusBadRequest),
			check: rejected(http.StatusBadRequest)},
		{name: "whole-batch 404 aborts after one post", batch: always(http.StatusNotFound),
			check: rejected(http.StatusNotFound)},
		{name: "whole-batch 500 is re-posted", batch: fail(http.StatusInternalServerError),
			check: recovered(1)},
		{name: "connection reset is re-posted", batch: fail(resetConn),
			check: recovered(1)},
		{name: "whole-batch 503 storm is re-posted through the breaker",
			batch: fail(http.StatusServiceUnavailable, http.StatusServiceUnavailable),
			check: func(t *testing.T, o outcome) {
				recovered(2)(t, o)
				if o.stats.WorkerDeaths != 1 || o.stats.BreakerCloses != 1 {
					t.Errorf("WorkerDeaths = %d, BreakerCloses = %d; want the breaker opened and closed once",
						o.stats.WorkerDeaths, o.stats.BreakerCloses)
				}
			}},
		{name: "worker failing forever exhausts MaxAttempts posts", batch: always(http.StatusInternalServerError),
			attempts: 3,
			check: func(t *testing.T, o outcome) {
				if !errors.Is(o.err, ErrWorkerFailed) {
					t.Fatalf("err = %v, want ErrWorkerFailed", o.err)
				}
				if len(o.posts) != 3 {
					t.Fatalf("worker saw %d posts, want exactly MaxAttempts = 3", len(o.posts))
				}
				for i, p := range o.posts {
					if len(p.keys) != 2 {
						t.Errorf("post %d carried %v, want both jobs", i+1, p.keys)
					}
				}
			}},
		{name: "cancel while the worker cools down returns promptly", batch: always(http.StatusInternalServerError),
			attempts: 10, breaker: time.Minute, cancelOnTrip: true,
			check: func(t *testing.T, o outcome) {
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", o.err)
				}
				if o.sinceCancel > time.Second {
					t.Errorf("Run returned %v after cancel, inside a 1m breaker cooldown", o.sinceCancel)
				}
				if len(o.posts) != 2 {
					t.Errorf("worker saw %d posts, want DeadAfter = 2 before the breaker opened", len(o.posts))
				}
			}},
		{name: "per-job 429 delays the next post by retry_after_ms",
			perJob: func(key string, seen int) *wire.JobResult {
				if seen == 1 {
					return &wire.JobResult{Error: "queue full", Status: http.StatusTooManyRequests, RetryAfterMS: 150}
				}
				return nil
			},
			check: func(t *testing.T, o outcome) {
				recovered(1)(t, o)
				if len(o.posts) == 2 {
					if gap := o.posts[1].at.Sub(o.posts[0].at); gap < 150*time.Millisecond {
						t.Errorf("second post came %v after the first, want >= the 150ms hint", gap)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newFakeWorker(t)
			w.batch, w.perJob = tc.batch, tc.perJob
			cfg := testConfig(w)
			cfg.MaxAttempts = tc.attempts
			cfg.BreakerCooldown = tc.breaker
			if cfg.BreakerCooldown == 0 {
				cfg.BreakerCooldown = 10 * time.Millisecond
			}
			cfg.BreakerMaxCooldown = cfg.BreakerCooldown
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt time.Time
			if tc.cancelOnTrip {
				cfg.Logger = slog.New(onLog(func(msg string) {
					if msg == "cluster: breaker opened" {
						canceledAt = time.Now()
						cancel()
					}
				}))
			}
			co, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs := makeJobs(2)
			results, err := co.Run(ctx, jobs)
			o := outcome{err: err, posts: w.postLog(), stats: co.Stats()}
			if !canceledAt.IsZero() {
				o.sinceCancel = time.Since(canceledAt)
			}
			if err == nil {
				checkResults(t, jobs, results)
			}
			tc.check(t, o)
		})
	}
}

// TestPostReadCap pins the transport's read cap: an answer of exactly the
// cap is read whole, and one byte more fails with an error naming the cap
// instead of handing a cut body to the decoder.
func TestPostReadCap(t *testing.T) {
	const limit = 4096
	for _, n := range []int{limit, limit + 1} {
		t.Run(strconv.Itoa(n)+" bytes", func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(strings.Repeat("x", n)))
			}))
			defer srv.Close()
			raw, err := post(context.Background(), srv.Client(), srv.URL, []byte(`{}`), limit)
			if n <= limit {
				if err != nil || len(raw) != n {
					t.Fatalf("post = %d bytes, %v; want all %d", len(raw), err, n)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), strconv.Itoa(limit)+"-byte read cap") {
				t.Fatalf("post = %d bytes, %v; want an error naming the %d-byte cap", len(raw), err, limit)
			}
		})
	}
}
