package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// RetryClient posts JSON with bounded retries. It is the one place in the
// module that consumes the backpressure boomsimd emits: a 429 or 503 with a
// Retry-After header sleeps for at least the server's hint, transport
// errors and other 5xx responses back off exponentially with full jitter,
// and non-retryable 4xx responses surface immediately as a *StatusError.
// It is the coordinator's transport.
type RetryClient struct {
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds total tries per request (default 3).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it and any Retry-After hint (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// sleep substitutes the inter-attempt wait in tests (a fake clock that
	// records durations instead of burning wall time). nil = real sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// StatusError is a non-2xx response that survived (or bypassed) retries.
type StatusError struct {
	Code int
	Body string

	// retryAfter is the server's Retry-After hint, consumed by backoff.
	retryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, snippet(e.Body))
}

func snippet(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

func (c *RetryClient) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

func (c *RetryClient) baseDelay() time.Duration {
	if c.BaseDelay > 0 {
		return c.BaseDelay
	}
	return 100 * time.Millisecond
}

func (c *RetryClient) maxDelay() time.Duration {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 5 * time.Second
}

func (c *RetryClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// PostJSON posts body to url and returns the response body. Retryable
// failures (transport errors, 429, 5xx) are retried up to MaxAttempts with
// jittered exponential backoff, honoring any Retry-After the server sends;
// other non-2xx statuses return a *StatusError without retrying.
func (c *RetryClient) PostJSON(ctx context.Context, url string, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			sleep := c.sleep
			if sleep == nil {
				sleep = sleepCtx
			}
			if err := sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return nil, err
			}
		}
		raw, err := c.postOnce(ctx, url, body)
		if err == nil {
			return raw, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w", url, ctx.Err())
		}
		if !retryable(err) {
			return nil, fmt.Errorf("%s: %w", url, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%s: giving up after %d attempts: %w", url, c.attempts(), lastErr)
}

func (c *RetryClient) postOnce(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		se := &StatusError{Code: resp.StatusCode, Body: string(raw)}
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			se.retryAfter = d
		}
		return nil, se
	}
	return raw, nil
}

// retryable classifies an attempt's failure: transport errors, capacity
// (429) and server-side conditions (5xx) may clear on retry; everything
// else is the caller's bug and retrying would only repeat it.
func retryable(err error) bool {
	if se, ok := err.(*StatusError); ok {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	return true // transport-level failure
}

// backoff computes the pre-attempt sleep: full-jitter exponential from
// BaseDelay, floored at the server's Retry-After hint when one came back,
// capped at MaxDelay.
func (c *RetryClient) backoff(attempt int, lastErr error) time.Duration {
	// Double up to the cap iteratively: a shift by attempt-1 would
	// overflow int64 for generously configured MaxAttempts.
	ceil, limit := c.baseDelay(), c.maxDelay()
	for i := 1; i < attempt && ceil < limit/2; i++ {
		ceil *= 2
	}
	if ceil > limit {
		ceil = limit
	}
	d := time.Duration(rand.Int64N(int64(ceil))) + ceil/2 // jitter in [ceil/2, 3ceil/2)
	if se, ok := lastErr.(*StatusError); ok && se.retryAfter > d {
		d = se.retryAfter
	}
	if d > limit {
		d = limit
	}
	return d
}

// parseRetryAfter understands both RFC 9110 forms: delay-seconds and an
// HTTP-date.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
