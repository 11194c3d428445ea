package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// StatusError is a non-2xx answer to a batch post.
type StatusError struct {
	Code int
	Body string
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

// envelopeBytes bounds what a /v1/jobs answer holds besides its job
// entries: the JobsResponse wrapper, its indentation and the separators.
const envelopeBytes = 4 << 10

// post sends one batch to url, once, and returns the answer's body, or a
// *StatusError for a non-2xx answer. Retrying is the event loop's job. At
// most limit bytes of the answer are read; a longer one fails with an error
// naming the cap, so a cut body never reaches the decoder.
func post(ctx context.Context, httpc *http.Client, url string, body []byte, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("%s: answer exceeds the %d-byte read cap", url, limit)
	}
	return raw, nil
}
