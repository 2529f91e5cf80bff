// Package dsedclient is the typed Go client for the dsed daemon's
// versioned /v1 API — the one way this repository speaks to a daemon.
// The cluster HTTP transport, the examples, and cmd/dse are all built on
// it, so a wire-format change breaks one package instead of five
// hand-rolled JSON call sites.
//
// Synchronous endpoints (Predict, Warm, Healthy, and the peer seams
// Gossip and Replicate) are one call each. Exploration is asynchronous:
// SubmitSweep and SubmitPareto return a job immediately; Job polls it,
// Stream follows its NDJSON partial-frontier updates (resuming
// transparently after a disconnect — every update is a cumulative
// snapshot, so the resumed stream is current from its first line), and
// Cancel aborts it. Run bundles submit → stream → final into one
// blocking call of either kind with an optional per-update callback.
//
// Errors from /v1 endpoints decode into *APIError carrying the
// structured error model (code, message, retryable, request ID); calls
// marked retryable by the daemon are retried with exponential backoff
// before they surface.
package dsedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/wire"
)

// maxResponse bounds one response read; a frontier cannot legitimately
// approach this.
const maxResponse = 64 << 20

// Client speaks the /v1 API of a daemon — or, in a leaderless fleet, of
// any of several equivalent peers: New accepts a comma-separated
// endpoint list, and the client fails over to the next endpoint when
// the current one stops answering (a dial error proves the request
// never reached a daemon, so failover is safe even for POSTs).
// It is safe for concurrent use.
type Client struct {
	endpoints []string
	cur       atomic.Int32
	hc        *http.Client
	retries   int
	backoff   time.Duration
}

// Option tunes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). nil keeps http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetries sets how many times a retryable failure is retried
// (default 2; 0 disables retries).
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoff sets the base retry backoff, doubled per attempt
// (default 100ms).
func WithBackoff(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// New builds a client for the daemon at base (e.g. "host:8090" or
// "http://host:8090"), or for a symmetric peer fleet when base is a
// comma-separated list ("host1:8090,host2:8090") — requests go to one
// endpoint at a time and fail over on connection errors.
func New(base string, opts ...Option) *Client {
	c := &Client{
		hc:      http.DefaultClient,
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, e := range strings.Split(base, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		c.endpoints = append(c.endpoints, strings.TrimRight(e, "/"))
	}
	if len(c.endpoints) == 0 {
		c.endpoints = []string{"http://" + base}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the first normalised base URL — also the worker name a
// fleet job's owner files this daemon under. It is deliberately stable under
// failover: the name must not change because a request was served by a
// different peer.
func (c *Client) Base() string { return c.endpoints[0] }

// endpoint is the base URL requests currently go to.
func (c *Client) endpoint() string {
	return c.endpoints[int(c.cur.Load())%len(c.endpoints)]
}

// rotate advances to the next endpoint, but only if the current one is
// still the endpoint that just failed — concurrent failures move the
// cursor once, not once per caller.
func (c *Client) rotate(from string) {
	if len(c.endpoints) < 2 {
		return
	}
	cur := c.cur.Load()
	if c.endpoints[int(cur)%len(c.endpoints)] == from {
		c.cur.CompareAndSwap(cur, cur+1)
	}
}

// isDialError reports whether err failed before the request was sent —
// the one transport failure where retrying a POST cannot double-apply.
func isDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// APIError is a daemon's structured /v1 error (a body without the
// structured envelope decodes into it too, with the code derived from
// the status).
type APIError struct {
	Status    int
	Code      string
	Message   string
	Retryable bool
	RequestID string
}

func (e *APIError) Error() string {
	id := ""
	if e.RequestID != "" {
		id = " req=" + e.RequestID
	}
	return fmt.Sprintf("dsed: %s (status %d%s): %s", e.Code, e.Status, id, e.Message)
}

// IsRetryable reports whether err is an *APIError the daemon marked
// retryable.
func IsRetryable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Retryable
}

// errorFromBody decodes an error payload: the structured /v1 envelope,
// or the raw status when the body carries none (a proxy's error page, a
// truncated read).
func errorFromBody(status int, raw []byte) *APIError {
	var env api.ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		e := &APIError{
			Status:    env.Error.Status,
			Code:      env.Error.Code,
			Message:   env.Error.Message,
			Retryable: env.Error.Retryable,
			RequestID: env.Error.RequestID,
		}
		if e.Status == 0 {
			e.Status = status
		}
		return e
	}
	return &APIError{
		Status:    status,
		Code:      api.CodeForStatus(status),
		Message:   fmt.Sprintf("status %d", status),
		Retryable: api.RetryableStatus(status),
	}
}

// do sends one JSON request, retrying retryable failures, and decodes a
// 2xx answer into out (nil discards the body). Against a multi-endpoint
// fleet, a retryable verdict or a GET's 404 also rotates to the next
// peer before the retry: any peer can serve the request, and during the
// window after an owner dies a peer legitimately answers 404 or 503 for
// a job that lives (or is about to live) on its successor — the same
// tolerance Stream.resume extends mid-stream.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("dsed: encoding %s request: %w", path, err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		base := c.endpoint()
		err := c.once(ctx, base, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= c.retries || !(c.shouldRetry(method, err) || c.notFoundElsewhere(method, err)) {
			return lastErr
		}
		if IsRetryable(err) || c.notFoundElsewhere(method, err) {
			c.rotate(base)
		}
		if err := sleep(ctx, c.backoff<<attempt); err != nil {
			return lastErr
		}
	}
}

// notFoundElsewhere reports whether a 404 should burn a retry against
// the next peer instead of standing as a verdict: only for GETs, and
// only against a multi-endpoint fleet, where "not here" does not mean
// "nowhere" while a job moves to its adopter.
func (c *Client) notFoundElsewhere(method string, err error) bool {
	if len(c.endpoints) < 2 || method != http.MethodGet {
		return false
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// shouldRetry: the daemon's explicit retryable verdicts retry any method;
// transport-level failures retry only methods that cannot create state
// (a lost POST /v1/sweeps answer may have created a job) — except dial
// failures, where the request never left this process, so any method
// retries safely against the next endpoint.
func (c *Client) shouldRetry(method string, err error) bool {
	if IsRetryable(err) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return false // a non-retryable verdict is deterministic
	}
	if isDialError(err) {
		return true
	}
	return method == http.MethodGet || method == http.MethodDelete
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) once(ctx context.Context, base, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", api.ContentJSON)
	}
	req.Header.Set("Accept", api.ContentJSON)
	setTraceHeaders(req, ctx)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rotate(base) // the endpoint stopped answering; try the next peer
		return fmt.Errorf("dsed: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return fmt.Errorf("dsed: reading %s response: %w", path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return errorFromBody(resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("dsed: decoding %s response: %w", path, err)
	}
	return nil
}

// setTraceHeaders propagates the caller's trace span and request ID, if
// the context carries them, so an owner's dispatch span parents the
// peer's job spans and one request ID threads the whole fan-out.
func setTraceHeaders(req *http.Request, ctx context.Context) {
	if sc, ok := obs.SpanFromContext(ctx); ok && sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	if id := api.RequestID(ctx); id != "" {
		req.Header.Set(api.RequestIDHeader, id)
	}
}

// Trace fetches a finished (or running) job's assembled span tree
// (GET /v1/jobs/{id}/trace). For a fleet job the tree spans the whole
// fleet: the owner's root and dispatch spans with every peer's imported
// job and phase spans beneath them.
func (c *Client) Trace(ctx context.Context, jobID string) (*obs.JobTrace, error) {
	var out obs.JobTrace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy probes the daemon's liveness.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// BenchmarksResponse answers GET /v1/benchmarks.
type BenchmarksResponse struct {
	Trained           []string `json:"trained"`
	TrainableOnDemand []string `json:"trainable_on_demand"`
	Metrics           []string `json:"metrics"`
}

// Benchmarks lists what the daemon serves: trained models and benchmarks
// it would train on demand.
func (c *Client) Benchmarks(ctx context.Context) (*BenchmarksResponse, error) {
	var out BenchmarksResponse
	if err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Predict answers the single form of POST /v1/predict.
func (c *Client) Predict(ctx context.Context, req wire.PredictRequest) (*wire.PredictResponse, error) {
	var out wire.PredictResponse
	if err := c.do(ctx, http.MethodPost, "/v1/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PredictBatch answers the batch form of POST /v1/predict (configs ×
// metrics in one request).
func (c *Client) PredictBatch(ctx context.Context, req wire.PredictRequest) (*wire.BatchPredictResponse, error) {
	var out wire.BatchPredictResponse
	if err := c.do(ctx, http.MethodPost, "/v1/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Warm pre-trains (or warm-starts) the benchmarks ahead of the first
// sweep that needs them.
func (c *Client) Warm(ctx context.Context, benchmarks []string) (*wire.WarmResponse, error) {
	return c.WarmScoped(ctx, benchmarks, "")
}

// WarmScoped is Warm with an explicit dispatch scope: wire.ScopeLocal
// pins training to the receiving daemon. The cluster transport uses it
// so a symmetric peer trains the models itself instead of re-placing
// them across the fleet.
func (c *Client) WarmScoped(ctx context.Context, benchmarks []string, scope string) (*wire.WarmResponse, error) {
	var out wire.WarmResponse
	req := wire.WarmRequest{Benchmarks: benchmarks, Scope: scope}
	if err := c.do(ctx, http.MethodPost, "/v1/warm", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Gossip exchanges membership digests with a peer (POST /v1/gossip):
// ours rides in the request, the peer's comes back in the response, and
// both sides merge. The peer-mode anti-entropy loop calls this once per
// round against one random peer.
func (c *Client) Gossip(ctx context.Context, req wire.GossipRequest) (*wire.GossipResponse, error) {
	var out wire.GossipResponse
	if err := c.do(ctx, http.MethodPost, "/v1/gossip", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Replicate pushes one coordinated job's survival state to a replica
// peer (POST /v1/jobs/replicate) so the peer can adopt and finish the
// job if this daemon dies.
func (c *Client) Replicate(ctx context.Context, req wire.ReplicateRequest) (*wire.ReplicateResponse, error) {
	var out wire.ReplicateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/replicate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
