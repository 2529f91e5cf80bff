package dsedclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
)

// SubmitSweep starts an asynchronous constrained top-K job
// (POST /v1/sweeps) and returns its initial status immediately.
func (c *Client) SubmitSweep(ctx context.Context, req wire.SweepRequest) (*api.JobStatus, error) {
	return c.submit(ctx, req)
}

// SubmitPareto starts an asynchronous Pareto-frontier job
// (POST /v1/pareto) and returns its initial status immediately.
func (c *Client) SubmitPareto(ctx context.Context, req wire.ParetoRequest) (*api.JobStatus, error) {
	return c.submit(ctx, req)
}

// submit starts a job of req's kind at the kind's route.
func (c *Client) submit(ctx context.Context, req wire.JobRequest) (*api.JobStatus, error) {
	path := "/v1/pareto"
	if req.Spec().Kind == wire.JobSweep {
		path = "/v1/sweeps"
	}
	var out api.JobStatus
	if err := c.do(ctx, http.MethodPost, path, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job polls one job's status (GET /v1/jobs/{id}); the final result rides
// along once the job is done.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel aborts a running job (DELETE /v1/jobs/{id}). On a job that has
// already settled, DELETE releases it from the daemon's table instead —
// consumers that have read their result use it to free the retained
// payload (Run does this automatically).
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stream follows one job's NDJSON update stream. Create it with
// Client.Stream, then call Next until io.EOF (which follows the Final
// update). Streams are not safe for concurrent use.
type Stream struct {
	c   *Client
	ctx context.Context
	id  string
	// finalOnly asks the daemon to suppress intermediate snapshots
	// (?updates=final) — for consumers that only want the answer.
	finalOnly bool
	// replay opens the first attach at ?from_seq=0, replaying every
	// retained update instead of priming with the latest snapshot, so a
	// consumer of a job that settled before the stream attached still
	// sees its partials.
	replay bool
	// maxLine bounds one NDJSON line; a longer one is an error, never
	// an unbounded read.
	maxLine int

	body       io.ReadCloser
	br         *bufio.Reader
	endpoint   string // base URL this stream is (or was last) connected to
	lastSeq    int
	done       bool
	reconnects int
}

// Stream opens a streaming iterator over the job's partial results. The
// connection is opened lazily on the first Next; a mid-stream disconnect
// reconnects transparently (it resumes after the last Seq it saw, so
// nothing is lost) up to the client's retry budget.
func (c *Client) Stream(ctx context.Context, jobID string) *Stream {
	return &Stream{c: c, ctx: ctx, id: jobID, maxLine: maxResponse}
}

// Next returns the next update. After the Final update it returns
// io.EOF. Updates come back in strictly rising Seq: duplicate snapshots
// replayed across a reconnect are skipped.
func (s *Stream) Next() (*api.Update, error) {
	for {
		if s.done {
			return nil, io.EOF
		}
		if s.br == nil {
			if err := s.connect(); err != nil {
				if err := s.resume(err); err != nil {
					return nil, err
				}
				continue
			}
		}
		line, err := s.readLine()
		if errors.Is(err, errLineTooLong) {
			s.closeBody()
			return nil, fmt.Errorf("dsed: job %s update: %w (%d bytes)", s.id, err, s.maxLine)
		}
		if err != nil {
			s.closeBody()
			if err := s.resume(err); err != nil {
				return nil, err
			}
			continue
		}
		if len(line) <= 1 {
			continue
		}
		var u api.Update
		if err := json.Unmarshal(line, &u); err != nil {
			return nil, fmt.Errorf("dsed: decoding job %s update: %w", s.id, err)
		}
		s.reconnects = 0
		if u.Seq <= s.lastSeq {
			continue // replayed snapshot we already saw
		}
		s.lastSeq = u.Seq
		if u.Final {
			s.done = true
			s.closeBody()
		}
		return &u, nil
	}
}

// errLineTooLong rejects an NDJSON line over the stream's bound.
var errLineTooLong = errors.New("stream line too long")

// readLine reads one NDJSON line, its newline included, failing with
// errLineTooLong past maxLine bytes. Like bufio.Reader.ReadBytes, it
// returns what it read with the error when the body ends mid-line.
func (s *Stream) readLine() ([]byte, error) {
	var line []byte
	for {
		frag, err := s.br.ReadSlice('\n')
		if len(line)+len(frag) > s.maxLine {
			return nil, errLineTooLong
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// maxStreamBackoff caps the reconnect backoff: a stream riding out a
// job owner's death must probe at adoption pace, not exponential pace.
const maxStreamBackoff = 2 * time.Second

// resume decides whether a lost connection (read error or failed
// reconnect attempt) is retried: deterministic daemon verdicts surface
// immediately against a single daemon, everything transient burns one
// unit of the reconnect budget and backs off. Against a multi-endpoint
// fleet the budget covers one full rotation per retry, transport errors
// rotate to the next peer, and even a 404 is retried — during the
// adoption window after an owner dies, a peer legitimately answers 404
// until the adopter has re-registered the job. A nil return means try
// again; non-nil is the error to surface.
func (s *Stream) resume(cause error) error {
	multi := len(s.c.endpoints) > 1
	var ae *APIError
	if errors.As(cause, &ae) && !ae.Retryable {
		if !multi || ae.Status != http.StatusNotFound {
			return cause
		}
		s.c.rotate(s.endpoint) // this peer may not know the job yet; ask the next
	}
	if s.ctx.Err() != nil {
		return s.ctx.Err()
	}
	s.reconnects++
	if s.reconnects > (s.c.retries+1)*len(s.c.endpoints) {
		return fmt.Errorf("dsed: job %s stream lost: %w", s.id, cause)
	}
	backoff := s.c.backoff << (s.reconnects - 1)
	if backoff > maxStreamBackoff || backoff <= 0 {
		backoff = maxStreamBackoff
	}
	return sleep(s.ctx, backoff)
}

func (s *Stream) connect() error {
	s.endpoint = s.c.endpoint()
	url := s.endpoint + "/v1/jobs/" + s.id + "/stream"
	sep := "?"
	if s.finalOnly {
		url += sep + "updates=final"
		sep = "&"
	}
	if s.lastSeq > 0 || s.replay {
		// Delta resume: replay only what this stream has not seen (all
		// of it on a replaying first attach). The daemon degrades to the
		// latest cumulative snapshot past its retention horizon, and Next
		// skips duplicates by Seq either way.
		url += sep + "from_seq=" + strconv.Itoa(s.lastSeq)
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", api.ContentNDJSON)
	setTraceHeaders(req, s.ctx)
	resp, err := s.c.hc.Do(req)
	if err != nil {
		s.c.rotate(s.endpoint)
		return fmt.Errorf("dsed: opening job %s stream: %w", s.id, err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
		resp.Body.Close()
		return errorFromBody(resp.StatusCode, raw)
	}
	s.body = resp.Body
	s.br = bufio.NewReader(resp.Body)
	return nil
}

func (s *Stream) closeBody() {
	if s.body != nil {
		s.body.Close()
		s.body = nil
	}
	s.br = nil
}

// Close releases the stream's connection; Next afterwards returns io.EOF.
func (s *Stream) Close() {
	s.done = true
	s.closeBody()
}

// errorFromUpdate lifts a failed job's terminal update into an *APIError.
func errorFromUpdate(e *api.Error) *APIError {
	status := e.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	return &APIError{
		Status:    status,
		Code:      e.Code,
		Message:   e.Message,
		Retryable: e.Retryable,
		RequestID: e.RequestID,
	}
}

// follow runs submit → stream → final for one job, invoking onUpdate for
// every update (including the final one), and returns the terminal
// update. With an onUpdate the stream opens at ?from_seq=0, so the
// callback sees the job's retained partials even when the job settled
// before the stream attached. Without one the daemon is asked to
// suppress intermediate snapshots entirely (?updates=final) — no
// partial-frontier serialization for a consumer that would discard
// it. If ctx dies mid-stream the job is cancelled on the daemon too, so
// an abandoned caller does not leak server-side work; after the final
// update the job is DELETEd (best effort), releasing its retained
// result immediately instead of waiting out the daemon's retention
// window.
func (c *Client) follow(ctx context.Context, id string, onUpdate func(api.Update)) (*api.Update, error) {
	st := c.Stream(ctx, id)
	st.finalOnly = onUpdate == nil
	st.replay = onUpdate != nil
	defer st.Close()
	for {
		u, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("dsed: job %s stream ended without a final update", id)
			}
			c.cancelDetached(id)
			return nil, err
		}
		if onUpdate != nil {
			onUpdate(*u)
		}
		if u.Final {
			go c.cancelDetached(id) // DELETE a settled job = release it
			if u.Error != nil {
				return nil, errorFromUpdate(u.Error)
			}
			return u, nil
		}
	}
}

// cancelDetached best-effort-cancels a job after the caller's own
// context died, on a fresh short-lived context.
func (c *Client) cancelDetached(id string) {
	//dsedlint:ignore ctxflow runs after the caller's context died; cancelling the server-side job needs a fresh short-lived one
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = c.Cancel(ctx, id)
}

// Run is the blocking convenience over the async API: submit a job of
// either kind (a wire.ParetoRequest or a wire.SweepRequest), stream its
// cumulative snapshots through onUpdate (nil to ignore), and return the
// final update — the merged answer in Candidates, with a peer fleet's
// distribution accounting (zero against a single daemon) — and the job's
// ID, which GET /v1/jobs/{id}/trace takes.
func (c *Client) Run(ctx context.Context, req wire.JobRequest, onUpdate func(api.Update)) (final *api.Update, jobID string, err error) {
	st, err := c.submit(ctx, req)
	if err != nil {
		return nil, "", err
	}
	final, err = c.follow(ctx, st.ID, onUpdate)
	return final, st.ID, err
}
