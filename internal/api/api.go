// Package api defines the daemon's versioned HTTP surface: the /v1
// route map, the structured error model every /v1 endpoint answers with,
// request-ID propagation, content negotiation, and the async job
// subsystem behind POST /v1/sweeps and /v1/pareto. It is shared by the
// serving layer (cmd/dsed, a single daemon and a peer alike) and the
// typed Go client (pkg/dsedclient), so the two sides of the wire cannot
// drift apart.
//
// Versioning policy: /v1 routes are stable — fields may be added to
// responses, never removed or re-typed. The original unversioned routes
// (/predict, /sweep, /pareto, ...) were removed after their deprecation
// period; every path outside /v1 answers the structured 404.
package api

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
)

// MaxRequestBody bounds every POST body; oversized requests are rejected
// with 413 before they reach the JSON decoder.
const MaxRequestBody = 1 << 20

// Error codes of the structured /v1 error model. Codes are stable wire
// contract; the HTTP status is advisory beside them.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTooLarge         = "too_large"
	CodeNotAcceptable    = "not_acceptable"
	CodeTooManyJobs      = "too_many_jobs"
	CodeUnavailable      = "unavailable"
	CodeBadGateway       = "bad_gateway"
	CodeInternal         = "internal"
)

// Error is the structured error body every /v1 endpoint answers with.
// Retryable tells a client whether backing off and re-sending the same
// request can succeed (the fleet was busy or mid-churn) or is pointless
// (the request itself is at fault).
type Error struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	RequestID string `json:"request_id,omitempty"`
	// Status echoes the HTTP status the error travelled with, so an
	// error read off a job stream (where there is no per-update status
	// line) still maps onto its HTTP status.
	Status int `json:"status,omitempty"`
}

// ErrorEnvelope wraps the structured error body on the wire:
// {"error": {"code": ..., "message": ..., ...}}.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// CodeForStatus maps an HTTP status onto its stable error code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusNotAcceptable:
		return CodeNotAcceptable
	case http.StatusTooManyRequests:
		return CodeTooManyJobs
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusBadGateway:
		return CodeBadGateway
	default:
		return CodeInternal
	}
}

// RetryableStatus reports whether a status signals a transient condition
// worth retrying with backoff.
func RetryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// NewError builds the structured body for one failure.
func NewError(status int, requestID, format string, args ...any) Error {
	return Error{
		Code:      CodeForStatus(status),
		Message:   fmt.Sprintf(format, args...),
		Retryable: RetryableStatus(status),
		RequestID: requestID,
		Status:    status,
	}
}

// reqLogKey carries the structured request logger through the request
// context, so response writers deep in a handler can report I/O faults.
type reqLogKey struct{}

// WithLogger attaches the structured request logger to a context.
func WithLogger(ctx context.Context, l *log.Logger) context.Context {
	return context.WithValue(ctx, reqLogKey{}, l)
}

// Logger recovers the request logger (nil when absent or running quiet).
func Logger(ctx context.Context) *log.Logger {
	l, _ := ctx.Value(reqLogKey{}).(*log.Logger)
	return l
}

// reqIDKey carries the per-request ID through the request context.
type reqIDKey struct{}

// WithRequestID attaches a request ID to a context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID recovers the request's ID ("" when the middleware did not
// run, e.g. in direct handler tests).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// RequestIDHeader is how clients supply (and the daemon echoes) the
// request ID.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds a client-supplied request ID so a hostile header
// cannot bloat every log line and error body.
const maxRequestIDLen = 64

// NewRequestID mints a fresh request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// requests serviceable and is still greppable.
		return "req-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID accepts a client-supplied ID if it is printable,
// header-safe and reasonably sized; otherwise it returns "" and the
// middleware mints one.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for _, r := range id {
		if r <= ' ' || r > '~' || r == '"' || r == '\\' {
			return ""
		}
	}
	return id
}

// Content types the daemon speaks.
const (
	ContentJSON   = "application/json"
	ContentNDJSON = "application/x-ndjson"
)

// Negotiable reports whether the request's Accept header admits the
// offered content type. Absent and wildcard Accept headers admit
// everything; parameters (q-values) are ignored — the daemon has exactly
// one representation per endpoint, so negotiation is a yes/no question.
// application/json is additionally admitted for the NDJSON offer: every
// NDJSON line is a JSON document, and streaming clients routinely send
// Accept: application/json.
func Negotiable(r *http.Request, offer string) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return true
	}
	for _, part := range strings.Split(accept, ",") {
		mediaType := strings.TrimSpace(part)
		if i := strings.IndexByte(mediaType, ';'); i >= 0 {
			mediaType = strings.TrimSpace(mediaType[:i])
		}
		switch {
		case mediaType == "*/*" || mediaType == "application/*":
			return true
		case strings.EqualFold(mediaType, offer):
			return true
		case offer == ContentNDJSON && strings.EqualFold(mediaType, ContentJSON):
			return true
		}
	}
	return false
}

// encBufPool recycles the scratch buffers behind EncodeJSON. Responses
// and stream updates are minted at model-query rates during a sweep, so
// the per-write buffer would otherwise be the serving layer's dominant
// steady-state allocation.
var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledEncodeBuf caps the capacity a buffer may keep when returned to
// the pool: one oversized frontier payload must not stay pinned in memory
// for the daemon's lifetime.
const maxPooledEncodeBuf = 1 << 20

// EncodeJSON marshals v through a pooled scratch buffer and writes it to
// w in a single Write as a newline-terminated JSON document (the
// json.Encoder framing, so it is also one well-formed NDJSON line). An
// encode error reports a bad value with nothing written; a write error
// reports the connection.
func EncodeJSON(w io.Writer, v any) error {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(v)
	if err == nil {
		_, err = w.Write(buf.Bytes())
	}
	if buf.Cap() <= maxPooledEncodeBuf {
		encBufPool.Put(buf)
	}
	return err
}

// WriteJSON writes one response body. Encode failures after the header is
// committed cannot be turned into an error status, but they must not
// vanish either — a NaN score or a mid-body disconnect is logged through
// the structured request logger.
func WriteJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", ContentJSON)
	w.WriteHeader(status)
	if err := EncodeJSON(w, v); err != nil {
		if logger := Logger(r.Context()); logger != nil {
			logger.Printf("req=%s encoding %s response: %v", RequestID(r.Context()), r.URL.Path, err)
		}
	}
}

// WriteError writes the structured /v1 error envelope, tagging it with
// the request's ID.
func WriteError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	WriteJSON(w, r, status, ErrorEnvelope{Error: NewError(status, RequestID(r.Context()), format, args...)})
}

// DecodePost enforces POST, a bounded body, and strict JSON; it writes
// the error response itself and reports whether the handler should
// continue.
func DecodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, r, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, r, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		WriteError(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// RequireGet enforces GET on read-only endpoints.
func RequireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		WriteError(w, r, http.StatusMethodNotAllowed, "use GET")
		return false
	}
	return true
}
