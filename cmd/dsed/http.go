package main

import (
	"net/http"

	"repro/internal/api"
)

// The HTTP plumbing (bounded decoding, method checks, the structured
// error model, request-ID propagation) lives in internal/api, shared
// with the typed client; these helpers bind it to the daemon's handlers.

// maxRequestBody is re-exported for tests that size oversized payloads.
const maxRequestBody = api.MaxRequestBody

// httpError writes the structured {code, message, retryable, request_id}
// error envelope; the X-Request-ID response header carries the ID too.
func httpError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	api.WriteError(w, r, status, format, args...)
}

// writeJSON writes one response body, logging encode failures through
// the structured request logger.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	api.WriteJSON(w, r, status, v)
}

// decodePost enforces POST, a bounded body, and strict JSON.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	return api.DecodePost(w, r, v)
}

// requireGet enforces GET on read-only endpoints.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	return api.RequireGet(w, r)
}

// negotiated guards a JSON endpoint: a client that explicitly refuses
// application/json gets 406 with the structured error model instead of
// a body it declared it cannot read.
func negotiated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !api.Negotiable(r, api.ContentJSON) {
			api.WriteError(w, r, http.StatusNotAcceptable, "this endpoint answers %s", api.ContentJSON)
			return
		}
		h(w, r)
	}
}
