package main

import (
	"net/http"

	"repro/internal/api"
)

// The HTTP plumbing (bounded decoding, method checks, the structured
// error model, request-ID propagation) lives in internal/api, shared
// with the typed client; the handlers call it directly.

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
