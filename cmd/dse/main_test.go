package main

import (
	"testing"

	"repro/internal/api"
	"repro/internal/wire"
)

// TestPartialLine: only a partial answer prints as a "partial:" line —
// not a job's shape-only opening snapshot, and not the final update — so
// a script grepping for "^partial: " sees one only when a partial
// frontier really streamed.
func TestPartialLine(t *testing.T) {
	cases := []struct {
		name string
		u    api.Update
		want string
	}{
		{"opening snapshot", api.Update{Designs: 300}, ""},
		{"final", api.Update{Final: true, Evaluated: 300, Designs: 300}, ""},
		{"local partial", api.Update{Evaluated: 128, Designs: 300, Candidates: make([]wire.Candidate, 3)},
			"partial: evaluated 128/300, 3 candidates"},
		{"fleet partial", api.Update{Evaluated: 64, Designs: 300, Shards: 2, Worker: "http://127.0.0.1:9401", Candidates: make([]wire.Candidate, 1)},
			"partial: evaluated 64/300, 1 candidates (2 shards, last from http://127.0.0.1:9401)"},
	}
	for _, tc := range cases {
		line, ok := partialLine(tc.u)
		if ok != (tc.want != "") || line != tc.want {
			t.Errorf("%s: partialLine = %q, %v; want %q", tc.name, line, ok, tc.want)
		}
	}
}
