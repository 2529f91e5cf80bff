package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// The public JSON shapes of both job kinds, pinned by key set on a
// single daemon and on a two-peer fleet: the 202 submit body, the
// stream's opening, partial and final lines, and GET /v1/jobs/{id}'s
// result. Keys that depend on timing (a partial's candidates, an
// elapsed time that rounds to zero) are allowed, never required.

// shapeBodies are the two kinds' submissions: the same sampled space,
// and a sweep with no constraints, so every design is feasible.
var shapeBodies = map[string]map[string]any{
	"/v1/pareto": {
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test",
		"sample":     300,
	},
	"/v1/sweeps": {
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test",
		"sample":     300,
		"top_k":      5,
	},
}

// keySet is the key set a shape must have: required keys, plus optional
// keys it may have.
type keySet struct{ required, optional []string }

func (k keySet) check(t *testing.T, what string, got map[string]json.RawMessage) {
	t.Helper()
	allowed := make(map[string]bool)
	for _, key := range k.required {
		allowed[key] = true
		if _, ok := got[key]; !ok {
			t.Errorf("%s lacks %q (keys %v)", what, key, keysOf(got))
		}
	}
	for _, key := range k.optional {
		allowed[key] = true
	}
	for key := range got {
		if !allowed[key] {
			t.Errorf("%s carries unexpected %q (keys %v)", what, key, keysOf(got))
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func plus(base []string, more ...string) []string {
	return append(append([]string(nil), base...), more...)
}

// shapeWant is every pinned shape of one kind on one topology.
type shapeWant struct {
	opening, partial, final, result keySet
}

func wantShapes(path string, fleet bool) shapeWant {
	sweep := path == "/v1/sweeps"
	line := []string{"job_id", "seq", "state", "evaluated", "designs", "objectives"}
	w := shapeWant{opening: keySet{required: line}}
	w.partial = keySet{required: line, optional: []string{"candidates"}}
	w.final = keySet{required: plus(line, "candidates", "final", "elapsed_ms")}
	w.result = keySet{required: []string{"benchmark", "objectives", "evaluated", "elapsed_ms"}}
	if sweep {
		w.partial.optional = plus(w.partial.optional, "feasible")
		w.final.required = plus(w.final.required, "feasible")
		w.result.required = plus(w.result.required, "feasible", "candidates")
	} else {
		w.result.required = plus(w.result.required, "frontier")
	}
	if fleet {
		w.partial.required = plus(w.partial.required, "shards", "workers", "worker", "delta")
		if sweep {
			// Fleet partials count every merged shard's feasible designs.
			w.partial.required = plus(w.partial.required, "feasible")
			w.partial.optional = w.partial.optional[:1]
		}
		w.final.required = plus(w.final.required, "shards", "workers")
		w.final.optional = []string{"retries"}
		w.result.required = plus(w.result.required, "workers", "shards", "retries")
	}
	return w
}

var submitShape = keySet{
	required: []string{"id", "kind", "benchmark", "state", "created_at", "designs", "evaluated", "updates"},
	optional: []string{"elapsed_ms"},
}

var statusShape = keySet{
	required: plus(submitShape.required, "elapsed_ms", "result"),
	optional: []string{"feasible", "shards", "retries", "attribution"},
}

// checkShapes runs one job of each kind through ts and pins every shape.
func checkShapes(t *testing.T, ts *httptest.Server, fleet bool) {
	t.Helper()
	for _, path := range []string{"/v1/pareto", "/v1/sweeps"} {
		want := wantShapes(path, fleet)
		payload, _ := json.Marshal(shapeBodies[path])
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var submit map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&submit)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit answered %d (%v)", path, resp.StatusCode, err)
		}
		submitShape.check(t, path+" 202 body", submit)
		var id string
		if err := json.Unmarshal(submit["id"], &id); err != nil {
			t.Fatal(err)
		}

		// from_seq=0 replays the whole stream from its opening line.
		resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/stream?from_seq=0")
		if err != nil {
			t.Fatal(err)
		}
		partials := 0
		sawFinal := false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var line map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: stream line %q: %v", path, sc.Text(), err)
			}
			switch {
			case string(line["final"]) == "true":
				want.final.check(t, path+" final line", line)
				sawFinal = true
			case string(line["seq"]) == "1":
				want.opening.check(t, path+" opening line", line)
			default:
				want.partial.check(t, path+" partial line", line)
				partials++
			}
		}
		resp.Body.Close()
		if !sawFinal || partials == 0 {
			t.Fatalf("%s: stream had %d partial lines and final=%v; want both", path, partials, sawFinal)
		}

		resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		statusShape.check(t, path+" job status", status)
		var result map[string]json.RawMessage
		if err := json.Unmarshal(status["result"], &result); err != nil {
			t.Fatalf("%s: result %s: %v", path, status["result"], err)
		}
		want.result.check(t, path+" result", result)
	}

	for path, body := range map[string]string{
		"/v1/pareto": `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","sample":10,"top_k":3}`,
		"/v1/sweeps": `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","sample":10,"bogus":1}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s answered %d, want 400", path, body, resp.StatusCode)
		}
	}
}

// TestJobShapesSingleDaemon pins both kinds' JSON on one daemon. It
// straggles, so the job lives long enough to publish partials.
func TestJobShapesSingleDaemon(t *testing.T) {
	srv := NewServer(testContext(t), testServer(t).store, 2, nil, nil)
	srv.local.Stall = time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	checkShapes(t, ts, false)
}

// TestJobShapesPeerFleet pins both kinds' JSON on a two-peer fleet,
// whose jobs publish one partial per merged shard.
func TestJobShapesPeerFleet(t *testing.T) {
	entry, _, _ := peerFleet(t, fleetSpec{shardSize: 64})
	checkShapes(t, entry, true)
}
