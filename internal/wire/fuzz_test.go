package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// maxFuzzWindow bounds the windows the fuzz target materialises: a
// window is built design by design, and a whole-train-space window per
// iteration would make the target a full-factorial benchmark.
const maxFuzzWindow = 8192

// FuzzSpaceSpec drives sweep and frontier request bodies through the
// serving layer's accept path — strict decode, Validate, ResolveEarly —
// and resolves accepted windows. Nothing may panic, an accepted window
// yields exactly count designs, and an accepted sample is within
// MaxSample.
func FuzzSpaceSpec(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test","sample":300}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"test","sample":200,"top_k":5,"constraints":[{"objective":1,"max":1000}]}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"train","sample":20000}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"train"}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"designs":[{"fetch_width":4},{"rob_size":160,"dvm":true,"dvm_threshold":0.2}]}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","offset":1000,"count":3000,"scope":"local"}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","offset":-1,"count":2}`,
		`{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"warp"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var pareto ParetoRequest
		if decodeStrict(body, &pareto) && pareto.Validate() == nil {
			checkAccepted(t, pareto.SpaceSpec)
		}
		var sweep SweepRequest
		if decodeStrict(body, &sweep) && sweep.Validate() == nil {
			checkAccepted(t, sweep.SpaceSpec)
		}
	})
}

// decodeStrict decodes like the serving layer: unknown fields rejected.
func decodeStrict(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

func checkAccepted(t *testing.T, sp SpaceSpec) {
	early, err := sp.ResolveEarly()
	if err != nil {
		return
	}
	if sp.Sample < 0 || sp.Sample > MaxSample {
		t.Fatalf("accepted sample %d outside [0, %d]", sp.Sample, MaxSample)
	}
	if !sp.windowed() || sp.Count > maxFuzzWindow {
		return
	}
	designs, err := sp.ResolveLate(context.Background(), early)
	if err != nil {
		t.Fatalf("window offset %d count %d: %v", sp.Offset, sp.Count, err)
	}
	if got := len(designs); got != sp.Count {
		t.Fatalf("window offset %d count %d resolved %d designs", sp.Offset, sp.Count, got)
	}
}
