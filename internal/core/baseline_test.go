package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/space"
	"repro/internal/wavelet"
)

// TestBaselineAnswerPin pins the comparison models' answers bit for bit:
// GlobalANN.Predict and LinearWavelet.Predict over a seeded set of test
// designs (the linear model under the paper's Haar transform and under
// daub4; the global network has no transform), each hashed as an FNV-1a
// hash of every sample's %.17g in design order. The ablation
// experiment scores these models through Predict alone, so a rewrite of
// their inference must not move it silently. FMA fusion differs between
// architectures, so the pin holds on amd64 only.
//
// To re-pin after a deliberate change in arithmetic: run
//
//	go test -run TestBaselineAnswerPin -v ./internal/core
//
// on amd64, copy the reported hashes into want, and say in the change's
// notes why the answer moved.
func TestBaselineAnswerPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("answers pinned on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	want := map[string]uint64{
		"global-ANN":           0xed7943e1db8a8765,
		"linear-wavelet/haar":  0xca454062d89b2a5,
		"linear-wavelet/daub4": 0xcbee1bc4f5a40987,
	}
	train, test := sampleConfigs(100, 200, 31)
	traces := tracesFor(train, 64)
	got := make(map[string]uint64)
	g, err := TrainGlobalANN(train, traces, Options{NumCoefficients: 8})
	if err != nil {
		t.Fatal(err)
	}
	got["global-ANN"] = traceHash(g, test)
	for _, w := range []wavelet.Transform{wavelet.Haar{}, wavelet.Daubechies4{}} {
		lw, err := TrainLinearWavelet(train, traces, Options{Wavelet: w, NumCoefficients: 8})
		if err != nil {
			t.Fatal(err)
		}
		got["linear-wavelet/"+w.Name()] = traceHash(lw, test)
	}
	for name, h := range got {
		t.Logf("%s: hash %#x", name, h)
		if h != want[name] {
			t.Errorf("%s: hash %#x; pinned %#x", name, h, want[name])
		}
	}
}

// traceHash is the FNV-1a hash of every predicted sample's %.17g, design
// by design.
func traceHash(m DynamicsModel, designs []space.Config) uint64 {
	h := fnv.New64a()
	for _, cfg := range designs {
		for _, v := range m.Predict(cfg) {
			fmt.Fprintf(h, "%.17g\n", v)
		}
	}
	return h.Sum64()
}
