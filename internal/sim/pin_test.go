package sim

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/space"
	"repro/internal/workload"
)

// TestSimulatorTracePin pins the cycle model itself: the training data,
// the models and every answer pin downstream hang off sim.Run, so a change
// that only makes the simulator faster must leave this hash alone. The
// hash is FNV-64a over every field of every Interval (floats by their IEEE
// bits, via encoding/binary) for every benchmark on the baseline, the
// train space's smallest and largest corners and a DVM machine, plus one
// mcf run with a single instruction per sample, so that nearly every
// interval boundary lands next to a stretch of idle cycles.
func TestSimulatorTracePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("traces pinned on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	const wantHash = uint64(0x9507f41e4d65efc3)

	train := space.TrainLevels()
	var lo, hi [space.NumParams]int
	for p, levels := range train {
		lo[p], hi[p] = levels[0], levels[len(levels)-1]
	}
	dvm := space.Baseline()
	dvm.DVM = true
	configs := []space.Config{
		space.Baseline(),
		space.Baseline().WithSweptValues(lo),
		space.Baseline().WithSweptValues(hi),
		dvm,
	}
	type run struct {
		cfg   space.Config
		bench string
		opts  Options
	}
	var runs []run
	for _, bench := range workload.Names() {
		for _, cfg := range configs {
			runs = append(runs, run{cfg, bench, Options{Instructions: 32768, Samples: 32}})
		}
	}
	runs = append(runs, run{space.Baseline(), "mcf", Options{Instructions: 4096, Samples: 4096}})

	h := fnv.New64a()
	for _, r := range runs {
		tr, err := Run(r.cfg, r.bench, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, tr.Intervals); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d runs, hash %#x", len(runs), h.Sum64())
	if got := h.Sum64(); got != wantHash {
		t.Errorf("simulator trace hash %#x; pinned %#x", got, wantHash)
	}
}
