package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
)

// countingTrainer fits tiny real predictors from synthetic traces — no
// simulator — and counts how many benchmark training runs it served.
type countingTrainer struct {
	calls atomic.Int32
	delay time.Duration
	fail  atomic.Value // error
}

func (t *countingTrainer) setFail(err error) { t.fail.Store(&err) }

func (t *countingTrainer) TrainBenchmark(ctx context.Context, benchmark string, metrics []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
	t.calls.Add(1)
	if t.delay > 0 {
		select {
		case <-time.After(t.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if v := t.fail.Load(); v != nil {
		if err := *v.(*error); err != nil {
			return nil, err
		}
	}
	out := make(map[sim.Metric]*core.Predictor, len(metrics))
	for _, m := range metrics {
		p, err := tinyPredictor(benchmark, m)
		if err != nil {
			return nil, err
		}
		out[m] = p
	}
	return out, nil
}

// tinyPredictor trains a real wavelet-RBF model on synthetic traces that
// depend on the benchmark and metric, so different keys predict
// differently.
func tinyPredictor(benchmark string, m sim.Metric) (*core.Predictor, error) {
	rng := mathx.NewRNG(uint64(len(benchmark))*31 + uint64(m) + 1)
	configs := space.SampleDesign(16, space.TrainLevels(), space.Baseline(), 2, rng)
	traces := make([][]float64, len(configs))
	for i, cfg := range configs {
		tr := make([]float64, 8)
		for j := range tr {
			tr[j] = float64(cfg.FetchWidth)*float64(m+1) + float64(j%4) + float64(len(benchmark))
		}
		traces[i] = tr
	}
	return core.Train(configs, traces, core.Options{NumCoefficients: 2})
}

var testMetrics = []sim.Metric{sim.MetricCPI, sim.MetricPower}

func testSpec() Spec {
	return Spec{Train: 16, Candidates: 2, Seed: 7, Samples: 8, Instructions: 1024, Coefficients: 2}
}

func openStore(t *testing.T, dir string, tr Trainer) *Store {
	t.Helper()
	s, err := Open(Config{
		Trainer:   tr,
		Metrics:   testMetrics,
		Trainable: []string{"gcc", "mcf", "twolf"},
		Dir:       dir,
		Spec:      testSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Metrics: testMetrics}); err == nil {
		t.Error("nil trainer should fail")
	}
	if _, err := Open(Config{Trainer: &countingTrainer{}}); err == nil {
		t.Error("empty metric set should fail")
	}
	if _, err := Open(Config{Trainer: &countingTrainer{}, Metrics: testMetrics, Trainable: []string{"../evil"}}); err == nil {
		t.Error("unsafe trainable name should fail")
	}
}

// TestLoadOrTrainSingleflight proves N concurrent requests for an
// untrained benchmark trigger exactly one training run. Run under -race.
func TestLoadOrTrainSingleflight(t *testing.T) {
	tr := &countingTrainer{delay: 20 * time.Millisecond}
	s := openStore(t, "", tr)
	const n = 32
	var wg sync.WaitGroup
	preds := make([]*core.Predictor, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix the two metrics: one benchmark sweep serves both.
			preds[i], errs[i] = s.LoadOrTrain(context.Background(), "gcc", testMetrics[i%2])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if preds[i] != preds[i%2] {
			t.Fatal("concurrent requests observed different model instances")
		}
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("trainer ran %d times for %d concurrent requests, want 1", got, n)
	}
	if s.Trainings() != 1 {
		t.Errorf("Trainings() = %d, want 1", s.Trainings())
	}
	// A second benchmark trains separately.
	if _, err := s.LoadOrTrain(context.Background(), "mcf", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 2 {
		t.Errorf("trainer ran %d times after a second benchmark, want 2", got)
	}
}

func TestAdmissibility(t *testing.T) {
	s := openStore(t, "", &countingTrainer{})
	if _, err := s.LoadOrTrain(context.Background(), "doom", sim.MetricCPI); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark error = %v, want ErrUnknownBenchmark", err)
	}
	if _, err := s.LoadOrTrain(context.Background(), "../etc", sim.MetricCPI); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unsafe benchmark error = %v, want ErrUnknownBenchmark", err)
	}
	if _, err := s.LoadOrTrain(context.Background(), "gcc", sim.MetricAVF); !errors.Is(err, ErrUntrainedMetric) {
		t.Errorf("unconfigured metric error = %v, want ErrUntrainedMetric", err)
	}
	if _, ok := s.Get("gcc", sim.MetricCPI); ok {
		t.Error("Get should not train")
	}
}

func TestTrainerFailurePropagatesAndRetries(t *testing.T) {
	tr := &countingTrainer{delay: 10 * time.Millisecond}
	tr.setFail(fmt.Errorf("simulator exploded"))
	s := openStore(t, "", tr)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d unexpectedly succeeded", i)
		}
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("failed training ran %d times, want 1 (no retry storm)", got)
	}
	// Failure is not cached: the next request retrains and succeeds.
	tr.setFail(nil)
	if _, err := s.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 2 {
		t.Errorf("retry after failure ran trainer %d times total, want 2", got)
	}
}

func TestWaiterCancellation(t *testing.T) {
	tr := &countingTrainer{delay: 200 * time.Millisecond}
	s := openStore(t, "", tr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := s.LoadOrTrain(ctx, "gcc", sim.MetricCPI); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
	}
	// The training itself was not aborted by the waiter's cancellation:
	// a later request finds the finished model without retraining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Get("gcc", sim.MetricCPI); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached training never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tr.calls.Load(); got != 1 {
		t.Errorf("trainer ran %d times, want 1", got)
	}
}

// TestWarmStart is the acceptance scenario: a second store over the same
// directory serves predictions without ever invoking its trainer.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	tr := &countingTrainer{}
	s1 := openStore(t, dir, tr)
	p1, err := s1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI)
	if err != nil {
		t.Fatal(err)
	}
	if tr.calls.Load() != 1 {
		t.Fatalf("first boot trained %d times, want 1", tr.calls.Load())
	}

	// "Kill" the first daemon; boot a second one on the same directory
	// with a trainer that must never run.
	var poison TrainerFunc = func(context.Context, string, []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
		t.Error("warm-started store invoked its trainer")
		return nil, fmt.Errorf("must not train")
	}
	s2 := openStore(t, dir, poison)
	if s2.Trainings() != 0 {
		t.Errorf("warm start counted %d trainings", s2.Trainings())
	}
	entries := s2.Entries()
	if len(entries) != len(testMetrics) {
		t.Fatalf("warm start restored %d models, want %d", len(entries), len(testMetrics))
	}
	for _, e := range entries {
		if !e.Warm {
			t.Errorf("%s/%s not marked warm", e.Benchmark, e.Metric)
		}
		if e.TrainedAt.IsZero() {
			t.Errorf("%s/%s lost its training timestamp", e.Benchmark, e.Metric)
		}
	}
	p2, err := s2.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI)
	if err != nil {
		t.Fatal(err)
	}
	probe := space.Baseline()
	a, b := p1.Predict(probe), p2.Predict(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("warm-started model disagrees at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCorruptModelFallsBackToRetraining(t *testing.T) {
	dir := t.TempDir()
	tr1 := &countingTrainer{}
	s1 := openStore(t, dir, tr1)
	if _, err := s1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	// Corrupt one of the two persisted models.
	victim := filepath.Join(dir, modelFileName("gcc", sim.MetricCPI))
	if err := os.WriteFile(victim, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	tr2 := &countingTrainer{}
	s2 := openStore(t, dir, tr2)
	// The intact sibling survives the warm start; the corrupt one is gone.
	if _, ok := s2.Get("gcc", sim.MetricPower); !ok {
		t.Error("intact sibling model should warm-start")
	}
	if _, ok := s2.Get("gcc", sim.MetricCPI); ok {
		t.Fatal("corrupt model should not warm-start")
	}
	// Requesting it retrains the benchmark exactly once and heals disk.
	if _, err := s2.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if got := tr2.calls.Load(); got != 1 {
		t.Fatalf("retraining after corruption ran %d times, want 1", got)
	}
	s3 := openStore(t, dir, &countingTrainer{})
	if _, ok := s3.Get("gcc", sim.MetricCPI); !ok {
		t.Error("healed model should warm-start on the next boot")
	}
}

// TestUndeclaredModelFallsBackToRetraining: a model file whose networks
// carry no level declaration predates the declared kernel, so core.Load
// refuses it; the warm start drops it, keeps its intact sibling and
// retrains it on demand.
func TestUndeclaredModelFallsBackToRetraining(t *testing.T) {
	dir := t.TempDir()
	if _, err := openStore(t, dir, &countingTrainer{}).LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, modelFileName("gcc", sim.MetricCPI))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, net := range file["nets"].([]any) {
		delete(net.(map[string]any), "dim_levels")
	}
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tr := &countingTrainer{}
	s := openStore(t, dir, tr)
	if _, ok := s.Get("gcc", sim.MetricPower); !ok {
		t.Error("intact sibling model should warm-start")
	}
	if _, ok := s.Get("gcc", sim.MetricCPI); ok {
		t.Fatal("a model without level declarations should not warm-start")
	}
	if _, err := s.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("retraining the undeclared model ran %d times, want 1", got)
	}
}

func TestManifestVersionMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, &countingTrainer{})
	if _, err := s1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = 99
	munged, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, munged, 0o644); err != nil {
		t.Fatal(err)
	}
	tr := &countingTrainer{}
	s2 := openStore(t, dir, tr)
	if n := len(s2.Entries()); n != 0 {
		t.Fatalf("version-mismatched manifest warm-started %d models, want 0", n)
	}
	if _, err := s2.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if tr.calls.Load() != 1 {
		t.Errorf("retrain after version mismatch ran %d times, want 1", tr.calls.Load())
	}
}

func TestSpecMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, &countingTrainer{})
	if _, err := s1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Seed++
	s2, err := Open(Config{
		Trainer: &countingTrainer{}, Metrics: testMetrics,
		Trainable: []string{"gcc"}, Dir: dir, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s2.Entries()); n != 0 {
		t.Fatalf("spec-mismatched store warm-started %d models, want 0", n)
	}
	// The stale generation is cleared, not left to be orphaned by later
	// manifest rewrites.
	if _, err := os.Stat(filepath.Join(dir, modelFileName("gcc", sim.MetricCPI))); !os.IsNotExist(err) {
		t.Error("stale model file survived a spec-mismatch cold start")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Error("stale manifest survived a spec-mismatch cold start")
	}
}

// TestManifestPreservesUnservedMetrics proves a boot with a narrower
// metric set does not orphan valid persisted models when it rewrites the
// manifest.
func TestManifestPreservesUnservedMetrics(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, &countingTrainer{}) // serves CPI+Power
	if _, err := s1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}

	// Boot 2 serves only CPI, then trains another benchmark, forcing a
	// manifest rewrite.
	s2, err := Open(Config{
		Trainer: &countingTrainer{}, Metrics: []sim.Metric{sim.MetricCPI},
		Trainable: []string{"gcc", "mcf"}, Dir: dir, Spec: testSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("gcc", sim.MetricPower); ok {
		t.Error("narrower boot should not serve the unconfigured metric")
	}
	if _, err := s2.LoadOrTrain(context.Background(), "mcf", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}

	// Boot 3 serves CPI+Power again: gcc/Power must still warm-start.
	tr3 := &countingTrainer{}
	s3 := openStore(t, dir, tr3)
	if _, ok := s3.Get("gcc", sim.MetricPower); !ok {
		t.Error("manifest rewrite orphaned a valid persisted model")
	}
	if tr3.calls.Load() != 0 {
		t.Errorf("third boot trained %d times, want 0", tr3.calls.Load())
	}
}

// TestTrainerExtrasIgnored proves a trainer returning metrics outside
// the configured set cannot widen what the store serves.
func TestTrainerExtrasIgnored(t *testing.T) {
	inner := &countingTrainer{}
	var generous TrainerFunc = func(ctx context.Context, benchmark string, metrics []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
		out, err := inner.TrainBenchmark(ctx, benchmark, metrics)
		if err != nil {
			return nil, err
		}
		extra, err := tinyPredictor(benchmark, sim.MetricAVF)
		if err != nil {
			return nil, err
		}
		out[sim.MetricAVF] = extra
		return out, nil
	}
	s := openStore(t, "", generous)
	if _, err := s.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("gcc", sim.MetricAVF); ok {
		t.Error("unconfigured metric from a generous trainer was installed")
	}
	if n := len(s.Entries()); n != len(testMetrics) {
		t.Errorf("inventory has %d models, want %d", n, len(testMetrics))
	}
}

func TestEntriesAndBenchmarks(t *testing.T) {
	s := openStore(t, "", &countingTrainer{})
	for _, b := range []string{"twolf", "gcc"} {
		if _, err := s.LoadOrTrain(context.Background(), b, sim.MetricCPI); err != nil {
			t.Fatal(err)
		}
	}
	bs := s.Benchmarks()
	if len(bs) != 2 || bs[0] != "gcc" || bs[1] != "twolf" {
		t.Errorf("Benchmarks() = %v, want [gcc twolf]", bs)
	}
	entries := s.Entries()
	if len(entries) != 4 {
		t.Fatalf("Entries() returned %d models, want 4", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Benchmark > b.Benchmark || (a.Benchmark == b.Benchmark && a.Metric >= b.Metric) {
			t.Error("entries not sorted by benchmark then metric")
		}
	}
	if entries[0].Warm {
		t.Error("freshly trained model marked warm")
	}
}

// TestTrained proves the heartbeat inventory lists only benchmarks with
// every configured metric in memory: affinity routing must never send a
// shard to a worker that still owes a training run.
func TestTrained(t *testing.T) {
	s := openStore(t, "", &countingTrainer{})
	if got := s.Trained(); len(got) != 0 {
		t.Fatalf("empty store advertises %v", got)
	}
	if _, err := s.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if got := s.Trained(); len(got) != 1 || got[0] != "gcc" {
		t.Fatalf("Trained() = %v, want [gcc]", got)
	}
	// A partial inventory (think: one valid model warm-started beside a
	// corrupt sibling) must not advertise the benchmark.
	s.mu.Lock()
	s.models[Key{"twolf", sim.MetricCPI}] = s.models[Key{"gcc", sim.MetricCPI}]
	s.mu.Unlock()
	if got := s.Trained(); len(got) != 1 || got[0] != "gcc" {
		t.Fatalf("Trained() with a partial twolf = %v, want [gcc]", got)
	}
}

// TestWarm proves the pre-warm hook trains every (benchmark, metric) pair
// exactly once, is idempotent, and reports unknown benchmarks without
// abandoning the rest of the list.
func TestWarm(t *testing.T) {
	tr := &countingTrainer{}
	s := openStore(t, "", tr)

	if err := s.Warm(context.Background(), []string{"gcc", "mcf"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("warming 2 benchmarks ran %d trainings, want 2 (one per benchmark, all metrics shared)", got)
	}
	for _, b := range []string{"gcc", "mcf"} {
		for _, m := range testMetrics {
			if _, ok := s.Get(b, m); !ok {
				t.Errorf("%s/%s missing after warm", b, m)
			}
		}
	}

	// Idempotent: a second warm answers from memory.
	if err := s.Warm(context.Background(), []string{"gcc", "mcf"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("re-warming trained %d more times, want 0", got-2)
	}

	// A bad benchmark fails its own entry but the good one still warms.
	err := s.Warm(context.Background(), []string{"doom", "twolf"})
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("warming an unknown benchmark returned %v, want ErrUnknownBenchmark", err)
	}
	if _, ok := s.Get("twolf", sim.MetricCPI); !ok {
		t.Error("twolf did not warm because its listmate was unknown")
	}
}
