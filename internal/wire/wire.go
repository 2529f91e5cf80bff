// Package wire defines the JSON wire format of the dsed daemon — design
// points, objective and space selectors, and the request/response bodies
// of every endpoint. It exists as its own package so the serving layer
// (cmd/dsed) and the distributed sweep plane (internal/cluster, whose
// HTTP transport speaks to workers in exactly this format) cannot drift
// apart: one type per message, shared by both sides of the wire.
package wire

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/space"
)

// ConfigSpec is the wire form of a design point: any omitted swept
// parameter inherits the Table 1 baseline.
type ConfigSpec struct {
	FetchWidth   *int     `json:"fetch_width"`
	ROBSize      *int     `json:"rob_size"`
	IQSize       *int     `json:"iq_size"`
	LSQSize      *int     `json:"lsq_size"`
	L2SizeKB     *int     `json:"l2_size_kb"`
	L2Lat        *int     `json:"l2_lat"`
	IL1SizeKB    *int     `json:"il1_size_kb"`
	DL1SizeKB    *int     `json:"dl1_size_kb"`
	DL1Lat       *int     `json:"dl1_lat"`
	DVM          *bool    `json:"dvm"`
	DVMThreshold *float64 `json:"dvm_threshold"`
}

// Apply overlays the spec on a base configuration and validates the result.
func (s ConfigSpec) Apply(base space.Config) (space.Config, error) {
	set := func(dst *int, v *int) {
		if v != nil {
			*dst = *v
		}
	}
	set(&base.FetchWidth, s.FetchWidth)
	set(&base.ROBSize, s.ROBSize)
	set(&base.IQSize, s.IQSize)
	set(&base.LSQSize, s.LSQSize)
	set(&base.L2SizeKB, s.L2SizeKB)
	set(&base.L2Lat, s.L2Lat)
	set(&base.IL1SizeKB, s.IL1SizeKB)
	set(&base.DL1SizeKB, s.DL1SizeKB)
	set(&base.DL1Lat, s.DL1Lat)
	if s.DVM != nil {
		base.DVM = *s.DVM
	}
	if s.DVMThreshold != nil {
		base.DVMThreshold = *s.DVMThreshold
	}
	return base, base.Validate()
}

// SpecFromConfig pins every swept parameter of c into a ConfigSpec, so a
// coordinator shipping a materialised design to a worker loses nothing to
// the worker's baseline defaults (including the DVM threshold, which the
// compact ConfigJSON echo omits).
func SpecFromConfig(c space.Config) ConfigSpec {
	return ConfigSpec{
		FetchWidth: &c.FetchWidth, ROBSize: &c.ROBSize, IQSize: &c.IQSize,
		LSQSize: &c.LSQSize, L2SizeKB: &c.L2SizeKB, L2Lat: &c.L2Lat,
		IL1SizeKB: &c.IL1SizeKB, DL1SizeKB: &c.DL1SizeKB, DL1Lat: &c.DL1Lat,
		DVM: &c.DVM, DVMThreshold: &c.DVMThreshold,
	}
}

// ConfigJSON is the wire form of a fully resolved design point.
type ConfigJSON struct {
	FetchWidth int  `json:"fetch_width"`
	ROBSize    int  `json:"rob_size"`
	IQSize     int  `json:"iq_size"`
	LSQSize    int  `json:"lsq_size"`
	L2SizeKB   int  `json:"l2_size_kb"`
	L2Lat      int  `json:"l2_lat"`
	IL1SizeKB  int  `json:"il1_size_kb"`
	DL1SizeKB  int  `json:"dl1_size_kb"`
	DL1Lat     int  `json:"dl1_lat"`
	DVM        bool `json:"dvm,omitempty"`
}

// ToConfigJSON compacts a design point into its response echo.
func ToConfigJSON(c space.Config) ConfigJSON {
	return ConfigJSON{
		FetchWidth: c.FetchWidth, ROBSize: c.ROBSize, IQSize: c.IQSize,
		LSQSize: c.LSQSize, L2SizeKB: c.L2SizeKB, L2Lat: c.L2Lat,
		IL1SizeKB: c.IL1SizeKB, DL1SizeKB: c.DL1SizeKB, DL1Lat: c.DL1Lat,
		DVM: c.DVM,
	}
}

// ToConfig expands the echo back over the baseline. Fields ConfigJSON does
// not carry (the DVM threshold, fixed Table 1 structures) take baseline
// values — both sides of the wire lose exactly the same information, so a
// merged cluster answer re-encodes byte-identically to a worker's.
func (j ConfigJSON) ToConfig() space.Config {
	c := space.Baseline()
	c.FetchWidth, c.ROBSize, c.IQSize = j.FetchWidth, j.ROBSize, j.IQSize
	c.LSQSize, c.L2SizeKB, c.L2Lat = j.LSQSize, j.L2SizeKB, j.L2Lat
	c.IL1SizeKB, c.DL1SizeKB, c.DL1Lat = j.IL1SizeKB, j.DL1SizeKB, j.DL1Lat
	c.DVM = j.DVM
	return c
}

// ParseMetric resolves a wire metric label.
func ParseMetric(name string) (sim.Metric, error) {
	m, ok := sim.MetricByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown metric %q", name)
	}
	return m, nil
}

// ObjectiveSpec names one scoring rule over a predicted trace.
type ObjectiveSpec struct {
	Metric string `json:"metric"`
	// Kind is "mean" (default), "worst", or "exceedance".
	Kind      string  `json:"kind,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// Build resolves the spec into an exploration objective.
func (o ObjectiveSpec) Build() (explore.Objective, error) {
	name := o.Metric + "_" + o.Kind
	switch o.Kind {
	case "", "mean":
		return explore.MeanObjective(o.Metric + "_mean"), nil
	case "worst":
		return explore.WorstCaseObjective(name), nil
	case "exceedance":
		return explore.ExceedanceObjective(fmt.Sprintf("%s_exceed_%g", o.Metric, o.Threshold), o.Threshold), nil
	}
	return explore.Objective{}, fmt.Errorf("unknown objective kind %q", o.Kind)
}

// SpaceSpec selects the candidate designs of a sweep: an explicit list,
// or a named Table 2 space ("train" or "test") — full factorial by
// default, optionally LHS-subsampled to Sample designs. A window
// (Offset, Count) narrows an unsampled named space to designs
// [Offset, Offset+Count) of its full-factorial order; that is how a
// fleet ships a shard of a named space without pinning its designs.
type SpaceSpec struct {
	Designs []ConfigSpec `json:"designs,omitempty"`
	Space   string       `json:"space,omitempty"`
	Sample  int          `json:"sample,omitempty"`
	Seed    uint64       `json:"seed,omitempty"`
	Offset  int          `json:"offset,omitempty"`
	Count   int          `json:"count,omitempty"`
}

// MaxSample bounds Sample. Sampling (space.SampleDesign) is quadratic in
// the sample size: 5,000 designs take ~1 s and 20,000 ~17 s on one
// core of a 2-vCPU x86-64 VM. A job's sampling stops when the job is
// cancelled, but an unbounded request would still pin a core for as long
// as nobody cancels it. 20,000 is the largest sample the operations
// runbook and examples/paretosearch use.
const MaxSample = 20000

// windowed reports whether the spec carries a window.
func (sp SpaceSpec) windowed() bool { return sp.Offset != 0 || sp.Count != 0 }

// Validate checks the selector's shape without resolving anything: the
// sample bound, and that a window narrows a named, unsampled space.
// ResolveEarly checks the rest (the space name and the window's fit).
func (sp SpaceSpec) Validate() error {
	if sp.Sample < 0 || sp.Sample > MaxSample {
		return fmt.Errorf("sample %d outside [0, %d]", sp.Sample, MaxSample)
	}
	if !sp.windowed() {
		return nil
	}
	switch {
	case len(sp.Designs) > 0:
		return errors.New("offset/count window needs a named space, not an explicit design list")
	case sp.Sample > 0:
		return errors.New("offset/count window cannot be combined with sample")
	case sp.Offset < 0:
		return fmt.Errorf("window offset %d is negative", sp.Offset)
	case sp.Count < 1:
		return fmt.Errorf("window count %d must be at least 1", sp.Count)
	}
	return nil
}

// Window returns the spec selecting designs [start, start+count) of the
// list sp resolves to, composed with sp's own window. ok is false unless
// sp names an unsampled space explicitly: explicit lists and LHS samples
// have no positional name and must travel as pinned designs.
func (sp SpaceSpec) Window(start, count int) (w SpaceSpec, ok bool) {
	if sp.Space == "" || len(sp.Designs) > 0 || sp.Sample > 0 {
		return SpaceSpec{}, false
	}
	return SpaceSpec{Space: sp.Space, Offset: sp.Offset + start, Count: count}, true
}

// explicitDesigns resolves the explicit design list (empty when a named
// space is selected instead).
func (sp SpaceSpec) explicitDesigns() ([]space.Config, error) {
	out := make([]space.Config, len(sp.Designs))
	for i, cs := range sp.Designs {
		c, err := cs.Apply(space.Baseline())
		if err != nil {
			return nil, fmt.Errorf("design %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// levels resolves the named Table 2 space.
func (sp SpaceSpec) levels() (space.Levels, error) {
	switch sp.Space {
	case "", "train":
		return space.TrainLevels(), nil
	case "test":
		return space.TestLevels(), nil
	}
	return space.Levels{}, fmt.Errorf("unknown space %q (want train or test)", sp.Space)
}

// ResolveEarly materialises the design list when that is cheap (an
// explicit list, bounded by the body limit) and otherwise only checks
// the named space and its window — handlers run it before resolving
// models (which may train on demand) and call ResolveLate afterwards, so
// a malformed or unknown request never pays training or a full-factorial
// allocation, and no request validates the same designs twice.
func (sp SpaceSpec) ResolveEarly() ([]space.Config, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if len(sp.Designs) > 0 {
		return sp.explicitDesigns()
	}
	levels, err := sp.levels()
	if err != nil {
		return nil, err
	}
	if n := levels.NumDesigns(); sp.windowed() && sp.Count > n-sp.Offset {
		return nil, fmt.Errorf("window offset %d + count %d overruns space %q's %d designs", sp.Offset, sp.Count, sp.Space, n)
	}
	return nil, nil
}

// FactorialWindow reports the unsampled named space sp selects, windowed
// or whole, as a window of its full factorial that a sweep can enumerate
// without materialising it. ok is false for explicit lists and LHS
// samples, and for names ResolveEarly rejects.
func (sp SpaceSpec) FactorialWindow() (w space.Window, ok bool) {
	if len(sp.Designs) > 0 || sp.Sample > 0 {
		return space.Window{}, false
	}
	levels, err := sp.levels()
	if err != nil {
		return space.Window{}, false
	}
	w = space.Window{Levels: levels, Base: space.Baseline(), Offset: sp.Offset, Count: sp.Count}
	if !sp.windowed() {
		w.Count = levels.NumDesigns()
	}
	return w, true
}

// ResolveLate materialises the named space after model resolution; early
// is ResolveEarly's result, returned as-is for explicit lists. A window
// builds only its own designs. Drawing a sample stops when ctx is done,
// returning ctx's error.
func (sp SpaceSpec) ResolveLate(ctx context.Context, early []space.Config) ([]space.Config, error) {
	if early != nil {
		return early, nil
	}
	if w, ok := sp.FactorialWindow(); ok {
		return w.Designs(), nil
	}
	// levels cannot fail here: ResolveEarly validated the name.
	levels, _ := sp.levels()
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	return space.SampleDesignContext(ctx, sp.Sample, levels, space.Baseline(), 4, mathx.NewRNG(seed))
}

// Constraint is the wire form of explore.Constraint.
type Constraint struct {
	Objective int     `json:"objective"`
	Max       float64 `json:"max"`
}

// Candidate is the wire form of one evaluated design point.
type Candidate struct {
	Config ConfigJSON `json:"config"`
	Scores []float64  `json:"scores"`
}

// ToExplore expands the wire candidate back into engine form.
func (c Candidate) ToExplore() explore.Candidate {
	return explore.Candidate{Config: c.Config.ToConfig(), Scores: c.Scores}
}

// ToCandidates compacts evaluated candidates for a response.
func ToCandidates(cands []explore.Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{Config: ToConfigJSON(c.Config), Scores: c.Scores}
	}
	return out
}

// Error is the uniform JSON error envelope of every endpoint.
type Error struct {
	Error string `json:"error"`
}

// PredictRequest is the body of POST /predict. The single form names one
// metric and config; the batch form (configs and/or metrics set) scores
// many configs under many metrics in one request.
type PredictRequest struct {
	Benchmark string     `json:"benchmark"`
	Metric    string     `json:"metric,omitempty"`
	Config    ConfigSpec `json:"config"`

	Metrics []string     `json:"metrics,omitempty"`
	Configs []ConfigSpec `json:"configs,omitempty"`
	// IncludeTraces adds the full predicted traces to batch responses
	// (single-form responses always carry the trace).
	IncludeTraces bool `json:"include_traces,omitempty"`
}

// PredictResponse answers the single form of POST /predict.
type PredictResponse struct {
	Benchmark string     `json:"benchmark"`
	Metric    string     `json:"metric"`
	Config    ConfigJSON `json:"config"`
	Trace     []float64  `json:"trace"`
	Mean      float64    `json:"mean"`
	Worst     float64    `json:"worst"`
}

// PredictResult is one cell of a batch prediction matrix.
type PredictResult struct {
	Mean  float64   `json:"mean"`
	Worst float64   `json:"worst"`
	Trace []float64 `json:"trace,omitempty"`
}

// BatchPredictResponse answers the batch form of POST /predict.
type BatchPredictResponse struct {
	Benchmark string       `json:"benchmark"`
	Metrics   []string     `json:"metrics"`
	Configs   []ConfigJSON `json:"configs"`
	// Results[i][j] scores Configs[i] under Metrics[j].
	Results   [][]PredictResult `json:"results"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// JobKind names what an exploration job computes: the two reductions
// the paper asks for over the same stream of predicted designs. Every
// layer carries the kind as this value; the request types below are
// only the two strict JSON shapes a submission may take.
type JobKind string

const (
	// JobSweep is a constrained top-K selection job (POST /v1/sweeps).
	JobSweep JobKind = "sweep"
	// JobPareto is a Pareto-frontier job (POST /v1/pareto).
	JobPareto JobKind = "pareto"
)

// JobRequest is a job submission body of either kind.
type JobRequest interface {
	Validate() error
	Spec() JobSpec
}

// NewJobRequest returns the strict decode target of kind's submission
// body, so a frontier submission carrying top-K fields is refused as an
// unknown field.
func NewJobRequest(kind JobKind) JobRequest {
	if kind == JobSweep {
		return &SweepRequest{}
	}
	return &ParetoRequest{}
}

// JobSpec is an exploration job of either kind: its kind plus a sweep
// request body, whose TopK, Objective and Constraints stay zero on a
// frontier job. Validate (a sweep's) holds for both kinds, since a
// frontier request's checks are a sweep's with those fields zero.
type JobSpec struct {
	// Kind stays off the wire: a spec encodes as its request body.
	Kind JobKind `json:"-"`
	SweepRequest
}

// Spec returns j itself, shadowing the embedded sweep request's Spec,
// which would name every spec a sweep.
func (j JobSpec) Spec() JobSpec { return j }

// Request returns the spec as its kind's submission body.
func (j JobSpec) Request() JobRequest {
	if j.Kind == JobSweep {
		return j.SweepRequest
	}
	return ParetoRequest{Benchmark: j.Benchmark, Objectives: j.Objectives, SpaceSpec: j.SpaceSpec, Scope: j.Scope, Incumbent: j.Incumbent}
}

// SweepRequest is the body of POST /v1/sweeps: streaming top-K
// constrained selection over a design space.
type SweepRequest struct {
	Benchmark  string          `json:"benchmark"`
	Objectives []ObjectiveSpec `json:"objectives"`
	SpaceSpec
	// TopK bounds how many candidates are returned (default 10).
	TopK int `json:"top_k,omitempty"`
	// Objective indexes Objectives as the minimisation target (default 0).
	Objective   int          `json:"objective,omitempty"`
	Constraints []Constraint `json:"constraints,omitempty"`
	// Scope is WarmRequest's field, decoded here so that a stale peer's
	// ScopeLocal shard gets a 400 from /v1/sweeps and /v1/pareto naming
	// /v1/shards, where a fleet shard goes.
	Scope string `json:"scope,omitempty"`
	// Incumbent is ParetoRequest's shard field, decoded here so that a
	// top-K shard or a job submission carrying one gets a 400 (see
	// ParetoRequest.Incumbent).
	Incumbent [][]float64 `json:"incumbent,omitempty"`
}

// Validate rejects malformed sweep requests — empty or unknown
// objectives, out-of-range objective and constraint indexes. It is the
// single accept/reject rule shared by a local job and a fleet job's
// owner, so a fleet rejects exactly what one daemon would.
func (r SweepRequest) Validate() error {
	if err := validateObjectives(r.Objectives); err != nil {
		return err
	}
	if err := r.SpaceSpec.Validate(); err != nil {
		return err
	}
	if r.Objective < 0 || r.Objective >= len(r.Objectives) {
		return fmt.Errorf("objective index %d out of range", r.Objective)
	}
	for _, con := range r.Constraints {
		if con.Objective < 0 || con.Objective >= len(r.Objectives) {
			return fmt.Errorf("constraint objective index %d out of range", con.Objective)
		}
	}
	if err := validateIncumbent(r.Incumbent, len(r.Objectives)); err != nil {
		return err
	}
	return validateScope(r.Scope)
}

// Spec implements JobRequest.
func (r SweepRequest) Spec() JobSpec { return JobSpec{Kind: JobSweep, SweepRequest: r} }

// ScopeLocal marks a warm request as a fleet owner's placement on one
// peer: the receiving node trains its own registry instead of warming
// the fleet again.
const ScopeLocal = "local"

// MaxIncumbent bounds a shard's incumbent. Every subtree test of the
// shard's sweep scans it, and it keeps a windowed shard body under 1 KB.
const MaxIncumbent = 16

// validateIncumbent holds a shard's incumbent to the shape
// cluster.IncumbentOf sends: at most MaxIncumbent vectors of exactly one
// finite score per objective.
func validateIncumbent(inc [][]float64, objectives int) error {
	if len(inc) > MaxIncumbent {
		return fmt.Errorf("incumbent holds %d points, at most %d", len(inc), MaxIncumbent)
	}
	for i, p := range inc {
		if len(p) != objectives {
			return fmt.Errorf("incumbent point %d holds %d scores for %d objectives", i, len(p), objectives)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("incumbent point %d holds a non-finite score", i)
			}
		}
	}
	return nil
}

func validateScope(scope string) error {
	if scope != "" && scope != ScopeLocal {
		return fmt.Errorf("unknown scope %q (want empty or %q)", scope, ScopeLocal)
	}
	return nil
}

// ErrNoObjectives rejects sweeps with nothing to optimise.
var ErrNoObjectives = errors.New("no objectives given")

// validateObjectives rejects empty objective lists, bad kinds, and
// unknown metric names up front — before a worker resolves models (which
// could train on demand) or a coordinator fans a doomed request across
// the fleet.
func validateObjectives(specs []ObjectiveSpec) error {
	if len(specs) == 0 {
		return ErrNoObjectives
	}
	for _, spec := range specs {
		if _, err := spec.Build(); err != nil {
			return err
		}
		if _, err := ParseMetric(spec.Metric); err != nil {
			return err
		}
	}
	return nil
}

// SweepResponse is a finished top-K job's result.
type SweepResponse struct {
	Benchmark  string      `json:"benchmark"`
	Objectives []string    `json:"objectives"`
	Evaluated  int         `json:"evaluated"`
	Feasible   int         `json:"feasible"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Candidates []Candidate `json:"candidates"`
}

// ParetoRequest is the body of POST /v1/pareto: the Pareto frontier of
// a design space under the chosen objectives.
type ParetoRequest struct {
	Benchmark  string          `json:"benchmark"`
	Objectives []ObjectiveSpec `json:"objectives"`
	SpaceSpec
	// Scope: see SweepRequest.Scope.
	Scope string `json:"scope,omitempty"`
	// Incumbent is a frontier shard's seed: at most MaxIncumbent score
	// vectors, one finite score per objective, that its owner took from
	// the job's merged frontier so far. The peer prunes the subtrees they
	// beat and drops the candidates they beat from its answer. Only
	// POST /v1/shards accepts it, on a window of a named space.
	Incumbent [][]float64 `json:"incumbent,omitempty"`
}

// Validate rejects malformed frontier requests; shared by local and
// fleet jobs.
func (r ParetoRequest) Validate() error {
	if err := validateObjectives(r.Objectives); err != nil {
		return err
	}
	if err := r.SpaceSpec.Validate(); err != nil {
		return err
	}
	if err := validateIncumbent(r.Incumbent, len(r.Objectives)); err != nil {
		return err
	}
	return validateScope(r.Scope)
}

// Spec implements JobRequest.
func (r ParetoRequest) Spec() JobSpec {
	return JobSpec{Kind: JobPareto, SweepRequest: SweepRequest{
		Benchmark: r.Benchmark, Objectives: r.Objectives, SpaceSpec: r.SpaceSpec, Scope: r.Scope, Incumbent: r.Incumbent,
	}}
}

// ParetoResponse is a finished frontier job's result.
type ParetoResponse struct {
	Benchmark  string      `json:"benchmark"`
	Objectives []string    `json:"objectives"`
	Evaluated  int         `json:"evaluated"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Frontier   []Candidate `json:"frontier"`
}

// WarmRequest is the body of POST /warm: pre-train (or warm-start) every
// configured metric of the named benchmarks before the first sweep needs
// them — the admin hook a coordinator uses to place models on workers.
type WarmRequest struct {
	Benchmarks []string `json:"benchmarks"`
	// Scope is empty to warm the receiving peer's whole fleet, or
	// ScopeLocal to train the receiving node alone.
	Scope string `json:"scope,omitempty"`
}

// MaxWarmBenchmarks bounds one warm request; warming is training, so the
// list stays small by construction.
const MaxWarmBenchmarks = 64

// Validate rejects malformed warm requests; shared by a worker's /warm
// and a coordinator's.
func (r WarmRequest) Validate() error {
	if len(r.Benchmarks) == 0 {
		return errors.New("warm needs a non-empty benchmark list")
	}
	if len(r.Benchmarks) > MaxWarmBenchmarks {
		return fmt.Errorf("warm accepts at most %d benchmarks (got %d)", MaxWarmBenchmarks, len(r.Benchmarks))
	}
	return validateScope(r.Scope)
}

// WarmResponse answers POST /warm.
type WarmResponse struct {
	Benchmarks []string `json:"benchmarks"`
	// Trainings counts the training runs this warm itself triggered
	// (already-warm benchmarks cost zero); a coordinator reports the sum
	// across its fleet.
	Trainings int     `json:"trainings"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Errors lists per-worker failures of a partially successful
	// coordinator warm (the successful placements stand; a sweep would
	// re-dispatch around the failed workers).
	Errors []string `json:"errors,omitempty"`
}

// ClusterSweepResponse is a fleet top-K job's result: a SweepResponse
// merged from per-shard worker answers, plus the distribution's
// accounting.
type ClusterSweepResponse struct {
	SweepResponse
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// Retries counts shard attempts that failed and were re-dispatched.
	Retries int `json:"retries"`
}

// ShardResponse answers POST /v1/shards with one fleet shard's partial:
// designs scored, feasible ones (top-K shards only), its frontier or
// best-first top K, and the spans recorded for this shard alone.
type ShardResponse struct {
	Evaluated  int         `json:"evaluated"`
	Feasible   int         `json:"feasible,omitempty"`
	Candidates []Candidate `json:"candidates"`
	Spans      []obs.Span  `json:"spans,omitempty"`
}

// ClusterParetoResponse is a fleet frontier job's result.
type ClusterParetoResponse struct {
	ParetoResponse
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	Retries int `json:"retries"`
}

// ObjectiveNames labels resolved objectives for a response.
func ObjectiveNames(objectives []explore.Objective) []string {
	names := make([]string, len(objectives))
	for i, o := range objectives {
		names[i] = o.Name
	}
	return names
}
