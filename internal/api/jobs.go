package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The job subsystem behind POST /v1/sweeps and /v1/pareto: exploration
// requests return a job ID immediately and run detached from the
// submitting request, publishing cumulative progress snapshots (partial
// frontiers / top-K) that GET /v1/jobs/{id}/stream replays as NDJSON.
// Every published Update is cumulative, not a delta: its counters are
// current, and Candidates, when present, is the whole partial answer.
// A fleet job attaches Candidates on the stream cadence only, so a
// subscriber that joins late has current counters after its first line
// and the partial answer by the next cadence point, and one that
// reconnects with ?from_seq= keeps the last partial it saw.

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s != StateRunning && s != "" }

// Update is one NDJSON line of GET /v1/jobs/{id}/stream: a cumulative
// snapshot of the job so far. Candidates is the current partial frontier
// (Pareto) or feasible top-K (sweep); on the Final update it is the
// complete answer.
type Update struct {
	JobID string   `json:"job_id"`
	Seq   int      `json:"seq"`
	State JobState `json:"state"`
	// Evaluated counts designs scored so far; Designs is the job total.
	Evaluated int `json:"evaluated"`
	Designs   int `json:"designs,omitempty"`
	Feasible  int `json:"feasible,omitempty"`
	// Shards/Retries/Workers carry a coordinator job's distribution
	// accounting (zero on single-daemon jobs).
	Shards  int `json:"shards,omitempty"`
	Retries int `json:"retries,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Worker names the fleet member whose merged partial produced this
	// snapshot; Delta is how many designs that partial contributed.
	Worker string `json:"worker,omitempty"`
	Delta  int    `json:"delta,omitempty"`
	// Objectives labels the score columns (set once resolved).
	Objectives []string `json:"objectives,omitempty"`
	// Candidates is the cumulative partial result, already merged. It
	// is absent while no stream is attached, and on a fleet job's
	// counters update: a merge that lands less than one stream interval
	// after the last merge that carried it. A client keeps the last
	// partial it saw.
	Candidates []wire.Candidate `json:"candidates,omitempty"`
	// Final marks the last update of the stream.
	Final     bool    `json:"final,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     *Error  `json:"error,omitempty"`
}

// JobStatus answers GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string       `json:"id"`
	Kind      wire.JobKind `json:"kind"`
	Benchmark string       `json:"benchmark,omitempty"`
	State     JobState     `json:"state"`
	CreatedAt string       `json:"created_at"`
	Designs   int          `json:"designs"`
	Evaluated int          `json:"evaluated"`
	Feasible  int          `json:"feasible,omitempty"`
	Shards    int          `json:"shards,omitempty"`
	Retries   int          `json:"retries,omitempty"`
	// Updates is the stream's current sequence number.
	Updates int `json:"updates"`
	// Attribution maps worker name to designs evaluated there
	// (coordinator jobs only).
	Attribution map[string]int `json:"attribution,omitempty"`
	ElapsedMS   float64        `json:"elapsed_ms,omitempty"`
	Error       *Error         `json:"error,omitempty"`
	// Result is the job's final payload, present once State is "done".
	Result any `json:"result,omitempty"`
}

// Publisher is a running job's progress sink. Streaming lets a runner
// skip building expensive snapshot payloads (partial frontiers) while
// nobody is attached to the stream — counters should still be published
// so pollers see progress.
type Publisher interface {
	Publish(Update)
	// Streaming reports whether any stream subscriber is attached right
	// now (it can flip either way mid-job).
	Streaming() bool
	// JobID names the job being published to — runners use it to tag
	// trace spans and bind them in the trace store.
	JobID() string
}

// RunFunc computes one job: it publishes cumulative snapshots through pub
// as it goes and returns the final snapshot (counters and complete
// candidates, State/Final left for the manager to stamp) plus the result
// payload served by GET /v1/jobs/{id}.
type RunFunc func(ctx context.Context, pub Publisher) (result any, final Update, err error)

// ManagerOptions tunes the job subsystem.
type ManagerOptions struct {
	// MaxRunning bounds concurrently running jobs; submissions beyond it
	// answer 429 too_many_jobs (retryable). Default 64.
	MaxRunning int
	// BaseContext is the parent of every job's context (default
	// context.Background()). Cancel it — the daemon's shutdown signal —
	// and every running job settles "canceled" with a final update.
	BaseContext context.Context
	// Retention keeps finished jobs queryable for late GET/stream calls.
	// Default 10 minutes.
	Retention time.Duration
	// MaxJobs caps stored jobs; beyond it the oldest finished jobs are
	// evicted early. Default 512.
	MaxJobs int
	// ErrorStatus maps a job error onto the HTTP status its error body
	// carries. Default: 500.
	ErrorStatus func(error) int
	// Clock overrides time.Now in tests.
	Clock func() time.Time
	// Obs, when set, receives job subsystem metrics: running jobs,
	// finished jobs by state, and stream subscriber lag (coalesced
	// updates dropped on slow subscribers).
	Obs *obs.Registry
}

// ErrTooManyJobs rejects submissions while MaxRunning jobs are in flight.
var ErrTooManyJobs = errors.New("api: too many running jobs, retry later")

// ErrUnknownJob answers lookups for IDs never issued or already evicted.
var ErrUnknownJob = errors.New("api: unknown job")

// Manager owns the job table: submission, lookup, cancellation, retention.
type Manager struct {
	opts ManagerOptions

	// Metric handles are nil (and discard) when ManagerOptions.Obs is.
	mRunning     *obs.Gauge
	mFinished    map[JobState]*obs.Counter
	mDropped     *obs.Counter
	mSubscribers *obs.Gauge

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // creation order, for bounded eviction
	running int
	seq     int
}

// NewManager builds the job table.
func NewManager(opts ManagerOptions) *Manager {
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 64
	}
	if opts.Retention <= 0 {
		opts.Retention = 10 * time.Minute
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 512
	}
	if opts.ErrorStatus == nil {
		opts.ErrorStatus = func(error) int { return http.StatusInternalServerError }
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.BaseContext == nil {
		//dsedlint:ignore ctxflow jobs outlive their submitting request by design; BaseContext is the detachment seam and callers override it
		opts.BaseContext = context.Background()
	}
	m := &Manager{opts: opts, jobs: make(map[string]*Job)}
	m.mRunning = opts.Obs.Gauge("dsed_jobs_running", "Jobs currently in the running state.")
	m.mDropped = opts.Obs.Counter("dsed_jobs_stream_dropped_total",
		"Intermediate updates coalesced away because a stream subscriber lagged.")
	m.mSubscribers = opts.Obs.Gauge("dsed_jobs_stream_subscribers", "Attached job stream subscribers.")
	m.mFinished = make(map[JobState]*obs.Counter, 3)
	for _, st := range []JobState{StateDone, StateFailed, StateCanceled} {
		m.mFinished[st] = opts.Obs.Counter("dsed_jobs_finished_total",
			"Jobs settled, by terminal state.", obs.Label{Key: "state", Value: string(st)})
	}
	return m
}

// Job is one asynchronous exploration: its identity, live progress, the
// stream subscribers, and — once finished — the result or error.
type Job struct {
	ID        string
	Kind      wire.JobKind
	Benchmark string

	created   time.Time
	clock     func() time.Time
	cancel    context.CancelFunc
	done      chan struct{}
	dropped   *obs.Counter
	subsGauge *obs.Gauge
	// counted jobs occupy a MaxRunning admission slot; adopted jobs do
	// not, so rescuing an orphan never starves fresh submissions.
	counted bool

	mu          sync.Mutex
	state       JobState
	cancelled   bool
	seq         int
	designs     int
	evaluated   int
	feasible    int
	shards      int
	retries     int
	attribution map[string]int
	last        *Update
	history     []Update // bounded recent-update ring for ?from_seq= replay
	result      any
	errBody     *Error
	finished    time.Time
	elapsedMS   float64
	subs        map[int]chan Update
	nextSub     int
}

// Start submits a job: run executes on its own goroutine under a context
// detached from the submitting request (the whole point of the async
// API) and cancelled only by DELETE /v1/jobs/{id} or BaseContext dying
// (daemon shutdown). Submissions beyond MaxRunning answer ErrTooManyJobs.
func (m *Manager) Start(kind wire.JobKind, benchmark string, designs int, run RunFunc) (*Job, error) {
	return m.start("", kind, benchmark, designs, 0, run, true)
}

// StartAdopted submits a job under a caller-supplied identity: the ID of
// the orphaned job being adopted, with the update sequence pre-advanced
// to startSeq, past any seq the dead owner could have published.
// Streaming clients that fail over keep their job ID and their
// skip-duplicates-by-seq logic; they never learn the owner changed. The
// adopted job re-runs from scratch, so its progress counters start over
// while its seq keeps rising. Adoption bypasses the MaxRunning gate — a
// node must not refuse to rescue an orphan because it is busy.
func (m *Manager) StartAdopted(id string, kind wire.JobKind, benchmark string, designs, startSeq int, run RunFunc) (*Job, error) {
	if id == "" {
		return nil, errors.New("api: adoption needs the orphaned job's id")
	}
	return m.start(id, kind, benchmark, designs, startSeq, run, false)
}

//dsedlint:ignore ctxflow the job deliberately detaches from the submitting request; its lifetime is BaseContext + per-job cancel
func (m *Manager) start(id string, kind wire.JobKind, benchmark string, designs, startSeq int, run RunFunc, enforceLimit bool) (*Job, error) {
	m.mu.Lock()
	m.evictLocked()
	if enforceLimit && m.running >= m.opts.MaxRunning {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d in flight)", ErrTooManyJobs, m.opts.MaxRunning)
	}
	m.seq++
	if id == "" {
		id = fmt.Sprintf("%s-%d-%s", kind, m.seq, NewRequestID()[:8])
	} else if m.jobs[id] != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("api: job %q already exists", id)
	}
	now := m.opts.Clock()
	job := &Job{
		ID:        id,
		Kind:      kind,
		Benchmark: benchmark,
		created:   now,
		clock:     m.opts.Clock,
		done:      make(chan struct{}),
		dropped:   m.mDropped,
		subsGauge: m.mSubscribers,
		state:     StateRunning,
		seq:       startSeq,
		designs:   designs,
		subs:      make(map[int]chan Update),
		counted:   enforceLimit,
	}
	ctx, cancel := context.WithCancel(m.opts.BaseContext)
	job.cancel = cancel
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	if job.counted {
		m.running++
	}
	m.mu.Unlock()
	m.mRunning.Add(1)

	go func() {
		defer cancel()
		result, final, err := m.protect(ctx, run, job)
		m.finish(job, result, final, err)
	}()
	return job, nil
}

// protect runs the job body, converting a panic into a job failure
// instead of crashing the daemon (jobs run outside net/http's built-in
// per-request recovery).
func (m *Manager) protect(ctx context.Context, run RunFunc, job *Job) (result any, final Update, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("api: job %s panicked: %v", job.ID, r)
		}
	}()
	return run(ctx, job)
}

// finish settles the job: stamps the terminal state, publishes the final
// update (never dropped — subscribers' newest-wins buffers retain it),
// and releases the running slot.
func (m *Manager) finish(job *Job, result any, final Update, err error) {
	job.mu.Lock()
	state := StateDone
	if err != nil {
		state = StateFailed
		// DELETE, daemon shutdown (BaseContext), or a context error all
		// settle "canceled" — the job was aborted, not broken.
		if job.cancelled || errors.Is(err, context.Canceled) {
			state = StateCanceled
		}
		status := m.opts.ErrorStatus(err)
		e := NewError(status, "", "%v", err)
		job.errBody = &e
		final.Error = &e
	}
	job.state = state
	job.result = result
	job.finished = job.clock()
	job.elapsedMS = float64(job.finished.Sub(job.created).Microseconds()) / 1000
	if final.ElapsedMS == 0 {
		final.ElapsedMS = job.elapsedMS
	}
	final.State = state
	final.Final = true
	job.publishLocked(final)
	for id, ch := range job.subs {
		close(ch)
		delete(job.subs, id)
		job.subsGauge.Add(-1)
	}
	close(job.done)
	job.mu.Unlock()

	m.mRunning.Add(-1)
	m.mFinished[state].Inc()
	if job.counted {
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}
}

// Get looks a job up.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return job, nil
}

// Cancel requests a job's cancellation. A running job settles
// asynchronously — its stream still ends with a final "canceled" update.
// DELETE on an already-finished job removes it from the table (DELETE is
// resource removal), so consumers that have read their result can
// release it instead of pinning the payload for the retention window.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	terminal := job.state.Terminal()
	if !terminal {
		job.cancelled = true
	}
	job.mu.Unlock()
	job.cancel()
	if terminal {
		m.forget(id)
	}
	return job, nil
}

// forget drops a finished job from the table immediately, releasing its
// retained result; running jobs are left alone.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return
	}
	job.mu.Lock()
	terminal := job.state.Terminal()
	job.mu.Unlock()
	if !terminal {
		return
	}
	delete(m.jobs, id)
	for i, jid := range m.order {
		if jid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// ListFilter narrows GET /v1/jobs. Zero fields match everything.
type ListFilter struct {
	// State keeps only jobs in this lifecycle phase.
	State JobState
	// Benchmark keeps only jobs over this benchmark.
	Benchmark string
	// Kind keeps only sweep or pareto jobs.
	Kind wire.JobKind
	// Limit bounds the page (default 50, hard cap 500).
	Limit int
}

// listLimits bound the GET /v1/jobs page size.
const (
	DefaultListLimit = 50
	MaxListLimit     = 500
)

// List snapshots jobs matching the filter, newest first, without
// results (results stay behind GET /v1/jobs/{id}).
func (m *Manager) List(f ListFilter) []JobStatus {
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultListLimit
	}
	if limit > MaxListLimit {
		limit = MaxListLimit
	}
	m.mu.Lock()
	m.evictLocked()
	ids := make([]string, len(m.order))
	copy(ids, m.order)
	jobs := make([]*Job, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- { // newest first
		if job, ok := m.jobs[ids[i]]; ok {
			jobs = append(jobs, job)
		}
	}
	m.mu.Unlock()

	out := make([]JobStatus, 0, min(limit, len(jobs)))
	for _, job := range jobs {
		if len(out) >= limit {
			break
		}
		if f.Kind != "" && job.Kind != f.Kind {
			continue
		}
		if f.Benchmark != "" && job.Benchmark != f.Benchmark {
			continue
		}
		st := job.Status(false)
		if f.State != "" && st.State != f.State {
			continue
		}
		out = append(out, st)
	}
	return out
}

// evictLocked drops finished jobs past retention, and — beyond the stored
// cap — the oldest finished jobs early. Running jobs are never evicted.
func (m *Manager) evictLocked() {
	now := m.opts.Clock()
	kept := m.order[:0]
	for _, id := range m.order {
		job := m.jobs[id]
		if job == nil {
			continue
		}
		job.mu.Lock()
		expired := job.state.Terminal() && now.Sub(job.finished) > m.opts.Retention
		job.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
	for i := 0; len(m.order) > m.opts.MaxJobs && i < len(m.order); {
		id := m.order[i]
		job := m.jobs[id]
		job.mu.Lock()
		finished := job.state.Terminal()
		job.mu.Unlock()
		if !finished {
			i++
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

// Streaming implements Publisher.
func (j *Job) Streaming() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs) > 0
}

// Publish implements Publisher: it records one cumulative snapshot and
// fans it out to stream subscribers. Intermediate updates may be
// coalesced per subscriber (newest wins); the final update always
// survives because nothing is published after it.
func (j *Job) Publish(u Update) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // the job already settled; a straggling snapshot is stale
	}
	u.State = StateRunning
	j.publishLocked(u)
}

func (j *Job) publishLocked(u Update) {
	j.seq++
	u.JobID = j.ID
	u.Seq = j.seq
	// The design total may only materialise inside the job (named spaces
	// resolve after model resolution); adopt it from the first update
	// that knows it.
	if u.Designs > j.designs {
		j.designs = u.Designs
	} else if u.Designs == 0 {
		u.Designs = j.designs
	}
	// Progress counters are cumulative and monotone; keeping the maximum
	// also stops a failed or cancelled job's zero-valued terminal update
	// from wiping the progress it actually made.
	j.evaluated = max(j.evaluated, u.Evaluated)
	u.Evaluated = j.evaluated
	j.feasible = max(j.feasible, u.Feasible)
	u.Feasible = j.feasible
	j.shards = max(j.shards, u.Shards)
	u.Shards = j.shards
	j.retries = max(j.retries, u.Retries)
	u.Retries = j.retries
	if u.Worker != "" && u.Delta > 0 {
		if j.attribution == nil {
			j.attribution = make(map[string]int)
		}
		j.attribution[u.Worker] += u.Delta
	}
	j.last = &u
	j.history = append(j.history, u)
	if len(j.history) > historyCap {
		j.history = j.history[len(j.history)-historyCap:]
	}
	for _, ch := range j.subs {
		select {
		case ch <- u:
		default:
			// Slow subscriber: drop its oldest pending update and offer
			// the newest again — snapshots are cumulative, so skipping
			// intermediates loses nothing.
			j.dropped.Inc()
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- u:
			default:
			}
		}
	}
}

// Subscribe attaches a stream reader: the channel is primed with the
// latest snapshot (so a late or reconnecting subscriber's counters are
// current immediately; on a running fleet job that snapshot may be a
// counters update without Candidates, which the next cadence point
// brings), then receives subsequent updates, and closes after the final
// one. The returned cancel detaches the subscriber.
func (j *Job) Subscribe() (<-chan Update, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Update, 8)
	if j.last != nil {
		ch <- *j.last
	}
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.subsGauge.Add(1)
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
			j.subsGauge.Add(-1)
		}
	}
}

// historyCap bounds per-job retained updates for SubscribeFrom replay.
// Updates are cumulative, so a reconnecting reader past the horizon
// loses no counters by falling back to the latest one, though on a
// running fleet job that one may lack Candidates until the next cadence
// point; the ring spares well-behaved reconnects the full-snapshot
// re-send and lets a reader that attaches at ?from_seq=0 see the
// partials of a job that settled before it attached.
const historyCap = 64

// SubscribeFrom is Subscribe for a reader resuming after a dropped
// connection: replay holds the retained updates with Seq > from, oldest
// first, and ch then delivers everything after those. If from predates
// the retained history (or is negative), replay degrades to the latest
// cumulative snapshot alone, as Subscribe primes a reader. The
// subscriber is registered under the same lock that builds replay, so no
// update can fall between the two.
func (j *Job) SubscribeFrom(from int) ([]Update, <-chan Update, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var replay []Update
	switch {
	case j.last == nil:
		// nothing published yet
	case from >= 0 && len(j.history) > 0 && j.history[0].Seq <= from+1:
		for _, u := range j.history {
			if u.Seq > from {
				replay = append(replay, u)
			}
		}
	default:
		replay = []Update{*j.last}
	}
	ch := make(chan Update, 8)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.subsGauge.Add(1)
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
			j.subsGauge.Add(-1)
		}
	}
}

// JobID implements Publisher.
func (j *Job) JobID() string { return j.ID }

// Done closes when the job settles.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job. withResult includes the final payload (GET
// /v1/jobs/{id} wants it; submission echoes do not).
func (j *Job) Status(withResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Kind:      j.Kind,
		Benchmark: j.Benchmark,
		State:     j.state,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Designs:   j.designs,
		Evaluated: j.evaluated,
		Feasible:  j.feasible,
		Shards:    j.shards,
		Retries:   j.retries,
		Updates:   j.seq,
		ElapsedMS: j.elapsedMS,
		Error:     j.errBody,
	}
	if len(j.attribution) > 0 {
		st.Attribution = make(map[string]int, len(j.attribution))
		for k, v := range j.attribution {
			st.Attribution[k] = v
		}
	}
	if st.ElapsedMS == 0 {
		st.ElapsedMS = float64(j.clock().Sub(j.created).Microseconds()) / 1000
	}
	if withResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}
