package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceparentHeader carries trace context across HTTP hops, shaped
// like the W3C traceparent header: 00-<trace-id>-<span-id>-01.
const TraceparentHeader = "traceparent"

const (
	traceIDHexLen = 32 // 16 bytes
	spanIDHexLen  = 16 // 8 bytes
)

// SpanContext identifies a position in a trace: which trace, and
// which span new children should hang under.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both IDs are well-formed.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, traceIDHexLen) && isHex(sc.SpanID, spanIDHexLen)
}

// Traceparent renders the header value, or "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent decodes a traceparent header value. Unknown
// versions and malformed fields are rejected rather than guessed at.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() || !isHex(parts[3], 2) {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc; Tracer.Start parents new
// spans under it and pkg/dsedclient propagates it as a traceparent
// header on outbound requests.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the current span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

func newID(bytes int) string {
	b := make([]byte, bytes)
	if _, err := rand.Read(b); err != nil {
		// Entropy exhaustion is not actionable here; a fixed ID keeps
		// traces flowing (they just collide) instead of panicking.
		return strings.Repeat("0", 2*bytes)
	}
	return hex.EncodeToString(b)
}

// Span is one finished timed operation, JSON-shaped for the
// /v1/jobs/{id}/trace endpoint and for shipping worker spans back to
// the coordinator inside final job updates.
type Span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Node       string            `json:"node,omitempty"`
	StartUnix  int64             `json:"start_unix_nano"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Tracer mints spans. A nil Tracer hands out nil ActiveSpans, which
// no-op, so tracing threads through as an optional dependency.
type Tracer struct {
	node  string
	store *TraceStore
	clock func() time.Time
}

// NewTracer builds a tracer stamping spans with node (this daemon's
// identity — its advertised address, typically). Finished spans are
// recorded into store when it is non-nil. clock nil means wall clock.
func NewTracer(node string, store *TraceStore, clock func() time.Time) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{node: node, store: store, clock: clock}
}

// Node reports the identity stamped on this tracer's spans.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Start opens a span named name. If ctx carries a span context the
// new span is its child (same trace); otherwise a fresh trace is
// opened. The returned context carries the new span for further
// nesting and outbound propagation.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := &ActiveSpan{t: t, start: t.clock()}
	sp.span = Span{SpanID: newID(spanIDHexLen / 2), Name: name, Node: t.node}
	if parent, ok := SpanFromContext(ctx); ok {
		sp.span.TraceID = parent.TraceID
		sp.span.ParentID = parent.SpanID
	} else {
		sp.span.TraceID = newID(traceIDHexLen / 2)
	}
	return ContextWithSpan(ctx, sp.Context()), sp
}

// ActiveSpan is an open span. SetAttr and End may be called from the
// goroutine that started it; a nil ActiveSpan no-ops.
type ActiveSpan struct {
	t     *Tracer
	start time.Time

	mu    sync.Mutex
	span  Span
	ended bool
}

// Context returns the span's identity for propagation.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID}
}

// SetAttr attaches a key=value annotation.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = value
}

// End closes the span, records it into the tracer's store, and
// returns the finished data. Subsequent calls return the same data
// without re-recording.
func (s *ActiveSpan) End() Span {
	if s == nil {
		return Span{}
	}
	s.mu.Lock()
	if s.ended {
		sp := s.span
		s.mu.Unlock()
		return sp
	}
	s.ended = true
	s.span.StartUnix = s.start.UnixNano()
	s.span.DurationMS = float64(s.t.clock().Sub(s.start).Microseconds()) / 1000
	sp := s.span
	s.mu.Unlock()
	if s.t.store != nil {
		s.t.store.Add(sp)
	}
	return sp
}

// Import records externally produced spans (a worker's, shipped back
// in a final job update) into the tracer's store.
func (t *Tracer) Import(spans []Span) {
	if t == nil || t.store == nil {
		return
	}
	t.store.ImportSpans(spans)
}

const (
	defaultTraceCap  = 256
	maxSpansPerTrace = 4096
	// spanBudget bounds the spans held across every trace. The trace cap
	// alone admits ~1M spans, and a fleet job's trace holds hundreds, so
	// without it a busy peer's store grows to tens of MB.
	spanBudget = 4 * maxSpansPerTrace
)

type traceEntry struct {
	spans []Span
	// seen dedupes by span ID: a worker ships its trace's cumulative
	// span list with every shard's final update, so the same span
	// arrives once per shard and must be recorded once.
	seen    map[string]struct{}
	jobs    []string
	dropped int
}

// TraceStore is a ring buffer of recent traces: the newest
// defaultTraceCap trace IDs are retained, each holding at most
// maxSpansPerTrace spans and together at most spanBudget, with job-ID →
// trace-ID bindings so /v1/jobs/{id}/trace can find a job's tree.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	order  []string // trace IDs, oldest first
	traces map[string]*traceEntry
	jobs   map[string]string
	spans  int // held across every trace
}

// NewTraceStore builds a store retaining the most recent capTraces
// traces (<= 0 means the default of 256).
func NewTraceStore(capTraces int) *TraceStore {
	if capTraces <= 0 {
		capTraces = defaultTraceCap
	}
	return &TraceStore{
		cap:    capTraces,
		traces: make(map[string]*traceEntry),
		jobs:   make(map[string]string),
	}
}

// Add records one span.
func (s *TraceStore) Add(sp Span) {
	if s == nil || sp.TraceID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(sp)
}

// ImportSpans records a batch of spans.
func (s *TraceStore) ImportSpans(spans []Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		if sp.TraceID != "" {
			s.addLocked(sp)
		}
	}
}

// entryLocked returns the trace's entry, creating it when absent. A new
// entry first evicts the oldest traces, with their job bindings, down to
// cap: Add, ImportSpans and Bind all create entries, so every path is
// bounded.
func (s *TraceStore) entryLocked(traceID string) *traceEntry {
	if e, ok := s.traces[traceID]; ok {
		return e
	}
	for len(s.order) >= s.cap {
		s.evictLocked(0)
	}
	e := &traceEntry{}
	s.traces[traceID] = e
	s.order = append(s.order, traceID)
	return e
}

// evictLocked drops the trace at position i of order with its job
// bindings.
func (s *TraceStore) evictLocked(i int) {
	id := s.order[i]
	s.order = append(s.order[:i], s.order[i+1:]...)
	e := s.traces[id]
	for _, j := range e.jobs {
		delete(s.jobs, j)
	}
	s.spans -= len(e.spans)
	delete(s.traces, id)
}

// makeRoomLocked evicts the oldest traces other than keep, the one about
// to grow, until one more span fits the span budget. keep itself is
// bounded by maxSpansPerTrace, which the budget exceeds, so it always
// fits once the others are gone.
func (s *TraceStore) makeRoomLocked(keep *traceEntry) {
	for i := 0; s.spans >= spanBudget && i < len(s.order); {
		if s.traces[s.order[i]] == keep {
			i++
			continue
		}
		s.evictLocked(i)
	}
}

func (s *TraceStore) addLocked(sp Span) {
	e := s.entryLocked(sp.TraceID)
	if sp.SpanID != "" {
		if e.seen == nil {
			e.seen = make(map[string]struct{})
		}
		if _, dup := e.seen[sp.SpanID]; dup {
			return
		}
		e.seen[sp.SpanID] = struct{}{}
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.dropped++
		return
	}
	s.makeRoomLocked(e)
	e.spans = append(e.spans, sp)
	s.spans++
}

// Bind associates a job ID with its trace so TraceForJob can resolve
// it. Binding before any span arrives is fine.
func (s *TraceStore) Bind(jobID, traceID string) {
	if s == nil || jobID == "" || traceID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(traceID)
	e.jobs = append(e.jobs, jobID)
	s.jobs[jobID] = traceID
}

// TraceForJob resolves a job ID to its trace ID.
func (s *TraceStore) TraceForJob(jobID string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.jobs[jobID]
	return id, ok
}

// Spans returns a copy of the trace's recorded spans.
func (s *TraceStore) Spans(traceID string) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[traceID]
	if !ok {
		return nil
	}
	out := make([]Span, len(e.spans))
	copy(out, e.spans)
	return out
}

// TraceNode is a span plus its children — one node of an assembled
// trace tree.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// JobTrace is the GET /v1/jobs/{id}/trace response: a job's assembled
// span tree. A fully connected trace has exactly one root.
type JobTrace struct {
	JobID   string       `json:"job_id"`
	TraceID string       `json:"trace_id"`
	Spans   int          `json:"spans"`
	Tree    []*TraceNode `json:"tree"`
}

// BuildTree assembles spans into parent → child trees. Spans whose
// parent is absent (the root, or orphans from a lost hop) become
// roots. Siblings sort by start time.
func BuildTree(spans []Span) []*TraceNode {
	nodes := make(map[string]*TraceNode, len(spans))
	ordered := make([]*TraceNode, 0, len(spans))
	for _, sp := range spans {
		n := &TraceNode{Span: sp}
		nodes[sp.SpanID] = n
		ordered = append(ordered, n)
	}
	var roots []*TraceNode
	for _, n := range ordered {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != "" && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(ns []*TraceNode)
	sortKids = func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartUnix < ns[j].StartUnix })
		for _, n := range ns {
			sortKids(n.Children)
		}
	}
	sortKids(roots)
	return roots
}
