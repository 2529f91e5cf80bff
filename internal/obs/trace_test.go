package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func testClock(step time.Duration) func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newID(16), SpanID: newID(8)}
	if !sc.Valid() {
		t.Fatalf("generated context invalid: %+v", sc)
	}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	for _, bad := range []string{
		"", "00-xyz", "01-" + sc.TraceID + "-" + sc.SpanID + "-01",
		"00-" + sc.TraceID + "-short-01",
		"00-" + sc.SpanID + "-" + sc.SpanID + "-01", // trace ID too short
		"00-" + sc.TraceID + "-" + sc.SpanID + "-zz",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("parsed malformed traceparent %q", bad)
		}
	}
}

func TestTracerParentsAndStore(t *testing.T) {
	store := NewTraceStore(8)
	tr := NewTracer("node-a", store, testClock(time.Millisecond))

	ctx, root := tr.Start(context.Background(), "job")
	root.SetAttr("job_id", "j1")
	cctx, child := tr.Start(ctx, "dispatch")
	_, grand := tr.Start(cctx, "train")
	gd := grand.End()
	cd := child.End()
	rd := root.End()

	if rd.ParentID != "" || rd.TraceID == "" {
		t.Fatalf("root span malformed: %+v", rd)
	}
	if cd.TraceID != rd.TraceID || cd.ParentID != rd.SpanID {
		t.Fatalf("child not parented under root: %+v vs %+v", cd, rd)
	}
	if gd.ParentID != cd.SpanID {
		t.Fatalf("grandchild not parented under child")
	}
	if rd.DurationMS <= 0 || rd.Attrs["job_id"] != "j1" || rd.Node != "node-a" {
		t.Fatalf("root data wrong: %+v", rd)
	}

	store.Bind("j1", rd.TraceID)
	id, ok := store.TraceForJob("j1")
	if !ok || id != rd.TraceID {
		t.Fatalf("TraceForJob = %q, %v", id, ok)
	}
	spans := store.Spans(rd.TraceID)
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}

	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("tree roots = %+v, want single job root", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "dispatch" {
		t.Fatalf("dispatch not under root")
	}
	if len(roots[0].Children[0].Children) != 1 || roots[0].Children[0].Children[0].Name != "train" {
		t.Fatalf("train not under dispatch")
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	sp.SetAttr("a", "b")
	if d := sp.End(); d.Name != "" {
		t.Fatalf("nil span produced data: %+v", d)
	}
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatalf("nil tracer put a span into ctx")
	}
	tr.Import([]Span{{TraceID: "t"}})

	var st *TraceStore
	st.Add(Span{TraceID: "t"})
	st.Bind("j", "t")
	if sp := st.Spans("t"); sp != nil {
		t.Fatalf("nil store returned spans")
	}
}

func TestTraceStoreEviction(t *testing.T) {
	store := NewTraceStore(2)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("%032d", i)
		store.Add(Span{TraceID: id, SpanID: newID(8)})
		store.Bind(fmt.Sprintf("job-%d", i), id)
	}
	if _, ok := store.TraceForJob("job-0"); ok {
		t.Fatalf("oldest trace's job binding survived eviction")
	}
	if _, ok := store.TraceForJob("job-2"); !ok {
		t.Fatalf("newest trace's job binding missing")
	}
	if got := store.Spans(fmt.Sprintf("%032d", 0)); got != nil {
		t.Fatalf("evicted trace still has spans")
	}
}

// TestTraceStoreBindFirstEviction is the daemon's order: a job binds its
// trace when it starts, before any of its spans end. Binding creates the
// entry, so binding must evict too, or every job stays in memory.
func TestTraceStoreBindFirstEviction(t *testing.T) {
	const capTraces, extra = 4, 7
	store := NewTraceStore(capTraces)
	for i := 0; i < capTraces+extra; i++ {
		id := fmt.Sprintf("%032d", i)
		store.Bind(fmt.Sprintf("job-%d", i), id)
		store.Add(Span{TraceID: id, SpanID: newID(8)})
		if len(store.traces) > capTraces || len(store.order) > capTraces || len(store.jobs) > capTraces {
			t.Fatalf("after %d jobs the store holds %d traces, %d order entries, %d bindings; cap is %d",
				i+1, len(store.traces), len(store.order), len(store.jobs), capTraces)
		}
	}
	if _, ok := store.TraceForJob("job-0"); ok {
		t.Fatal("oldest job still resolves after its trace was evicted")
	}
	for i := extra; i < capTraces+extra; i++ {
		if _, ok := store.TraceForJob(fmt.Sprintf("job-%d", i)); !ok {
			t.Fatalf("job-%d, among the newest %d, does not resolve", i, capTraces)
		}
		if got := store.Spans(fmt.Sprintf("%032d", i)); len(got) != 1 {
			t.Fatalf("trace %d holds %d spans, want 1", i, len(got))
		}
	}
}

func TestImportedSpansJoinTrace(t *testing.T) {
	store := NewTraceStore(0)
	tr := NewTracer("coordinator", store, testClock(time.Millisecond))
	ctx, root := tr.Start(context.Background(), "job")
	_, dispatch := tr.Start(ctx, "dispatch")
	dd := dispatch.End()
	rd := root.End()

	// A worker's spans arrive parented under the dispatch span.
	worker := []Span{
		{TraceID: rd.TraceID, SpanID: newID(8), ParentID: dd.SpanID, Name: "job:sweep", Node: "w1"},
	}
	tr.Import(worker)

	roots := BuildTree(store.Spans(rd.TraceID))
	if len(roots) != 1 {
		t.Fatalf("imported spans broke the tree: %d roots", len(roots))
	}
	d := roots[0].Children[0]
	if len(d.Children) != 1 || d.Children[0].Node != "w1" {
		t.Fatalf("worker span not under dispatch: %+v", d)
	}
}
