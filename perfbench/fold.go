package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one call the benchmark made into a layer, timed from the
// benchmark's side. Spans of one op share Op; Parent 0 marks a root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_nano"`
	End    int64  `json:"end_unix_nano"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path pays one nil check per call.
type recorder struct {
	mu     sync.Mutex
	lastID int
	spans  []span
	// daemon holds each op's daemon-side trace, fetched after its final
	// update, to be folded under the op's client span.
	daemon map[int]*obs.JobTrace
}

func newRecorder() *recorder { return &recorder{daemon: make(map[int]*obs.JobTrace)} }

// reserve hands out a span ID ahead of the span's end, so a root can be
// named as its children's parent before it finishes (0 when not
// recording).
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastID++
	return r.lastID
}

// add records a finished span under a fresh ID.
func (r *recorder) add(op, parent int, name string, start, end time.Time) {
	r.addID(r.reserve(), op, parent, name, start, end)
}

// addID records a finished span under a reserved ID.
func (r *recorder) addID(id, op, parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// attach stores an op's daemon trace.
func (r *recorder) attach(op int, t *obs.JobTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.daemon[op] = t
}

// write dumps every span, with the daemon trees folded in, as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.Marshal(struct {
		Spans  []span                `json:"spans"`
		Daemon map[int]*obs.JobTrace `json:"daemon"`
	}{r.spans, r.daemon})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// fold splits every op's client latency into self time per layer and
// returns the per-op mean of each layer (ms), keyed by metric name.
func (r *recorder) fold() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	byOp := make(map[int][]span)
	for _, s := range r.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	totals := make(map[string]float64)
	ops := 0
	for op, spans := range byOp {
		var root *span
		var client []span
		for i := range spans {
			if spans[i].Parent == 0 && spans[i].Name == "op" {
				root = &spans[i]
			} else {
				client = append(client, spans[i])
			}
		}
		if root == nil {
			continue
		}
		var tree []*obs.TraceNode
		if t := r.daemon[op]; t != nil {
			tree = t.Tree
		}
		foldOp(*root, client, tree, totals)
		ops++
	}
	for k := range totals {
		totals[k] /= float64(ops)
	}
	return totals
}

type interval struct{ s, e int64 }

// coverage is the length of the union of ivs, clipped to [lo, hi].
func coverage(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.s, lo), min(iv.e, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].s < clipped[j].s })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.s > end {
			end = iv.s
		}
		if iv.e > end {
			total += iv.e - end
			end = iv.e
		}
	}
	return total
}

func nodeInterval(n *obs.TraceNode) interval {
	return interval{n.StartUnix, n.StartUnix + int64(n.DurationMS*1e6)}
}

// layerOf names the per-layer metric a daemon span's self time feeds.
func layerOf(name string) string {
	switch name {
	case "phase:train":
		return "trace.train_ms"
	case "phase:encode":
		return "trace.encode_ms"
	case "phase:predict":
		return "trace.predict_ms"
	case "phase:merge":
		return "trace.merge_ms"
	case "dispatch":
		return "trace.dispatch_ms"
	}
	return "trace.job_ms" // job:*, adopt: the job lifecycle around its phases
}

// foldOp adds one op's self times (ms) to out. The op root spans submit
// to final update; its children are the benchmark's client calls and
// the daemon's job tree. A daemon span's self time is its duration less
// the union of its children; concurrent children (a fleet job's
// in-flight shards) each count, so a layer's self time is busy time. A
// client call's self time is its duration less the time the daemon's
// job was running under it: the client library and the HTTP hop.
// Update spans are waits on the stream, not work, so they cover
// nothing. The residual is the latency that neither the daemon's spans
// nor the client's calls cover — stream encoding and delivery, which no
// daemon span instruments. Everything is clipped to the op's latency.
func foldOp(root span, client []span, daemon []*obs.TraceNode, out map[string]float64) {
	lo, hi := root.Start, root.End
	var daemonIvs, all []interval
	for _, n := range daemon {
		daemonIvs = append(daemonIvs, nodeInterval(n))
	}
	all = append(all, daemonIvs...)
	for _, c := range client {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s || c.Name == "dsedclient.update" {
			continue
		}
		all = append(all, interval{s, e})
		out["trace.client_ms"] += ms(e - s - coverage(daemonIvs, s, e))
	}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		iv := nodeInterval(n)
		s, e := max(iv.s, lo), min(iv.e, hi)
		kids := make([]interval, len(n.Children))
		for i, k := range n.Children {
			kids[i] = nodeInterval(k)
		}
		if e > s {
			out[layerOf(n.Name)] += ms(e - s - coverage(kids, s, e))
		}
		for _, k := range n.Children {
			walk(k)
		}
	}
	for _, n := range daemon {
		walk(n)
	}
	out["trace.residual_ms"] += ms(hi - lo - coverage(all, lo, hi))
}

func ms(nanos int64) float64 { return float64(nanos) / 1e6 }
