package main

import (
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// httpStats accumulates per-endpoint request counters in the obs
// registry, which /v1/metricsz exposes. Endpoints are the daemon's
// known routes; anything else is folded into "other" so a
// path-scanning client cannot grow the series set without bound.
type httpStats struct {
	reg       *obs.Registry
	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

// endpointStats holds one endpoint's pre-registered handles. The
// latency histogram's count doubles as the request total.
type endpointStats struct {
	byStatus map[int]*obs.Counter
	latency  *obs.Histogram
	maxMS    *obs.Gauge
}

func newHTTPStats(reg *obs.Registry) *httpStats {
	return &httpStats{reg: reg, endpoints: make(map[string]*endpointStats)}
}

func (h *httpStats) record(endpoint string, status int, elapsed time.Duration) {
	ms := float64(elapsed.Microseconds()) / 1000
	l := obs.Label{Key: "endpoint", Value: endpoint}
	h.mu.Lock()
	es := h.endpoints[endpoint]
	if es == nil {
		es = &endpointStats{
			byStatus: make(map[int]*obs.Counter),
			latency: h.reg.Histogram("dsed_http_request_ms",
				"Request latency by endpoint.", obs.LatencyMSBuckets, l),
			maxMS: h.reg.Gauge("dsed_http_request_max_ms",
				"Slowest request seen per endpoint.", l),
		}
		h.endpoints[endpoint] = es
	}
	c := es.byStatus[status]
	if c == nil {
		c = h.reg.Counter("dsed_http_requests_total",
			"Requests by endpoint and status code.",
			l, obs.Label{Key: "code", Value: strconv.Itoa(status)})
		es.byStatus[status] = c
	}
	h.mu.Unlock()
	c.Inc()
	es.latency.Observe(ms)
	es.maxMS.SetMax(ms)
}

// statusWriter captures the response status and size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so the NDJSON job stream can push
// each partial update to the client as it happens instead of buffering
// the whole stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-request IDs, structured request
// logging and per-endpoint latency/status accounting. known holds the
// route patterns that get their own metric series.
//
// Every request gets an ID: a client-supplied X-Request-ID is honoured
// when it is header-safe, otherwise one is minted. The ID is echoed in
// the X-Request-ID response header, stamped on every structured log
// line, and travels the request context into /v1 error bodies.
func instrument(next http.Handler, stats *httpStats, known map[string]bool, logger *log.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := api.SanitizeRequestID(r.Header.Get(api.RequestIDHeader))
		if id == "" {
			id = api.NewRequestID()
		}
		w.Header().Set(api.RequestIDHeader, id)
		ctx := api.WithRequestID(r.Context(), id)
		// An incoming traceparent (a fleet owner dispatching a shard, or
		// any traced client) parents every span this request opens.
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.ContextWithSpan(ctx, sc)
		}
		if logger != nil {
			// Hand the logger to response writers via the context, so
			// encode failures deep in a handler reach the request log.
			ctx = api.WithLogger(ctx, logger)
		}
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(ctx)
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		stats.record(endpointLabel(r.URL.Path, known), sw.status, elapsed)
		if logger != nil {
			// %q: the decoded path can carry control characters that
			// would otherwise forge extra log lines.
			logger.Printf("req=%s %s %q status=%d bytes=%d elapsed=%v",
				id, r.Method, r.URL.Path, sw.status, sw.bytes, elapsed.Round(time.Microsecond))
		}
	})
}

// endpointLabel folds a request path into its metric series: known
// routes keep their own series, per-job paths collapse onto their route
// pattern (job IDs must not grow the metrics map without bound), and
// anything else is "other".
func endpointLabel(path string, known map[string]bool) string {
	if known[path] {
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		pattern := "/v1/jobs/{id}"
		switch {
		case strings.HasSuffix(path, "/stream"):
			pattern = "/v1/jobs/{id}/stream"
		case strings.HasSuffix(path, "/trace"):
			pattern = "/v1/jobs/{id}/trace"
		}
		if known[pattern] {
			return pattern
		}
	}
	return "other"
}
