package main

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// telemetry bundles the daemon's observability plane: one metrics
// registry (scraped at GET /v1/metricsz in Prometheus text format) and
// one trace store behind a tracer whose node name tells one daemon's
// spans from another's in an assembled job trace. A daemon builds one at
// boot and threads it through the registry, a peer's cluster
// coordinator, and the serving layer.
type telemetry struct {
	reg    *obs.Registry
	traces *obs.TraceStore
	tracer *obs.Tracer
}

// newTelemetry builds the observability plane for one daemon. node
// labels every span this process records (the daemon's advertised
// address).
func newTelemetry(node string) *telemetry {
	reg := obs.NewRegistry(nil)
	traces := obs.NewTraceStore(0)
	return &telemetry{
		reg:    reg,
		traces: traces,
		tracer: obs.NewTracer(node, traces, nil),
	}
}

// handleMetricsz serves the Prometheus text exposition of every series
// in the registry.
func (t *telemetry) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_ = t.reg.WritePrometheus(w)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's assembled
// span tree. On a fleet job's owner the tree spans the fleet — the
// owner's root and dispatch spans with every peer's imported phase
// spans beneath them.
func (t *telemetry) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	id := r.PathValue("id")
	traceID, ok := t.traces.TraceForJob(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, "no trace recorded for job %q (unknown, evicted, or not started)", id)
		return
	}
	spans := t.traces.Spans(traceID)
	writeJSON(w, r, http.StatusOK, obs.JobTrace{
		JobID:   id,
		TraceID: traceID,
		Spans:   len(spans),
		Tree:    obs.BuildTree(spans),
	})
}

// startDebugServer opens the optional -debug-addr listener carrying
// net/http/pprof — profiling stays off the public API surface and off
// by default. Failures to listen are logged, never fatal: a daemon that
// cannot profile is still a daemon.
func startDebugServer(ctx context.Context, addr string, logger *log.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	go func() {
		logger.Printf("debug (pprof) listener on %s", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("debug listener: %v", err)
		}
	}()
}
