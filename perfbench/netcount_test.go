package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// echoServer answers every request with a fixed-size body and drains
// the request body.
func echoServer(t *testing.T, size int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(bytes.Repeat([]byte("x"), size))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, c *http.Client, method, url string, body []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestCountingClientCountsBothDirections: the dialer sees at least the
// bodies both ways, plus the heads, and nothing while idle.
func TestCountingClientCountsBothDirections(t *testing.T) {
	srv := echoServer(t, 5000)
	var total atomic.Int64
	c := countingClient(&total)
	defer c.CloseIdleConnections()
	do(t, c, http.MethodPost, srv.URL+"/v1/pareto", bytes.Repeat([]byte("y"), 3000))
	first := total.Load()
	if first < 8000 || first > 8000+1000 {
		t.Fatalf("one 3000-byte request + 5000-byte response counted %d bytes", first)
	}
	do(t, c, http.MethodPost, srv.URL+"/v1/pareto", bytes.Repeat([]byte("y"), 3000))
	if got := total.Load(); got != 2*first {
		t.Errorf("an identical second request on the kept-alive connection added %d bytes, want %d", got-first, first)
	}
}

// TestForwarderSplitsByPath: every byte a client sends through the
// forwarder is relayed and booked to its request's class, and the
// per-class totals add up to exactly what the client's socket carried.
func TestForwarderSplitsByPath(t *testing.T) {
	srv := echoServer(t, 2000)
	fw, err := startForwarder(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	var total atomic.Int64
	c := countingClient(&total)
	defer c.CloseIdleConnections()
	base := "http://" + fw.Addr()

	do(t, c, http.MethodPost, base+"/v1/jobs/replicate", bytes.Repeat([]byte("r"), 10000))
	if fw.Bytes(classReplicate) != total.Load() || fw.Bytes(classDispatch) != 0 {
		t.Fatalf("replicate request: forwarder booked %d replicate / %d dispatch bytes, client socket carried %d",
			fw.Bytes(classReplicate), fw.Bytes(classDispatch), total.Load())
	}
	rep := fw.Bytes(classReplicate)

	// Same kept-alive connection, different classes, in sequence.
	do(t, c, http.MethodPost, base+"/v1/pareto", bytes.Repeat([]byte("p"), 20000))
	do(t, c, http.MethodGet, base+"/v1/jobs/pareto-1/stream?updates=final", nil)
	do(t, c, http.MethodDelete, base+"/v1/jobs/pareto-1", nil)
	do(t, c, http.MethodPost, base+"/v1/gossip", []byte(`{"from":"a"}`))
	do(t, c, http.MethodGet, base+"/v1/healthz", nil)

	if fw.Bytes(classReplicate) != rep {
		t.Errorf("later requests leaked %d bytes into the replicate class", fw.Bytes(classReplicate)-rep)
	}
	if fw.Bytes(classDispatch) < 20000+3*2000 {
		t.Errorf("dispatch class = %d bytes, want at least the bodies (26000)", fw.Bytes(classDispatch))
	}
	if fw.Bytes(classGossip) < 2000 || fw.Bytes(classOther) < 2000 {
		t.Errorf("gossip / other classes = %d / %d bytes, want each to hold a 2000-byte response",
			fw.Bytes(classGossip), fw.Bytes(classOther))
	}
	if fw.Total() != total.Load() {
		t.Errorf("forwarder relayed %d bytes, the client's socket carried %d", fw.Total(), total.Load())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/pareto", classDispatch},
		{"POST", "/v1/sweeps", classDispatch},
		{"GET", "/v1/jobs/sweep-3-ab/stream", classDispatch},
		{"DELETE", "/v1/jobs/sweep-3-ab", classDispatch},
		{"GET", "/v1/jobs/sweep-3-ab/trace", classOther},
		{"POST", "/v1/jobs/replicate", classReplicate},
		{"POST", "/v1/gossip", classGossip},
		{"GET", "/v1/healthz", classOther},
		{"POST", "/v1/warm", classOther},
	}
	for _, c := range cases {
		if got := classify(c.method, c.path); got != c.want {
			t.Errorf("classify(%s %s) = %d, want %d", c.method, c.path, got, c.want)
		}
	}
}
