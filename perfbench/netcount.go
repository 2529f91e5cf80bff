package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// countingConn adds every byte read from or written to the connection
// to one shared total.
type countingConn struct {
	net.Conn
	total *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.total.Add(int64(n))
	return n, err
}

// countingClient is an HTTP client whose every connection counts its
// bytes, both directions, into total. It is what the benchmark hands
// dsedclient.WithHTTPClient, so client↔daemon traffic is measured at
// the socket, headers and chunk framing included.
func countingClient(total *atomic.Int64) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, total: total}, nil
		},
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
}

// Traffic classes a forwarder splits its bytes into, by request path.
const (
	classDispatch  = iota // shard jobs: submit, stream, status, release
	classReplicate        // POST /v1/jobs/replicate
	classGossip           // POST /v1/gossip
	classOther            // health probes, warm, anything else
	numClasses
)

// classify maps one request onto its traffic class.
func classify(method, path string) int {
	switch {
	case path == "/v1/jobs/replicate":
		return classReplicate
	case path == "/v1/gossip":
		return classGossip
	case method == http.MethodPost && (path == "/v1/pareto" || path == "/v1/sweeps"):
		return classDispatch
	case strings.HasPrefix(path, "/v1/jobs/") && !strings.HasSuffix(path, "/trace"):
		return classDispatch
	}
	return classOther
}

// forwarder is a loopback TCP relay in front of one peer. Peers address
// each other (and themselves) through forwarders, so every peer↔peer
// byte crosses one. It reads request heads as they pass upstream to tag
// the connection with the request's traffic class; response bytes are
// booked to the class of the request they answer (HTTP/1.1 clients do
// not pipeline, so a response always follows its own request).
type forwarder struct {
	ln     net.Listener
	target string
	bytes  [numClasses]atomic.Int64

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

//dsedlint:ignore ctxflow the accept loop belongs to the forwarder; Close returns once it and every relay have exited
func startForwarder(target string) (*forwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	f.wg.Add(1)
	go f.serve()
	return f, nil
}

// Addr is the forwarder's dialable host:port.
func (f *forwarder) Addr() string { return f.ln.Addr().String() }

// Bytes returns the bytes relayed so far in class c, both directions.
func (f *forwarder) Bytes(c int) int64 { return f.bytes[c].Load() }

// Total returns every byte relayed so far.
func (f *forwarder) Total() int64 {
	var t int64
	for c := range f.bytes {
		t += f.bytes[c].Load()
	}
	return t
}

//dsedlint:ignore ctxflow relays belong to the forwarder; Close cuts their connections and waits for them
func (f *forwarder) serve() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		if !f.track(c) {
			c.Close()
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.relay(c)
		}()
	}
}

// track registers a live connection so Close can cut it; it refuses
// once the forwarder is closing.
func (f *forwarder) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conns == nil {
		return false
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *forwarder) untrack(c net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.conns, c)
}

//dsedlint:ignore ctxflow the response copier ends when either connection closes, and relay waits for it
func (f *forwarder) relay(down net.Conn) {
	defer f.untrack(down)
	defer down.Close()
	up, err := net.DialTimeout("tcp", f.target, 5*time.Second)
	if err != nil {
		return
	}
	if !f.track(up) {
		up.Close()
		return
	}
	defer f.untrack(up)
	defer up.Close()

	var class atomic.Int32
	class.Store(classOther)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(&classWriter{w: down, f: f, class: &class}, up)
		down.Close()
	}()
	f.relayRequests(up, down, &class)
	up.Close()
	<-done
}

// relayRequests copies the request stream upstream one request at a
// time: head first (setting the connection's class), then exactly the
// body its Content-Length announces. A chunked request body, which no
// dsed client sends, degrades to a raw copy under the current class.
func (f *forwarder) relayRequests(up io.Writer, down io.Reader, class *atomic.Int32) {
	br := bufio.NewReader(down)
	w := &classWriter{w: up, f: f, class: class}
	for {
		head, method, path, length, chunked, err := readHead(br)
		if err != nil {
			return
		}
		class.Store(int32(classify(method, path)))
		if _, err := w.Write(head); err != nil {
			return
		}
		if chunked {
			_, _ = io.Copy(w, br)
			return
		}
		if length > 0 {
			if _, err := io.CopyN(w, br, length); err != nil {
				return
			}
		}
	}
}

// readHead reads one HTTP/1.x request head verbatim and extracts what
// relaying needs from it.
func readHead(br *bufio.Reader) (head []byte, method, path string, length int64, chunked bool, err error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, "", "", 0, false, err
		}
		first := len(head) == 0
		head = append(head, line...)
		text := strings.TrimRight(string(line), "\r\n")
		if first {
			parts := strings.Fields(text)
			if len(parts) < 2 {
				return nil, "", "", 0, false, errors.New("malformed request line")
			}
			method, path = parts[0], parts[1]
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			continue
		}
		if text == "" {
			return head, method, path, length, chunked, nil
		}
		name, value, ok := strings.Cut(text, ":")
		if !ok {
			continue
		}
		value = strings.TrimSpace(value)
		switch strings.ToLower(name) {
		case "content-length":
			if length, err = strconv.ParseInt(value, 10, 64); err != nil {
				return nil, "", "", 0, false, err
			}
		case "transfer-encoding":
			chunked = strings.Contains(strings.ToLower(value), "chunked")
		}
	}
}

// classWriter books every written byte to the connection's current
// class before passing it on.
type classWriter struct {
	w     io.Writer
	f     *forwarder
	class *atomic.Int32
}

func (c *classWriter) Write(p []byte) (int, error) {
	c.f.bytes[c.class.Load()].Add(int64(len(p)))
	return c.w.Write(p)
}

// Close stops accepting, cuts every relayed connection, and returns
// once every relay goroutine has exited.
func (f *forwarder) Close() {
	f.ln.Close()
	f.mu.Lock()
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	f.wg.Wait()
}
