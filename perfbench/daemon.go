package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every daemon the benchmark starts, so each exit path —
// normal end, Ctrl-C, a failed answer check — can reap them all.
type procs struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func newProcs() *procs { return &procs{live: make(map[*daemon]struct{})} }

// daemon is one running dsed child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // the address it listens on
	dir    string // its private model dir, removed on stop
	log    *tailBuffer
	exited chan struct{}
	once   sync.Once
}

// spawn starts bin with args. The child gets its own process group, so
// a terminal's Ctrl-C reaches only the benchmark, which then reaps it;
// and a parent-death signal, so even a benchmark killed outright cannot
// leave a daemon holding a core under the next run.
//
//dsedlint:ignore ctxflow the waiter goroutine ends when the child exits, and stop kills the child and waits for it
func (p *procs) spawn(bin string, args []string, addr, dir string) (*daemon, error) {
	d := &daemon{addr: addr, dir: dir, log: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		return nil, errors.New("shutting down")
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	p.live[d] = struct{}{}
	return d, nil
}

// stop kills the daemon's process group, waits for it to exit, and
// removes its model dir.
func (p *procs) stop(d *daemon) {
	d.once.Do(func() {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.exited
		_ = os.RemoveAll(d.dir)
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, d)
}

// stopAll reaps every live daemon and refuses further spawns.
func (p *procs) stopAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	for d := range live {
		p.stop(d)
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1000, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailBuffer keeps the last max bytes a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// probe is the uncounted client used for readiness polls and scrapes.
var probe = &http.Client{Timeout: 5 * time.Second}

// pollInterval paces readiness polls: fine enough that setup_s is not
// quantised by it, coarse enough not to steal a core from training.
const pollInterval = 5 * time.Millisecond

// getJSON fetches url into out; a non-200 answer is an error.
func getJSON(ctx context.Context, url string, out any) error {
	body, err := get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := probe.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// waitUntil polls cond until it holds, the daemon exits, or ctx ends.
func waitUntil(ctx context.Context, d *daemon, what string, cond func() bool) error {
	for {
		if cond() {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon on %s exited while waiting for %s:\n%s", d.addr, what, d.log)
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s on %s: %w", what, d.addr, ctx.Err())
		case <-time.After(pollInterval):
		}
	}
}

// healthy reports whether the daemon answers /v1/healthz; dsed opens its
// listener only after every -benchmarks model is trained.
func healthy(ctx context.Context, d *daemon) bool {
	_, err := get(ctx, "http://"+d.addr+"/v1/healthz")
	return err == nil
}

// converged reports whether a peer sees every fleet member alive in
// gossip and has projected them all into its scheduling fleet.
func converged(ctx context.Context, d *daemon, fleet int) bool {
	var h struct {
		AlivePeers int `json:"alive_peers"`
	}
	if getJSON(ctx, "http://"+d.addr+"/v1/healthz", &h) != nil || h.AlivePeers != fleet {
		return false
	}
	sc, err := scrapeDaemon(ctx, d)
	return err == nil && sc.sum("dsed_cluster_members", nil) == float64(fleet)
}

// scrapeDaemon fetches and parses one daemon's /v1/metricsz.
func scrapeDaemon(ctx context.Context, d *daemon) (scrape, error) {
	body, err := get(ctx, "http://"+d.addr+"/v1/metricsz")
	if err != nil {
		return nil, err
	}
	return parseMetricsz(string(body))
}
