package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// fleet is one booted workload topology: one daemon, or peers that
// reach each other only through the benchmark's counting forwarders.
type fleet struct {
	p       *procs
	daemons []*daemon
	fwds    []*forwarder
	// setup is spawn → ready: every model trained and, on a fleet, every
	// peer converged; converge is its last part, from the last peer
	// answering until gossip and scheduling both list every peer.
	setup    time.Duration
	converge time.Duration
}

// entry is the address the workload's clients submit to.
func (f *fleet) entry() string { return f.daemons[0].addr }

// daemonFlags are the flags every daemon of workload w runs with.
func daemonFlags(w workload) []string {
	flags := append([]string{"-quiet", "-benchmarks", strings.Join(w.benchmarks, ",")}, specFlags()...)
	if w.peers > 1 {
		// Two peers at -parallel 1 use the two cores; a fixed shard size
		// and no hedging make shard and dispatch counts a function of the
		// request, not of the scheduler. A quarter-second gossip round
		// bounds how much convergence adds to setup_s.
		flags = append(flags, "-parallel", "1", "-replicate", "1", "-hedge-factor", "0", "-heartbeat", "250ms")
	}
	return flags
}

// boot starts workload w's daemons on fresh ports with fresh, empty
// model dirs under work, and waits until they are ready.
func boot(ctx context.Context, p *procs, w workload, work string) (f *fleet, err error) {
	f = &fleet{p: p}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	addrs := make([]string, w.peers)
	for i := range addrs {
		if addrs[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	var peerList []string
	if w.peers > 1 {
		for _, a := range addrs {
			fw, err := startForwarder(a)
			if err != nil {
				return nil, err
			}
			f.fwds = append(f.fwds, fw)
			peerList = append(peerList, fw.Addr())
		}
	}
	start := time.Now()
	for i, a := range addrs {
		dir, err := os.MkdirTemp(work, "models-")
		if err != nil {
			return nil, err
		}
		args := append([]string{"-addr", a, "-model-dir", dir}, daemonFlags(w)...)
		if w.peers > 1 {
			args = append(args, "-advertise", peerList[i], "-peers", strings.Join(peerList, ","))
		}
		d, err := p.spawn(filepath.Join(work, "dsed"), args, a, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := waitUntil(ctx, d, "models", func() bool { return healthy(ctx, d) }); err != nil {
			return nil, err
		}
	}
	if w.peers > 1 {
		answered := time.Now()
		for _, d := range f.daemons {
			if err := waitUntil(ctx, d, "gossip convergence", func() bool { return converged(ctx, d, w.peers) }); err != nil {
				return nil, err
			}
		}
		f.converge = time.Since(answered)
	}
	f.setup = time.Since(start)
	return f, nil
}

// peakRSSMB sums the daemons' peak resident sets.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("daemon %s: %w", d.addr, err)
		}
		total += mb
	}
	return total, nil
}

// forwarded sums the forwarders' byte counters, per traffic class.
func (f *fleet) forwarded() (out [numClasses]int64) {
	for _, fw := range f.fwds {
		for c := range out {
			out[c] += fw.Bytes(c)
		}
	}
	return out
}

// scrapeAll fetches every daemon's /v1/metricsz.
func (f *fleet) scrapeAll(ctx context.Context) ([]scrape, error) {
	out := make([]scrape, len(f.daemons))
	for i, d := range f.daemons {
		sc, err := scrapeDaemon(ctx, d)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// stop reaps the daemons, then the forwarders.
func (f *fleet) stop() {
	for _, d := range f.daemons {
		f.p.stop(d)
	}
	for _, fw := range f.fwds {
		fw.Close()
	}
}
