// Command benchjson converts `go test -bench` text output (stdin) into
// a JSON benchmark summary (stdout) — the format of the committed
// BENCH_PR<N>.json baselines and of CI's bench-snapshot artifact, so
// successive runs build a queryable perf trajectory instead of a pile of
// logs.
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson > BENCH.json
//
// With -compare it becomes CI's perf regression gate, diffing two
// summaries and failing (exit 1) when a benchmark got slower than the
// tolerance allows:
//
//	benchjson -compare -tolerance 25 -bench 'ExploreSweep|PredictBatch' old.json new.json
//
// ns/op regresses when new > old·(1+tol/100); rate units (anything
// ending in "/s", e.g. designs/s — higher is better) regress when
// new < old·(1−tol/100). allocs/op is gated exactly on zero-allocation
// benchmarks: one whose old summary reports 0 allocs/op regresses when
// the new one reports any (both sides need -benchmem). A gated
// benchmark missing from the new summary is a regression too: the gate
// must not pass by deletion. Summaries parsed under different Go
// versions are compared with a warning.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	// Mem reports that the line carried -benchmem's columns, so a zero
	// AllocsOp was measured rather than left out.
	Mem bool `json:"benchmem,omitempty"`
	// Extra holds any custom unit the benchmark reported via
	// b.ReportMetric (e.g. designs/s), keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Summary is the artifact envelope.
type Summary struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Commit     string      `json:"commit,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two summaries (old.json new.json) instead of parsing stdin")
	tolerance := flag.Float64("tolerance", 25, "allowed regression in percent before -compare fails")
	bench := flag.String("bench", "", "regexp restricting which benchmarks -compare gates (default all)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two summaries: old.json new.json")
			os.Exit(2)
		}
		re, err := compileBenchFilter(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), *tolerance, re, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	summary, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	summary.Commit = os.Getenv("GITHUB_SHA")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func compileBenchFilter(expr string) (*regexp.Regexp, error) {
	if expr == "" {
		return nil, nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("bad -bench filter: %w", err)
	}
	return re, nil
}

func compareFiles(oldPath, newPath string, tolerance float64, filter *regexp.Regexp, w io.Writer) (bool, error) {
	oldSum, err := readSummary(oldPath)
	if err != nil {
		return false, err
	}
	newSum, err := readSummary(newPath)
	if err != nil {
		return false, err
	}
	return compareSummaries(oldSum, newSum, tolerance, filter, w)
}

func readSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// stripProcs drops the trailing "-N" GOMAXPROCS suffix from a benchmark
// name, so a baseline recorded on an 8-way box still keys against a run
// on a 4-way CI runner.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// best folds a summary into per-benchmark best observations keyed by
// package/name (GOMAXPROCS suffix stripped): minimal ns/op and maximal
// rates. CI benchmarks run few iterations, so the most favourable of
// repeated lines damps scheduler noise without hiding a real regression
// (a true slowdown moves every repetition).
func best(s *Summary, filter *regexp.Regexp) map[string]Benchmark {
	out := make(map[string]Benchmark)
	for _, b := range s.Benchmarks {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		key := b.Package + "/" + stripProcs(b.Name)
		have, ok := out[key]
		if !ok {
			cp := b
			cp.Extra = make(map[string]float64, len(b.Extra))
			for unit, v := range b.Extra {
				cp.Extra[unit] = v
			}
			out[key] = cp
			continue
		}
		if b.NsPerOp > 0 && (have.NsPerOp == 0 || b.NsPerOp < have.NsPerOp) {
			have.NsPerOp = b.NsPerOp
		}
		if b.Mem && (!have.Mem || b.AllocsOp < have.AllocsOp) {
			have.Mem, have.AllocsOp = true, b.AllocsOp
		}
		for unit, v := range b.Extra {
			if strings.HasSuffix(unit, "/s") && v > have.Extra[unit] {
				have.Extra[unit] = v
			}
		}
		out[key] = have
	}
	return out
}

// compareSummaries is the gate: it reports every gated metric, flags the
// ones outside tolerance, and returns whether anything regressed.
func compareSummaries(oldSum, newSum *Summary, tolerance float64, filter *regexp.Regexp, w io.Writer) (bool, error) {
	oldBest, newBest := best(oldSum, filter), best(newSum, filter)
	if len(oldBest) == 0 {
		return false, fmt.Errorf("no benchmarks to gate in the old summary (filter too narrow?)")
	}
	keys := make([]string, 0, len(oldBest))
	for k := range oldBest {
		keys = append(keys, k)
	}
	sortStrings(keys)
	regressed := false
	fail := func(format string, args ...any) {
		regressed = true
		fmt.Fprintf(w, "REGRESSION: "+format+"\n", args...)
	}
	if oldSum.GoVersion != newSum.GoVersion {
		fmt.Fprintf(w, "WARNING: go_version differs (old %s, new %s): the toolchain may account for part of any difference\n", oldSum.GoVersion, newSum.GoVersion)
	}
	for _, key := range keys {
		ob := oldBest[key]
		nb, ok := newBest[key]
		if !ok {
			fail("%s: present in old summary, missing from new", key)
			continue
		}
		if ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			limit := ob.NsPerOp * (1 + tolerance/100)
			if nb.NsPerOp > limit {
				fail("%s: %.0f ns/op, was %.0f (limit %.0f at %+.0f%%)", key, nb.NsPerOp, ob.NsPerOp, limit, tolerance)
			} else {
				fmt.Fprintf(w, "ok: %s: %.0f ns/op, was %.0f\n", key, nb.NsPerOp, ob.NsPerOp)
			}
		}
		if ob.Mem && ob.AllocsOp == 0 && nb.Mem {
			if nb.AllocsOp > 0 {
				fail("%s: %.0f allocs/op, was 0 (zero-allocation benchmarks are gated exactly)", key, nb.AllocsOp)
			} else {
				fmt.Fprintf(w, "ok: %s: 0 allocs/op\n", key)
			}
		}
		for unit, ov := range ob.Extra {
			if !strings.HasSuffix(unit, "/s") || ov <= 0 {
				continue
			}
			nv := nb.Extra[unit]
			limit := ov * (1 - tolerance/100)
			if nv < limit {
				fail("%s: %.0f %s, was %.0f (limit %.0f at -%.0f%%)", key, nv, unit, ov, limit, tolerance)
			} else {
				fmt.Fprintf(w, "ok: %s: %.0f %s, was %.0f\n", key, nv, unit, ov)
			}
		}
	}
	return regressed, nil
}

// sortStrings is an insertion sort: the gate handles a handful of
// benchmarks and the tool avoids importing sort for one call site.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// parse walks the interleaved `go test -bench` output: "pkg:" lines set
// the current package, "Benchmark..." lines carry results as
// value/unit pairs.
func parse(r io.Reader) (*Summary, error) {
	s := &Summary{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		s.Benchmarks = append(s.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Benchmarks == nil {
		s.Benchmarks = []Benchmark{}
	}
	return s, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkParetoFrontier-8  120  9876543 ns/op  4096 B/op  12 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = value
		case "B/op":
			b.BytesPerOp, b.Mem = value, true
		case "allocs/op":
			b.AllocsOp, b.Mem = value, true
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = value
		}
	}
	return b, true
}
