package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /v1/metricsz body, keyed by the series' rendered
// name-and-labels so two scrapes of one daemon line up.
type scrape map[string]series

// parseMetricsz parses the daemon's text exposition. Comment lines are
// skipped; a malformed sample line is an error, since a daemon that
// renders one is itself broken.
func parseMetricsz(text string) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metricsz: no value in %q", line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metricsz: value of %q: %w", key, err)
		}
		s := series{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("metricsz: unterminated labels in %q", key)
			}
			s.name = key[:i]
			if s.labels, err = parseLabels(key[i+1 : len(key)-1]); err != nil {
				return nil, fmt.Errorf("metricsz: %q: %w", key, err)
			}
		}
		out[key] = s
	}
	return out, sc.Err()
}

// parseLabels splits `k="v",k2="v2"`. Label values the daemon writes
// (endpoints, worker URLs, benchmark names) hold no quotes or commas.
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for s != "" {
		k, rest, ok := strings.Cut(s, `="`)
		if !ok {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		v, after, ok := strings.Cut(rest, `"`)
		if !ok {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[k] = v
		s = strings.TrimPrefix(after, ",")
	}
	return out, nil
}

// delta is after minus before, series by series; a series absent before
// counts from zero (the daemon registers some lazily, on first use).
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// sum adds up every series of the family name whose labels include all
// of match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range sc {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
