package main

import "testing"

const scrapeBefore = `# HELP dsed_http_requests_total Requests by endpoint and status code.
# TYPE dsed_http_requests_total counter
dsed_http_requests_total{endpoint="/v1/pareto",code="202"} 4
dsed_http_requests_total{endpoint="/v1/jobs/{id}/stream",code="200"} 4
# TYPE dsed_cluster_members gauge
dsed_cluster_members 2
# TYPE dsed_registry_train_ms histogram
dsed_registry_train_ms_bucket{benchmark="gcc",le="+Inf"} 1
dsed_registry_train_ms_sum{benchmark="gcc"} 1085.298
dsed_registry_train_ms_count{benchmark="gcc"} 1
`

const scrapeAfter = `dsed_http_requests_total{endpoint="/v1/pareto",code="202"} 10
dsed_http_requests_total{endpoint="/v1/pareto",code="429"} 1
dsed_http_requests_total{endpoint="/v1/jobs/{id}/stream",code="200"} 9
dsed_cluster_members 2
dsed_cluster_shards_total{worker="http://127.0.0.1:9401"} 240
dsed_registry_train_ms_sum{benchmark="gcc"} 1085.298
dsed_registry_train_ms_count{benchmark="gcc"} 1
`

func TestMetricszDelta(t *testing.T) {
	before, err := parseMetricsz(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetricsz(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	checks := []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"dsed_http_requests_total", map[string]string{"endpoint": "/v1/pareto"}, 7}, // 6 more 202s, a new 429
		{"dsed_http_requests_total", map[string]string{"endpoint": "/v1/pareto", "code": "202"}, 6},
		{"dsed_http_requests_total", map[string]string{"endpoint": "/v1/jobs/{id}/stream"}, 5},
		{"dsed_http_requests_total", nil, 12},
		{"dsed_cluster_members", nil, 0},
		{"dsed_cluster_shards_total", nil, 240}, // registered mid-phase: counts from zero
		{"dsed_registry_train_ms_sum", map[string]string{"benchmark": "gcc"}, 0},
	}
	for _, c := range checks {
		if got := d.sum(c.name, c.match); got != c.want {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if got := before.sum("dsed_registry_train_ms_sum", map[string]string{"benchmark": "gcc"}); got != 1085.298 {
		t.Errorf("histogram sum = %v, want 1085.298", got)
	}
}

func TestMetricszRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"dsed_x{endpoint=\"/v1\" 3",
		"dsed_x{endpoint} 3",
		"dsed_x notanumber",
		"dsed_x",
	} {
		if _, err := parseMetricsz(bad); err == nil {
			t.Errorf("parseMetricsz(%q) accepted a malformed line", bad)
		}
	}
}
