package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricsEndpointCoversStats pins /metrics against a direct DB.Stats
// read: the exposition must carry the store families with the exact
// values Stats reports, plus the HTTP families the middleware maintains,
// under the exposition content type.
func TestMetricsEndpointCoversStats(t *testing.T) {
	db, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"m": sensorData(1200, 1),
	})
	if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=m&from=0&to=1200"); status != http.StatusOK {
		t.Fatalf("query: %d", status)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := readAll(t, resp)

	s := db.Stats()
	pin := func(format string, args ...any) {
		t.Helper()
		line := fmt.Sprintf(format, args...)
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q\n%s", line, out)
		}
	}
	pin("cameo_store_series %d", s.Series)
	pin("cameo_store_samples %d", s.Samples)
	pin("cameo_store_blocks_written_total %d", s.BlocksWritten)
	pin("cameo_store_append_latency_seconds_count %d", s.Appends)
	pin(`cameo_http_requests_total{endpoint="query",status="2xx"} 1`)
	pin(`cameo_http_inflight_requests{endpoint="query"} 0`)
	pin("cameo_http_points_ingested_total 0")
	if !strings.Contains(out, `cameo_http_request_seconds_bucket{endpoint="query",le=`) {
		t.Fatalf("no latency buckets for the query endpoint:\n%s", out)
	}
	// /metrics instruments itself too: this scrape is in flight while the
	// gauge renders.
	pin(`cameo_http_inflight_requests{endpoint="metrics"} 1`)
}

// TestStatuszMatchesMetrics is the anti-drift pin for the two views: both
// render the same gather pass, so a family sampled in the exposition must
// carry the identical value in the statusz JSON (over stable-at-rest
// counters — the store is quiescent between the two fetches).
func TestStatuszMatchesMetrics(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"m": sensorData(900, 2),
	})
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if ct != "application/json" {
		t.Fatalf("/statusz Content-Type = %q", ct)
	}

	snap := statuszServer(t, srv.URL)
	_, expo := httpGet(t, srv.URL+"/metrics")
	for _, family := range []string{"cameo_store_series", "cameo_store_samples", "cameo_store_blocks_written_total"} {
		want := fmt.Sprintf("%s %v\n", family, snap.num(t, family))
		if !strings.Contains(expo, want) {
			t.Fatalf("statusz and /metrics disagree on %s: statusz %v, exposition:\n%s",
				family, snap.num(t, family), expo)
		}
	}
	// The compression core's families: the preload wrote one block, which
	// sensor noise stops at the bound after some pops.
	if n := snap.labeled(t, "cameo_core_blocks_total", `stop="bound"`); n != 1 {
		t.Fatalf("statusz counts %v blocks stopped at the bound, want 1", n)
	}
	for _, stop := range []string{"done", "bound", "ratio", "probe"} {
		labels := fmt.Sprintf("stop=%q", stop)
		want := fmt.Sprintf("cameo_core_blocks_total{%s} %v\n", labels, snap.labeled(t, "cameo_core_blocks_total", labels))
		if !strings.Contains(expo, want) {
			t.Fatalf("statusz and /metrics disagree on cameo_core_blocks_total{%s}:\n%s", labels, expo)
		}
	}
	// Evaluations by path, the sketch one included (zero here: the store's
	// 24 lags are below sketch order's threshold).
	for _, path := range []string{"full", "cached", "sketch"} {
		labels := fmt.Sprintf("path=%q", path)
		n := snap.labeled(t, "cameo_core_evals_total", labels)
		if want := fmt.Sprintf("cameo_core_evals_total{%s} %v\n", labels, n); !strings.Contains(expo, want) {
			t.Fatalf("statusz and /metrics disagree on cameo_core_evals_total{%s}:\n%s", labels, expo)
		}
		if (path == "sketch") != (n == 0) {
			t.Fatalf("statusz counts %v evaluations on path %s", n, path)
		}
	}
	if pops := snap.num(t, "cameo_core_pops_total"); pops == 0 || !strings.Contains(expo, fmt.Sprintf("cameo_core_pops_total %v\n", pops)) {
		t.Fatalf("statusz counts %v pops, exposition:\n%s", pops, expo)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestRequestIDPropagation pins the trace-ID contract: an inbound
// X-Request-Id is honored and echoed back; absent one, the server issues
// an ID; and the finished request's trace appears under that ID in
// /debug/traces with its stage timings.
func TestRequestIDPropagation(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"m": sensorData(600, 3),
	})

	req, err := http.NewRequest("GET", srv.URL+"/api/v1/query?series=m&from=0&to=600", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "upstream-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-42" {
		t.Fatalf("inbound request ID not echoed: got %q", got)
	}

	resp, err = http.Get(srv.URL + "/api/v1/query_agg?series=m&from=0&to=600&step=100")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	issued := resp.Header.Get("X-Request-Id")
	if len(issued) != 16 {
		t.Fatalf("issued request ID %q, want 16 hex chars", issued)
	}

	status, body := httpGet(t, srv.URL+"/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces: %d", status)
	}
	var traces []struct {
		ID       string  `json:"trace_id"`
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		Duration float64 `json:"duration_ms"`
		Stages   []struct {
			Name     string  `json:"name"`
			Duration float64 `json:"duration_ms"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/debug/traces: %v in %s", err, body)
	}
	byID := map[string]int{}
	for i, tr := range traces {
		byID[tr.ID] = i
	}
	i, ok := byID["upstream-42"]
	if !ok {
		t.Fatalf("trace for upstream-42 not in ring: %s", body)
	}
	tr := traces[i]
	if tr.Endpoint != "query" || tr.Status != http.StatusOK {
		t.Fatalf("query trace: %+v", tr)
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"admission", "cursor_open", "resolve", "encode_flush"} {
		if !stages[want] {
			t.Fatalf("query trace missing stage %q: %+v", want, tr.Stages)
		}
	}
	if _, ok := byID[issued]; !ok {
		t.Fatalf("trace for issued ID %q not in ring", issued)
	}
}

// logCapture is a mutex-free io.Writer for the log tests: noteFinished
// serializes writes under the server's own log mutex.
type logCapture struct {
	lines []string
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.lines = append(c.lines, string(p))
	return len(p), nil
}

// logRecord is one parsed access/slow-query log line.
type logRecord struct {
	Log      string  `json:"log"`
	TraceID  string  `json:"trace_id"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	Duration float64 `json:"duration_ms"`
}

// TestAccessLog pins the structured access log: one single-line JSON
// record per request carrying the trace ID, endpoint, status, response
// bytes, and duration.
func TestAccessLog(t *testing.T) {
	cap := &logCapture{}
	_, srv := newTestServer(t, nil, Options{AccessLog: true, LogWriter: cap}, map[string][]float64{
		"m": sensorData(600, 4),
	})
	req, err := http.NewRequest("GET", srv.URL+"/api/v1/query?series=m&from=0&to=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "logged-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=absent&from=0&to=10"); status != http.StatusNotFound {
		t.Fatalf("absent series: %d", status)
	}

	if len(cap.lines) != 2 {
		t.Fatalf("access log lines = %d, want 2: %q", len(cap.lines), cap.lines)
	}
	var rec logRecord
	if err := json.Unmarshal([]byte(cap.lines[0]), &rec); err != nil {
		t.Fatalf("access line: %v in %q", err, cap.lines[0])
	}
	if rec.Log != "access" || rec.TraceID != "logged-1" || rec.Endpoint != "query" ||
		rec.Status != http.StatusOK || rec.Bytes == 0 || rec.Duration <= 0 {
		t.Fatalf("access record: %+v", rec)
	}
	if !strings.HasSuffix(cap.lines[0], "}\n") || strings.Count(cap.lines[0], "\n") != 1 {
		t.Fatalf("access line not single-line JSON: %q", cap.lines[0])
	}
	if err := json.Unmarshal([]byte(cap.lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != http.StatusNotFound {
		t.Fatalf("404 access record: %+v", rec)
	}
}

// TestSlowQueryLogSampling pins the slow-query log knobs: only query
// endpoints over the threshold log, sampled every Nth occurrence, and
// non-query endpoints never do no matter how slow.
func TestSlowQueryLogSampling(t *testing.T) {
	cap := &logCapture{}
	// Threshold 0ns-adjacent: every query is "slow", so sampling is the
	// only filter under test.
	_, srv := newTestServer(t, nil, Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQuerySample:    2,
		LogWriter:          cap,
	}, map[string][]float64{"m": sensorData(600, 5)})

	for i := 0; i < 4; i++ {
		if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=m&from=0&to=600"); status != http.StatusOK {
			t.Fatalf("query %d: %d", i, status)
		}
	}
	// Non-query endpoints are exempt regardless of duration.
	httpGet(t, srv.URL+"/api/v1/series")
	httpGet(t, srv.URL+"/healthz")

	if len(cap.lines) != 2 {
		t.Fatalf("slow-query log lines = %d, want 2 (4 slow queries sampled 1-in-2): %q",
			len(cap.lines), cap.lines)
	}
	for _, line := range cap.lines {
		var rec logRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query line: %v in %q", err, line)
		}
		if rec.Log != "slow_query" || rec.Endpoint != "query" {
			t.Fatalf("slow-query record: %+v", rec)
		}
	}
}

// TestStatusClassCounting pins the status-class mapping: a 404 lands in
// the 4xx counter of its endpoint, not 2xx.
func TestStatusClassCounting(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"m": sensorData(600, 6),
	})
	if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=absent&from=0&to=10"); status != http.StatusNotFound {
		t.Fatalf("absent series: %d", status)
	}
	snap := statuszServer(t, srv.URL)
	if n := snap.labeled(t, "cameo_http_requests_total", `endpoint="query",status="4xx"`); n != 1 {
		t.Fatalf("query 4xx = %v, want 1", n)
	}
	if n := snap.labeled(t, "cameo_http_requests_total", `endpoint="query",status="2xx"`); n != 0 {
		t.Fatalf("query 2xx = %v, want 0", n)
	}
}
