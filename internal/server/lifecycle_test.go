package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

func httpDelete(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("DELETE %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// statuszView is the parsed flat /statusz object: one key per metric
// family, numbers for unlabeled scalars, nested objects keyed by
// rendered label set for labeled families.
type statuszView map[string]json.RawMessage

// statuszServer fetches /statusz and parses the flat family map.
func statuszServer(t *testing.T, base string) statuszView {
	t.Helper()
	status, body := httpGet(t, base+"/statusz")
	if status != http.StatusOK {
		t.Fatalf("statusz: %d", status)
	}
	var v statuszView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("statusz: %v in %s", err, body)
	}
	return v
}

// num returns an unlabeled scalar family's value.
func (v statuszView) num(t *testing.T, family string) float64 {
	t.Helper()
	raw, ok := v[family]
	if !ok {
		t.Fatalf("statusz: family %q absent", family)
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("statusz: family %q not a number: %s", family, raw)
	}
	return f
}

// labeled returns one child of a labeled scalar family by its rendered
// label set (e.g. `endpoint="write",status="2xx"`).
func (v statuszView) labeled(t *testing.T, family, labels string) float64 {
	t.Helper()
	raw, ok := v[family]
	if !ok {
		t.Fatalf("statusz: family %q absent", family)
	}
	var children map[string]float64
	if err := json.Unmarshal(raw, &children); err != nil {
		t.Fatalf("statusz: family %q not a labeled object: %s", family, raw)
	}
	f, ok := children[labels]
	if !ok {
		t.Fatalf("statusz: family %q has no child {%s}: %s", family, labels, raw)
	}
	return f
}

// TestDeleteSeriesEndpoint covers the admin surface: DELETE drops exactly
// the named series, answers 404 for unknown names (including the one just
// deleted), and the counters move.
func TestDeleteSeriesEndpoint(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"keep": sensorData(600, 1), "drop": sensorData(700, 2),
	})

	if status, body := httpDelete(t, srv.URL+"/api/v1/series"); status != http.StatusBadRequest {
		t.Fatalf("missing series param: %d (%s), want 400", status, body)
	}
	if status, body := httpDelete(t, srv.URL+"/api/v1/series?series=nope"); status != http.StatusNotFound {
		t.Fatalf("unknown series: %d (%s), want 404", status, body)
	}
	if status, body := httpDelete(t, srv.URL+"/api/v1/series?series=drop"); status != http.StatusNoContent {
		t.Fatalf("delete: %d (%s), want 204", status, body)
	}
	// The dropped series is gone from the listing and from queries; the
	// survivor still answers.
	status, body := httpGet(t, srv.URL+"/api/v1/series")
	if status != http.StatusOK {
		t.Fatalf("series: %d", status)
	}
	var names []string
	if err := json.Unmarshal([]byte(body), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("series after delete = %v, want [keep]", names)
	}
	if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=drop&from=0&to=100"); status != http.StatusNotFound {
		t.Fatalf("query of deleted series: %d, want 404", status)
	}
	if status, _ := httpGet(t, srv.URL+"/api/v1/query?series=keep&from=0&to=100"); status != http.StatusOK {
		t.Fatalf("query of surviving series: %d, want 200", status)
	}
	// Deleting twice is a 404, not a vacuous success.
	if status, _ := httpDelete(t, srv.URL+"/api/v1/series?series=drop"); status != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", status)
	}
	if n := statuszServer(t, srv.URL).num(t, "cameo_http_series_deletes_total"); n != 1 {
		t.Fatalf("series deletes = %v, want 1", n)
	}
}

// TestQueryStreamStartsAtTrimBase is the regression for chunk labelling
// on a retention-trimmed store: a from=0 query clamps to the trim base,
// and the NDJSON start indices must name the samples actually returned —
// not relabel the retained suffix as starting at 0.
func TestQueryStreamStartsAtTrimBase(t *testing.T) {
	opt := testDBOptions(nil)
	opt.Workers = -1
	opt.Retention = 1024
	db, err := tsdb.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("s", sensorData(4096, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(db, Options{}))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	status, body := httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=4096")
	if status != http.StatusOK {
		t.Fatalf("query: %d", status)
	}
	const base = 4096 - 1024
	got := parseNDJSON(t, body, base) // fails unless chunks are contiguous from base
	if len(got) != 1024 {
		t.Fatalf("trimmed-store query returned %d samples, want 1024", len(got))
	}
	// CSV rows must carry the same re-anchored indices.
	status, body = httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=4096&format=csv")
	if status != http.StatusOK {
		t.Fatalf("csv query: %d", status)
	}
	if got := parseCSV(t, body, base); len(got) != 1024 {
		t.Fatalf("csv trimmed-store query returned %d samples, want 1024", len(got))
	}
}

// TestQueryAbortedCounter is the regression for the silently-dropped
// client: a streaming query whose reader disconnects mid-body must bump
// query_aborted rather than vanish without an operator-visible trace.
func TestQueryAbortedCounter(t *testing.T) {
	// Enough samples that the NDJSON body (~19 bytes/sample) dwarfs the
	// response buffers of net/http and the kernel, so the handler is
	// still writing when the client hangs up.
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"s": sensorData(1<<18, 3),
	})
	if n := statuszServer(t, srv.URL).num(t, "cameo_http_query_aborted_total"); n != 0 {
		t.Fatalf("query aborted = %v before any abort", n)
	}
	resp, err := http.Get(srv.URL + "/api/v1/query?series=s&from=0&to=999999999")
	if err != nil {
		t.Fatal(err)
	}
	// Read one buffer's worth to be sure streaming started, then hang up.
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatalf("reading stream prefix: %v", err)
	}
	resp.Body.Close()
	// The handler notices the dead connection on its next write/flush;
	// poll statusz until the abort lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := statuszServer(t, srv.URL).num(t, "cameo_http_query_aborted_total"); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query_aborted never incremented after mid-stream disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The connection-level failure path must not have been double-counted
	// as a request failure elsewhere: a fresh, fully-read query still works.
	status, body := httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=512")
	if status != http.StatusOK {
		t.Fatalf("follow-up query: %d", status)
	}
	if got := parseNDJSON(t, body, 0); len(got) != 512 {
		t.Fatalf("follow-up query returned %d samples, want 512", len(got))
	}
}

// goneClient is a ResponseWriter whose client has hung up: every body
// write fails.
type goneClient struct{ header http.Header }

func (w *goneClient) Header() http.Header       { return w.header }
func (w *goneClient) WriteHeader(int)           {}
func (w *goneClient) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestQueryAbortCountedOnWriteFailure drives every query handler — raw,
// aggregate, and both batch forms — against a writer that always fails:
// each request must count exactly one abort.
func TestQueryAbortCountedOnWriteFailure(t *testing.T) {
	db, _ := newTestServer(t, nil, Options{}, map[string][]float64{"s": sensorData(2048, 4)})
	s := NewHandler(db, Options{}).(*Server)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/api/v1/query?series=s&from=0&to=1024", ""},
		{http.MethodGet, "/api/v1/query?series=s&from=0&to=1024&format=csv", ""},
		{http.MethodGet, "/api/v1/query_agg?series=s&from=0&to=1024&step=64", ""},
		{http.MethodPost, "/api/v1/query", `{"series":["s","s"],"from":0,"to":1024}`},
		{http.MethodPost, "/api/v1/query_agg", `{"series":["s","s"],"step":64}`},
	} {
		before := s.queryAborted.Load()
		s.ServeHTTP(&goneClient{header: http.Header{}}, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if got := s.queryAborted.Load() - before; got != 1 {
			t.Errorf("%s %s: %d aborts counted, want 1", tc.method, tc.target, got)
		}
	}
}
