package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/series"
)

// batchSection is one series' reassembled section of a batch NDJSON
// response: the concatenated chunk values, the start of the first chunk,
// or the in-body error.
type batchSection struct {
	Series string
	Start  int
	Values []float64
	Err    string
}

// parseBatchNDJSON reassembles a POST /api/v1/query response: lines for
// the same series arriving back to back collapse into one section, chunk
// starts must be contiguous, and section order is preserved.
func parseBatchNDJSON(t *testing.T, body string) []batchSection {
	t.Helper()
	var out []batchSection
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Series string    `json:"series"`
			Start  *int      `json:"start"`
			Values []float64 `json:"values"`
			Error  string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			out = append(out, batchSection{Series: line.Series, Err: line.Error})
			continue
		}
		if line.Start == nil {
			t.Fatalf("line without start or error: %q", sc.Text())
		}
		if n := len(out); n > 0 && out[n-1].Series == line.Series && out[n-1].Err == "" &&
			out[n-1].Start+len(out[n-1].Values) == *line.Start {
			out[n-1].Values = append(out[n-1].Values, line.Values...)
			continue
		}
		out = append(out, batchSection{Series: line.Series, Start: *line.Start, Values: line.Values})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchQueryMatchesSingle is the HTTP half of the fan-out
// differential: one POST /api/v1/query over several series — an unknown
// one and a duplicate included — must deliver, per section and in
// request order, exactly the samples the store's sequential Query
// returns, with the unknown series as an in-body error line and the
// overall status still 200.
func TestBatchQueryMatchesSingle(t *testing.T) {
	fill := map[string][]float64{
		"a": sensorData(1300, 1),
		"b": sensorData(700, 2),
		"c": sensorData(90, 3),
	}
	db, srv := newTestServer(t, nil, Options{}, fill)
	names := []string{"b", "nope", "a", "b", "c"}
	body, _ := json.Marshal(map[string]any{"series": names})
	status, resp, hdr := httpPost(t, srv.URL+"/api/v1/query", "application/json", string(body))
	if status != http.StatusOK {
		t.Fatalf("batch query: %d: %s", status, resp)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sections := parseBatchNDJSON(t, resp)
	if len(sections) != len(names) {
		t.Fatalf("%d sections for %d requested series", len(sections), len(names))
	}
	for i, name := range names {
		sec := sections[i]
		if sec.Series != name {
			t.Fatalf("section %d is %q, want %q (request order)", i, sec.Series, name)
		}
		if name == "nope" {
			if sec.Err == "" {
				t.Fatalf("unknown series produced no error line: %+v", sec)
			}
			continue
		}
		if sec.Err != "" {
			t.Fatalf("section %q: %s", name, sec.Err)
		}
		want, err := db.Query(name, 0, len(fill[name]))
		if err != nil {
			t.Fatal(err)
		}
		if sec.Start != 0 || len(sec.Values) != len(want) {
			t.Fatalf("section %q: start %d, %d samples, want 0, %d", name, sec.Start, len(sec.Values), len(want))
		}
		for j := range want {
			if sec.Values[j] != want[j] {
				t.Fatalf("section %q: sample %d = %v, want %v", name, j, sec.Values[j], want[j])
			}
		}
	}
	if n := statuszServer(t, srv.URL).labeled(t, "cameo_http_requests_total", `endpoint="query_multi",status="2xx"`); n != 1 {
		t.Fatalf("query_multi 2xx requests = %v, want 1", n)
	}
}

// TestBatchQueryRangeAndEmptySection pins the explicit-range form and
// the empty-section contract: a series whose retained range misses the
// window still yields exactly one line, with empty values.
func TestBatchQueryRangeAndEmptySection(t *testing.T) {
	fill := map[string][]float64{
		"long":  sensorData(1200, 4),
		"short": sensorData(50, 5),
	}
	db, srv := newTestServer(t, nil, Options{}, fill)
	body := `{"series":["long","short"],"from":600,"to":900}`
	status, resp, _ := httpPost(t, srv.URL+"/api/v1/query", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("batch query: %d: %s", status, resp)
	}
	sections := parseBatchNDJSON(t, resp)
	if len(sections) != 2 {
		t.Fatalf("%d sections, want 2", len(sections))
	}
	want, err := db.Query("long", 600, 900)
	if err != nil {
		t.Fatal(err)
	}
	if sections[0].Start != 600 || len(sections[0].Values) != len(want) {
		t.Fatalf("long section: start %d len %d, want 600 len %d", sections[0].Start, len(sections[0].Values), len(want))
	}
	for j := range want {
		if sections[0].Values[j] != want[j] {
			t.Fatalf("long section sample %d = %v, want %v", j, sections[0].Values[j], want[j])
		}
	}
	// "short" has 50 samples: the [600, 900) window clamps to nothing,
	// but the section line must still be there.
	if sections[1].Series != "short" || sections[1].Err != "" || len(sections[1].Values) != 0 {
		t.Fatalf("short section = %+v, want empty values", sections[1])
	}
}

// TestBatchQueryValidation covers the request-level refusals: malformed
// JSON, data after the JSON value, an empty series list, and an inverted
// range are 400s; a body past MaxRequestBytes is a 413. None of them
// reach the store.
func TestBatchQueryValidation(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{MaxRequestBytes: 256}, map[string][]float64{
		"a": sensorData(100, 6),
	})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"series":`, http.StatusBadRequest},
		{"empty series list", `{"series":[]}`, http.StatusBadRequest},
		{"inverted range", `{"series":["a"],"from":9,"to":3}`, http.StatusBadRequest},
		{"second value", `{"series":["a"],"step":4}{"series":["a"],"step":4}`, http.StatusBadRequest},
		{"trailing junk", `{"series":["a"],"step":4} garbage`, http.StatusBadRequest},
		{"oversized body", `{"series":["` + strings.Repeat("x", 400) + `"]}`, http.StatusRequestEntityTooLarge},
	} {
		for _, ep := range []string{"/api/v1/query", "/api/v1/query_agg"} {
			status, body, _ := httpPost(t, srv.URL+ep, "application/json", tc.body)
			if status != tc.status {
				t.Fatalf("%s %s: %d (%s), want %d", tc.name, ep, status, strings.TrimSpace(body), tc.status)
			}
		}
	}
	// Aggregate-only refusals: a missing/zero step and an unknown aggfn.
	for _, body := range []string{
		`{"series":["a"]}`,
		`{"series":["a"],"step":24,"aggfn":"median"}`,
	} {
		status, resp, _ := httpPost(t, srv.URL+"/api/v1/query_agg", "application/json", body)
		if status != http.StatusBadRequest {
			t.Fatalf("query_agg %s: %d (%s), want 400", body, status, strings.TrimSpace(resp))
		}
	}
}

// TestBatchQueryAggMatchesSingle checks POST /api/v1/query_agg: one line
// per series in request order, values matching the store's QueryAgg, and
// an in-body error line for the unknown series.
func TestBatchQueryAggMatchesSingle(t *testing.T) {
	fill := map[string][]float64{
		"a": sensorData(1300, 7),
		"b": sensorData(700, 8),
	}
	db, srv := newTestServer(t, nil, Options{}, fill)
	names := []string{"a", "nope", "b"}
	body := `{"series":["a","nope","b"],"from":0,"to":696,"step":24,"aggfn":"max"}`
	status, resp, _ := httpPost(t, srv.URL+"/api/v1/query_agg", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("batch agg: %d: %s", status, resp)
	}
	lines := strings.Split(strings.TrimSpace(resp), "\n")
	if len(lines) != len(names) {
		t.Fatalf("%d lines for %d series", len(lines), len(names))
	}
	for i, name := range names {
		var line struct {
			Series string    `json:"series"`
			Step   int       `json:"step"`
			AggFn  string    `json:"aggfn"`
			Values []float64 `json:"values"`
			Error  string    `json:"error"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("line %d %q: %v", i, lines[i], err)
		}
		if line.Series != name {
			t.Fatalf("line %d is %q, want %q", i, line.Series, name)
		}
		if name == "nope" {
			if line.Error == "" {
				t.Fatalf("unknown series line carries no error: %q", lines[i])
			}
			continue
		}
		if line.Error != "" || line.Step != 24 || line.AggFn != "max" {
			t.Fatalf("line %d = %q", i, lines[i])
		}
		want, err := db.QueryAgg(name, 0, 696, 24, parseAggMust(t, "max"))
		if err != nil {
			t.Fatal(err)
		}
		if len(line.Values) != len(want) {
			t.Fatalf("%q: %d windows, want %d", name, len(line.Values), len(want))
		}
		for j := range want {
			if line.Values[j] != want[j] {
				t.Fatalf("%q window %d = %v, want %v", name, j, line.Values[j], want[j])
			}
		}
	}
	if n := statuszServer(t, srv.URL).labeled(t, "cameo_http_requests_total", `endpoint="query_agg_multi",status="2xx"`); n != 1 {
		t.Fatalf("query_agg_multi 2xx requests = %v, want 1", n)
	}
}

func parseAggMust(t *testing.T, name string) series.AggFunc {
	t.Helper()
	f, err := parseAggFunc(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBatchQueryStreamsChunks checks the O(chunk·fanout) streaming
// contract indirectly: a multi-block section arrives as several chunk
// lines with contiguous starts, not one giant line per series.
func TestBatchQueryStreamsChunks(t *testing.T) {
	fill := map[string][]float64{"a": sensorData(4*512+37, 9)}
	_, srv := newTestServer(t, nil, Options{}, fill)
	status, resp, _ := httpPost(t, srv.URL+"/api/v1/query", "application/json", `{"series":["a"]}`)
	if status != http.StatusOK {
		t.Fatalf("batch query: %d", status)
	}
	lines := strings.Count(strings.TrimSpace(resp), "\n") + 1
	if lines < 4 {
		t.Fatalf("4-block series answered in %d chunk lines, want several (chunked streaming)", lines)
	}
	sections := parseBatchNDJSON(t, resp)
	if len(sections) != 1 || len(sections[0].Values) != len(fill["a"]) {
		t.Fatalf("reassembly: %d sections, %d samples", len(sections), len(sections[0].Values))
	}
}
