package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/tsdb"
)

func httpPost(t *testing.T, url, contentType, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(data), resp.Header
}

// TestWriteFormsAndBatching checks both ingest forms land the same data:
// the text form (with and without timestamps, interleaved series,
// comments) and the JSON batch form, each grouped into one Append per
// series.
func TestWriteFormsAndBatching(t *testing.T) {
	db, srv := newTestServer(t, nil, Options{}, nil)

	// Text form: interleaved series, stamped out of line order for "a"
	// (the stamps must reorder it), a comment, and a blank line.
	body := strings.Join([]string{
		"# hourly readings",
		"a 3 30.5",
		"b 1.25",
		"a 1 10.5",
		"",
		"a 2 20.5",
		"b 2.25",
	}, "\n")
	status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", body)
	if status != http.StatusOK {
		t.Fatalf("text write: %d %s", status, resp)
	}
	if !strings.Contains(resp, `"series":2`) || !strings.Contains(resp, `"points":5`) {
		t.Fatalf("write ack = %s", resp)
	}
	got, err := db.Query("a", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10.5 || got[1] != 20.5 || got[2] != 30.5 {
		t.Fatalf("stamped text points out of order: %v", got)
	}
	if got, _ := db.Query("b", 0, 2); len(got) != 2 || got[0] != 1.25 || got[1] != 2.25 {
		t.Fatalf("unstamped text points: %v", got)
	}

	// JSON batch form, including a repeated name that must append in
	// entry order.
	status, resp, _ = httpPost(t, srv.URL+"/api/v1/write", "application/json",
		`{"series":[{"name":"c","values":[1,2]},{"name":"c","values":[3]}]}`)
	if status != http.StatusOK {
		t.Fatalf("json write: %d %s", status, resp)
	}
	if got, _ := db.Query("c", 0, 3); len(got) != 3 || got[2] != 3 {
		t.Fatalf("json batch points: %v", got)
	}
	// Whitespace after the value is still one value.
	if status, resp, _ = httpPost(t, srv.URL+"/api/v1/write", "application/json",
		"{\"series\":[{\"name\":\"c\",\"values\":[4]}]}\r\n\t "); status != http.StatusOK {
		t.Fatalf("json write with trailing whitespace: %d %s", status, resp)
	}

	// Malformed bodies are the caller's fault.
	for name, tc := range map[string]struct{ ct, body string }{
		"empty":        {"text/plain", "\n# nothing\n"},
		"extra-fields": {"text/plain", "a 1 2 3 4"},
		"bad-value":    {"text/plain", "a eleven"},
		"bad-stamp":    {"text/plain", "a 1.5e nope"},
		"bad-json":     {"application/json", `{"series":[`},
		"no-series":    {"application/json", `{"series":[]}`},
		"no-values":    {"application/json", `{"series":[{"name":"x","values":[]}]}`},
		"unknown-key":  {"application/json", `{"metrics":[]}`},
		// A second value after the first is refused, not dropped.
		"two-batches":   {"application/json", `{"series":[{"name":"z","values":[1]}]}{"series":[{"name":"z","values":[2]}]}`},
		"trailing-junk": {"application/json", `{"series":[{"name":"z","values":[1]}]} garbage`},
	} {
		if status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", tc.ct, tc.body); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, status, resp)
		}
	}
	if got, err := db.Query("z", 0, 2); err == nil {
		t.Fatalf("a refused JSON body appended %v", got)
	}
}

// TestIngestBounds pins the two admission controls: an over-long body is
// 413 (request cap), and a body that would push the in-flight ingest
// total past its cap is 429 with a Retry-After hint (backpressure).
func TestIngestBounds(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{MaxRequestBytes: 256}, nil)
	big := strings.Repeat("series-name 1.25\n", 64) // ~1 KiB > 256
	status, _, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", status)
	}
	// With a declared Content-Length the refusal must short-circuit as
	// 413, not 429 — telling the client to retry an over-cap body would
	// have it retry forever.
	req, err := http.NewRequest("POST", srv.URL+"/api/v1/write", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(big))
	req.Header.Set("Content-Type", "text/plain")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversized length: status %d, want 413", httpResp.StatusCode)
	}

	// A single body bigger than the whole in-flight budget can never be
	// admitted: permanent 413, not retry-forever 429.
	_, srv2 := newTestServer(t, nil, Options{MaxInflightIngestBytes: 64}, nil)
	status, resp, _ := httpPost(t, srv2.URL+"/api/v1/write", "text/plain", strings.Repeat("s 1\n", 100))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget-exceeding write: status %d (%s), want 413", status, resp)
	}
	// Small writes still fit under the in-flight cap.
	if status, resp, _ := httpPost(t, srv2.URL+"/api/v1/write", "text/plain", "s 1\ns 2\n"); status != http.StatusOK {
		t.Fatalf("small write after refusal: %d %s", status, resp)
	}
}

// TestIngestBackpressure429 drives the 429 path deterministically: one
// write holds a 40-byte reservation (its body dribbles through a pipe)
// while a second, individually admissible write pushes the in-flight
// total past the cap and must be throttled with Retry-After — then
// succeed once the first completes.
func TestIngestBackpressure429(t *testing.T) {
	db, srv := newTestServer(t, nil, Options{MaxInflightIngestBytes: 64}, nil)

	body := strings.Repeat("s 1\n", 10) // exactly 40 bytes
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", srv.URL+"/api/v1/write", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", "text/plain")
	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			firstDone <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("held write finished with %d", resp.StatusCode)
			return
		}
		firstDone <- nil
	}()

	// Wait until the handler has reserved the held request's bytes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight := statuszServer(t, srv.URL).num(t, "cameo_http_inflight_ingest_bytes")
		if inflight == float64(len(body)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held reservation never appeared (inflight %v)", inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 40 reserved + 40 requested > 64: throttled, with the retry hint.
	status, resp, hdr := httpPost(t, srv.URL+"/api/v1/write", "text/plain", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("write during held reservation: status %d (%s), want 429", status, resp)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Release the held request; the retried write is then admitted.
	if _, err := pw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", body); status != http.StatusOK {
		t.Fatalf("retry after release: %d %s", status, resp)
	}
	if got, err := db.Query("s", 0, 20); err != nil || len(got) != 20 {
		t.Fatalf("both admitted writes should have landed: %d samples, %v", len(got), err)
	}
}

// TestIngestTimeout408 pins the reservation-lifetime bound: a write whose
// body trickles in slower than IngestTimeout is cut off with 408 and its
// in-flight reservation is released, so drip-feeding clients cannot pin
// the ingest budget.
func TestIngestTimeout408(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{IngestTimeout: 150 * time.Millisecond}, nil)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest("POST", srv.URL+"/api/v1/write", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 40
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req) // body never arrives
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body: status %d, want 408", resp.StatusCode)
	}

	// The reservation was released with the request.
	if inflight := statuszServer(t, srv.URL).num(t, "cameo_http_inflight_ingest_bytes"); inflight != 0 {
		t.Fatalf("reservation leaked: %v bytes still in flight", inflight)
	}
}

// TestHostileSeriesNames drives the PR 1 path-traversal fixes through the
// HTTP boundary: names that cannot be store directories ("", ".", "..",
// and the percent-encoded spelling that URL decoding turns into "..")
// must come back 400/404 without any path outside the store root — or
// inside it — being created.
func TestHostileSeriesNames(t *testing.T) {
	root := t.TempDir()
	dir := root + "/store"
	db, err := tsdb.Open(dir, testDBOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := httptest.NewServer(NewHandler(db, Options{}))
	defer srv.Close()

	outside, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"..", "."} {
		status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", name+" 1.5\n")
		if status != http.StatusBadRequest {
			t.Fatalf("write to %q: status %d (%s), want 400", name, status, resp)
		}
	}
	// A batch mixing a valid series with a hostile one is rejected whole:
	// names are validated before the first Append, so the valid series
	// must not have landed a prefix (a retry would duplicate it).
	status0, resp0, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", "good 1.5\n.. 2.5\n")
	if status0 != http.StatusBadRequest {
		t.Fatalf("mixed hostile batch: status %d (%s), want 400", status0, resp0)
	}
	if _, err := db.Query("good", 0, 1); err == nil {
		t.Fatal("valid series of a rejected batch was partially applied")
	}
	// An empty name is not expressible in the line form (it parses as a
	// field-count error, still 400); the JSON form can express it and
	// must hit the store's name validation.
	status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "application/json",
		`{"series":[{"name":"","values":[1.5]}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("write to empty name: status %d (%s), want 400", status, resp)
	}
	status, resp, _ = httpPost(t, srv.URL+"/api/v1/write", "application/json",
		`{"series":[{"name":"..","values":[1.5]}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("JSON write to ..: status %d (%s), want 400", status, resp)
	}

	// On the read side hostile names are simply unknown series: no
	// filesystem path is ever formed from them. %2E%2E decodes to ".."
	// in the query parameter.
	for _, q := range []string{"..", "%2E%2E", "."} {
		if status, _ := httpGet(t, srv.URL+"/api/v1/query?series="+q); status != http.StatusNotFound {
			t.Fatalf("query for %q: status %d, want 404", q, status)
		}
		if status, _ := httpGet(t, srv.URL+"/api/v1/query_agg?series="+q+"&step=4"); status != http.StatusNotFound {
			t.Fatalf("query_agg for %q: status %d, want 404", q, status)
		}
	}

	// A name that merely *contains* dot-dot is legitimate and must land
	// escaped inside the store root.
	if status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", "../evil 4.5\n"); status != http.StatusOK {
		t.Fatalf("write to ../evil: %d %s", status, resp)
	}
	if got, err := db.Query("../evil", 0, 1); err != nil || len(got) != 1 {
		t.Fatalf("round-trip of ../evil: %v, %v", got, err)
	}

	// Nothing appeared outside the store directory, and no hostile
	// directory appeared inside it.
	after, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(outside) {
		t.Fatalf("store root's parent changed: %d entries, was %d", len(after), len(outside))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "..%2Fevil" {
			t.Fatalf("unexpected store entry %q", e.Name())
		}
	}
}

// TestWriteRejectsNonFinite: strconv.ParseFloat accepts "NaN" and "Inf", and
// a lossy store cannot compress them — such a sample used to fail its block
// in the background and wedge every later write. The batch is now answered
// 400 naming the offending line, none of it lands, and the store keeps
// serving; a lossless store takes the same body.
func TestWriteRejectsNonFinite(t *testing.T) {
	db, srv := newTestServer(t, nil, Options{}, map[string][]float64{"a": sensorData(600, 1)})
	for _, bad := range []string{"NaN", "+Inf", "-inf"} {
		body := "b 1.5\na 2.5\n# comment\na " + bad + "\nb 3.5\n"
		status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", body)
		if status != http.StatusBadRequest {
			t.Fatalf("write of %s: status %d (%s), want 400", bad, status, resp)
		}
		if !strings.Contains(resp, "line 4") || !strings.Contains(resp, `"a"`) {
			t.Fatalf("write of %s: response %q does not name line 4 of series a", bad, resp)
		}
	}
	if _, err := db.Query("b", 0, 1); err == nil {
		t.Fatal("a series of a rejected batch was partially applied")
	}
	if got, err := db.Query("a", 0, 1000); err != nil || len(got) != 600 {
		t.Fatalf("a after the rejected writes: %d samples, %v; want its 600", len(got), err)
	}
	var sb strings.Builder
	for i, v := range sensorData(600, 2) {
		fmt.Fprintf(&sb, "%s %v\n", []string{"a", "b"}[i%2], v)
	}
	if status, resp, _ := httpPost(t, srv.URL+"/api/v1/write", "text/plain", sb.String()); status != http.StatusOK {
		t.Fatalf("write after the rejected ones: %d %s", status, resp)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after the rejected writes: %v", err)
	}

	_, lossless := newTestServer(t, codec.Gorilla{}, Options{}, nil)
	if status, resp, _ := httpPost(t, lossless.URL+"/api/v1/write", "text/plain", "a 1.5\na NaN\na +Inf\n"); status != http.StatusOK {
		t.Fatalf("NaN write to a gorilla store: %d %s", status, resp)
	}
}

// FuzzParseLineBatch checks the line parser against a plain model of the
// text form: it never panics; a parsed batch holds one point per data line
// and, per series in order of first appearance, the ParseFloat of each
// value token stably sorted by timestamp; a refusal names the first bad
// line, or says there was no data line at all.
func FuzzParseLineBatch(f *testing.F) {
	for _, s := range []string{
		"a 1.5\nb 2.5\n",
		"# c\n\na 3 30.5\nb 1.25\na 1 10.5\na 2 20.5\n",
		"a 1 2 3 4",
		"a eleven",
		"a 1.5e nope",
		"a NaN\na -Inf\r\n a\t+Inf ",
		"a 9223372036854775808 1\n",
		"x 2 1\nx 1 2\nx 2 3\nx 1 4",
		"\n# nothing\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		type point struct {
			stamp int64
			value float64
		}
		var order []string
		want := map[string][]point{}
		dataLines, firstBad := 0, 0
		for i, line := range strings.Split(body, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0][0] == '#' {
				continue
			}
			dataLines++
			stamp, err := int64(i+1), error(nil)
			if len(fields) == 3 {
				stamp, err = strconv.ParseInt(fields[1], 10, 64)
			}
			value, verr := strconv.ParseFloat(fields[len(fields)-1], 64)
			if len(fields) > 3 || len(fields) < 2 || err != nil || verr != nil {
				if firstBad == 0 {
					firstBad = i + 1
				}
				continue
			}
			if _, ok := want[fields[0]]; !ok {
				order = append(order, fields[0])
			}
			want[fields[0]] = append(want[fields[0]], point{stamp, value})
		}

		batches, err := parseLineBatch([]byte(body))
		if err != nil {
			wantMsg := fmt.Sprintf("line %d: ", firstBad)
			if firstBad == 0 {
				wantMsg = "empty write"
			}
			if !strings.HasPrefix(err.Error(), wantMsg) {
				t.Fatalf("error %q, want it to start with %q", err, wantMsg)
			}
			return
		}
		if firstBad != 0 {
			t.Fatalf("accepted a body whose line %d is bad", firstBad)
		}
		points := 0
		for _, b := range batches {
			points += len(b.values)
		}
		if points != dataLines || len(batches) != len(order) {
			t.Fatalf("%d points in %d series, want %d in %d", points, len(batches), dataLines, len(order))
		}
		for i, b := range batches {
			if b.name != order[i] {
				t.Fatalf("series %d is %q, want %q", i, b.name, order[i])
			}
			pts := want[b.name]
			sort.SliceStable(pts, func(i, j int) bool { return pts[i].stamp < pts[j].stamp })
			for j, p := range pts {
				if math.Float64bits(b.values[j]) != math.Float64bits(p.value) {
					t.Fatalf("series %q value %d = %v, want %v", b.name, j, b.values[j], p.value)
				}
			}
		}
	})
}
