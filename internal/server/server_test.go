package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tsdb"
)

// testCodecs enumerates one encode-capable instance of every registered
// codec, mirroring the tsdb read-path differentials: the HTTP layer must
// be transparent for all of them.
func testCodecs() map[string]codec.Codec {
	return map[string]codec.Codec{
		"cameo":    codec.NewCAMEO(core.Options{Lags: 24, Epsilon: 0.05}),
		"gorilla":  codec.Gorilla{},
		"chimp":    codec.Chimp{},
		"elf":      codec.Elf{},
		"pmc":      codec.PMC{},
		"swing":    codec.Swing{},
		"simpiece": codec.SimPiece{},
	}
}

func testDBOptions(c codec.Codec) tsdb.Options {
	return tsdb.Options{
		Compression: core.Options{Lags: 24, Epsilon: 0.05},
		BlockSize:   512,
		Codec:       c,
		Shards:      4,
		Workers:     2,
		CacheBlocks: 16,
	}
}

func sensorData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/24) + 0.5*rng.NormFloat64()
	}
	return xs
}

// newTestServer opens a store, fills one series, and fronts it with an
// httptest server. The caller gets both ends for differential checks.
func newTestServer(t *testing.T, c codec.Codec, opt Options, fill map[string][]float64) (*tsdb.DB, *httptest.Server) {
	t.Helper()
	db, err := tsdb.Open(t.TempDir(), testDBOptions(c))
	if err != nil {
		t.Fatal(err)
	}
	for name, xs := range fill {
		if err := db.Append(name, xs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(db, opt))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// parseNDJSONBody reassembles a streamed /api/v1/query NDJSON body,
// checking the chunk start indices are contiguous from wantStart. Error-
// returning so concurrent readers can use it off the test goroutine.
func parseNDJSONBody(body string, wantStart int) ([]float64, error) {
	var out []float64
	next := wantStart
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var chunk struct {
			Start  *int      `json:"start"`
			Values []float64 `json:"values"`
			Error  string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if chunk.Error != "" {
			return nil, fmt.Errorf("NDJSON stream error: %s", chunk.Error)
		}
		if chunk.Start == nil || *chunk.Start != next {
			return nil, fmt.Errorf("chunk start = %v, want %d", chunk.Start, next)
		}
		out = append(out, chunk.Values...)
		next += len(chunk.Values)
	}
	return out, sc.Err()
}

func parseNDJSON(t *testing.T, body string, wantStart int) []float64 {
	t.Helper()
	out, err := parseNDJSONBody(body, wantStart)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parseCSV reassembles a streamed /api/v1/query CSV body.
func parseCSV(t *testing.T, body string, wantStart int) []float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != "index,value" {
		t.Fatalf("missing CSV header in %q", body[:min(len(body), 60)])
	}
	var out []float64
	for i, line := range lines[1:] {
		if strings.HasPrefix(line, "#") {
			t.Fatalf("CSV stream error: %s", line)
		}
		idxStr, valStr, ok := strings.Cut(line, ",")
		if !ok {
			t.Fatalf("bad CSV row %q", line)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx != wantStart+i {
			t.Fatalf("CSV row %d has index %q, want %d", i, idxStr, wantStart+i)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("CSV row %d: %v", i, err)
		}
		out = append(out, v)
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestQueryBitIdenticalAllCodecs is the acceptance differential: for
// every registered codec, the HTTP query response — NDJSON and CSV, cold
// and warm — parses back to exactly the float64s a direct Query returns,
// and query_agg matches QueryAgg the same way.
func TestQueryBitIdenticalAllCodecs(t *testing.T) {
	for name, c := range testCodecs() {
		t.Run(name, func(t *testing.T) {
			total := 3*512 + 100 // durable blocks + verbatim tail
			xs := sensorData(total, 7)
			db, srv := newTestServer(t, c, Options{}, map[string][]float64{"sensor/a": xs})
			ranges := [][2]int{{0, total}, {100, 612}, {511, 513}, {3 * 512, total}, {0, 1}}
			for _, r := range ranges {
				want, err := db.Query("sensor/a", r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"cold", "warm"} {
					status, body := httpGet(t, fmt.Sprintf("%s/api/v1/query?series=%s&from=%d&to=%d",
						srv.URL, "sensor%2Fa", r[0], r[1]))
					if status != http.StatusOK {
						t.Fatalf("query [%d,%d) %s: status %d: %s", r[0], r[1], pass, status, body)
					}
					sameBits(t, fmt.Sprintf("ndjson [%d,%d) %s", r[0], r[1], pass), parseNDJSON(t, body, r[0]), want)
				}
				status, body := httpGet(t, fmt.Sprintf("%s/api/v1/query?series=%s&from=%d&to=%d&format=csv",
					srv.URL, "sensor%2Fa", r[0], r[1]))
				if status != http.StatusOK {
					t.Fatalf("csv query [%d,%d): status %d: %s", r[0], r[1], status, body)
				}
				sameBits(t, fmt.Sprintf("csv [%d,%d)", r[0], r[1]), parseCSV(t, body, r[0]), want)
			}

			// Aggregate windows, default and explicit aggfns.
			for _, aggfn := range []string{"", "mean", "sum", "max", "min"} {
				f, err := parseAggFunc(aggfn)
				if err != nil {
					t.Fatal(err)
				}
				want, err := db.QueryAgg("sensor/a", 40, total-30, 60, f)
				if err != nil {
					t.Fatal(err)
				}
				url := fmt.Sprintf("%s/api/v1/query_agg?series=%s&from=40&to=%d&step=60", srv.URL, "sensor%2Fa", total-30)
				if aggfn != "" {
					url += "&aggfn=" + aggfn
				}
				status, body := httpGet(t, url)
				if status != http.StatusOK {
					t.Fatalf("query_agg %q: status %d: %s", aggfn, status, body)
				}
				var resp struct {
					Series string    `json:"series"`
					Step   int       `json:"step"`
					AggFn  string    `json:"aggfn"`
					Values []float64 `json:"values"`
				}
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					t.Fatalf("query_agg %q: %v in %s", aggfn, err, body)
				}
				if resp.Series != "sensor/a" || resp.Step != 60 {
					t.Fatalf("query_agg echo: %+v", resp)
				}
				sameBits(t, "query_agg "+aggfn, resp.Values, want)
			}
		})
	}
}

// jsonFloats parses a JSON values array the way a client must: numbers,
// plus the quoted "NaN", "+Inf" and "-Inf" JSON has no literal for.
func jsonFloats(t *testing.T, raw []json.RawMessage) []float64 {
	t.Helper()
	out := make([]float64, len(raw))
	for i, r := range raw {
		v, err := strconv.ParseFloat(strings.Trim(string(r), `"`), 64)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		out[i] = v
	}
	return out
}

// sameFloats is sameBits for results that may hold a NaN computed by
// arithmetic: the text form carries no NaN payload, so any NaN matches a
// NaN; every other value must match bit for bit.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: value %d = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestQueryEdgeValuesBitIdentical reads the values a float formatter gets
// wrong first — non-finites, signed zero, the extremes and the thresholds
// of %g's layout — back through every read endpoint of a lossless store.
// Raw samples must parse back bit-identical to Query (the stored NaN
// included); aggregates match QueryAgg up to NaN payloads.
func TestQueryEdgeValuesBitIdentical(t *testing.T) {
	edge := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1e-5, 1e-4, 9.9999e-5, 123456, 999999, 999999.5, 1e6, 1e21, -1e-5, -999999.5,
	}
	xs := sensorData(2*512+77, 9)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = edge[i/3%len(edge)]
		}
	}
	db, srv := newTestServer(t, codec.Gorilla{}, Options{}, map[string][]float64{"e": xs})
	ranges := [][2]int{{0, len(xs)}, {500, 530}, {2 * 512, len(xs)}}
	for _, r := range ranges {
		want, err := db.Query("e", r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		url := fmt.Sprintf("%s/api/v1/query?series=e&from=%d&to=%d", srv.URL, r[0], r[1])
		status, body := httpGet(t, url)
		if status != http.StatusOK {
			t.Fatalf("query %v: %d %s", r, status, body)
		}
		var got []float64
		next := r[0]
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			var chunk struct {
				Start  int               `json:"start"`
				Values []json.RawMessage `json:"values"`
			}
			if err := json.Unmarshal([]byte(line), &chunk); err != nil || chunk.Start != next {
				t.Fatalf("ndjson %v: line %q: start want %d, %v", r, line, next, err)
			}
			got = append(got, jsonFloats(t, chunk.Values)...)
			next += len(chunk.Values)
		}
		sameBits(t, fmt.Sprintf("ndjson %v", r), got, want)

		status, body = httpGet(t, url+"&format=csv")
		if status != http.StatusOK {
			t.Fatalf("csv query %v: %d %s", r, status, body)
		}
		sameBits(t, fmt.Sprintf("csv %v", r), parseCSV(t, body, r[0]), want)

		reqBody := fmt.Sprintf(`{"series":["e","e"],"from":%d,"to":%d}`, r[0], r[1])
		status, body, _ = httpPost(t, srv.URL+"/api/v1/query", "application/json", reqBody)
		if status != http.StatusOK {
			t.Fatalf("batch query %v: %d %s", r, status, body)
		}
		got = got[:0]
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			var chunk struct {
				Series string            `json:"series"`
				Values []json.RawMessage `json:"values"`
			}
			if err := json.Unmarshal([]byte(line), &chunk); err != nil || chunk.Series != "e" {
				t.Fatalf("batch ndjson %v: line %q: %v", r, line, err)
			}
			got = append(got, jsonFloats(t, chunk.Values)...)
		}
		sameBits(t, fmt.Sprintf("batch query %v", r), got, append(want, want...))
	}

	for _, step := range []int{1, 5} {
		for _, aggfn := range []string{"mean", "sum", "max", "min"} {
			want, err := db.QueryAgg("e", 0, len(xs), step, parseAggMust(t, aggfn))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("query_agg step %d %s", step, aggfn)
			status, body := httpGet(t, fmt.Sprintf("%s/api/v1/query_agg?series=e&step=%d&aggfn=%s", srv.URL, step, aggfn))
			if status != http.StatusOK {
				t.Fatalf("%s: %d %s", what, status, body)
			}
			var resp struct {
				Values []json.RawMessage `json:"values"`
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameFloats(t, what, jsonFloats(t, resp.Values), want)

			reqBody := fmt.Sprintf(`{"series":["e"],"step":%d,"aggfn":%q}`, step, aggfn)
			status, body, _ = httpPost(t, srv.URL+"/api/v1/query_agg", "application/json", reqBody)
			if status != http.StatusOK {
				t.Fatalf("batch %s: %d %s", what, status, body)
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatalf("batch %s: %v", what, err)
			}
			sameFloats(t, "batch "+what, jsonFloats(t, resp.Values), want)
		}
	}
}

// TestQueryErrorStatus pins the streaming error contract: a resolution
// failure before any bytes reached the client is a proper 5xx, while a
// failure after streaming began (status already sent) poisons the body
// with an error line instead of passing off a truncated response as
// complete.
func TestQueryErrorStatus(t *testing.T) {
	opt := testDBOptions(nil)
	opt.CacheBlocks = -1 // every read hits the disk files
	dir := t.TempDir()
	db, err := tsdb.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append("s", sensorData(2*512, 11)...); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(db, Options{}))
	defer srv.Close()

	// Truncate the SECOND block's file: a query spanning both streams the
	// first chunk fine, then fails mid-body — 200 with an error line.
	second := filepath.Join(dir, "s", "000000000512.blk")
	if err := os.Truncate(second, 2); err != nil {
		t.Fatal(err)
	}
	status, body := httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=1024")
	if status != http.StatusOK {
		t.Fatalf("mid-stream failure: status %d, want 200 (already streaming)", status)
	}
	if _, err := parseNDJSONBody(body, 0); err == nil || !strings.Contains(body, `"error"`) {
		t.Fatalf("mid-stream failure not surfaced in body: %v\n%s", err, body)
	}
	status, body = httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=1024&format=csv")
	if status != http.StatusOK || !strings.Contains(body, "# error:") {
		t.Fatalf("mid-stream CSV failure: status %d, body %q", status, body[max(0, len(body)-80):])
	}

	// Truncate the FIRST block too: now the very first chunk fails before
	// anything was flushed, so the client must see a real error status.
	first := filepath.Join(dir, "s", "000000000000.blk")
	if err := os.Truncate(first, 2); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"", "&format=csv"} {
		status, body = httpGet(t, srv.URL+"/api/v1/query?series=s&from=0&to=1024"+format)
		if status != http.StatusInternalServerError {
			t.Fatalf("pre-stream failure (%q): status %d (%s), want 500", format, status, body)
		}
	}
}

// TestOperationalEndpoints covers the non-query surface: series listing,
// health, and the statusz counters (including the DB.Stats passthrough).
func TestOperationalEndpoints(t *testing.T) {
	_, srv := newTestServer(t, nil, Options{}, map[string][]float64{
		"b/two": sensorData(700, 1), "a/one": sensorData(600, 2),
	})

	status, body := httpGet(t, srv.URL+"/healthz")
	if status != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", status, body)
	}

	status, body = httpGet(t, srv.URL+"/api/v1/series")
	if status != http.StatusOK {
		t.Fatalf("series: %d %s", status, body)
	}
	var names []string
	if err := json.Unmarshal([]byte(body), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a/one" || names[1] != "b/two" {
		t.Fatalf("series listing = %v, want sorted [a/one b/two]", names)
	}

	// Exercise a cold partial query so pushdown counters move, then check
	// statusz reflects both the engine and the HTTP layer through the
	// shared metrics registry.
	if _, body := httpGet(t, srv.URL+"/api/v1/query?series=a%2Fone&from=10&to=50"); body == "" {
		t.Fatal("empty query body")
	}
	if status, _ := httpGet(t, srv.URL+"/api/v1/query_agg?series=a%2Fone&step=50"); status != http.StatusOK {
		t.Fatalf("query_agg: %d", status)
	}
	snap := statuszServer(t, srv.URL)
	if series := snap.num(t, "cameo_store_series"); series != 2 {
		t.Fatalf("statusz series = %v, want 2", series)
	}
	if samples := snap.num(t, "cameo_store_samples"); samples != 1300 {
		t.Fatalf("statusz samples = %v, want 1300", samples)
	}
	// The append-latency histogram rides the same registry as a summary
	// object.
	var appendLat struct {
		Count uint64  `json:"count"`
		P99   float64 `json:"p99"`
		Max   float64 `json:"max"`
	}
	if err := json.Unmarshal(snap["cameo_store_append_latency_seconds"], &appendLat); err != nil {
		t.Fatalf("statusz append latency: %v", err)
	}
	if appendLat.Count == 0 || appendLat.Max == 0 || appendLat.P99 > appendLat.Max {
		t.Fatalf("statusz append-latency summary: %+v", appendLat)
	}
	if n := snap.labeled(t, "cameo_http_requests_total", `endpoint="query",status="2xx"`); n != 1 {
		t.Fatalf("query 2xx requests = %v, want 1", n)
	}
	if n := snap.labeled(t, "cameo_http_requests_total", `endpoint="query_agg",status="2xx"`); n != 1 {
		t.Fatalf("query_agg 2xx requests = %v, want 1", n)
	}
}
