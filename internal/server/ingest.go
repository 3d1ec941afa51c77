package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/tsdb"
)

// seriesBatch is one series' grouped points within a write request.
type seriesBatch struct {
	name   string
	values []float64
	stamps []int64 // optional per-point timestamps (line form only)

	// nonFiniteLine is the 1-based line of the series' first NaN/±Inf value,
	// 0 if it has none. (Line form only: JSON has no literal for them.)
	nonFiniteLine int
}

// writeRequest is the JSON batch form of POST /api/v1/write:
//
//	{"series": [{"name": "hall/temp", "values": [20.1, 20.3]}]}
type writeRequest struct {
	Series []struct {
		Name   string    `json:"name"`
		Values []float64 `json:"values"`
	} `json:"series"`
}

// writeResponse acknowledges a write: how many series and points landed.
type writeResponse struct {
	Series int `json:"series"`
	Points int `json:"points"`
}

// handleWrite is the batched ingest endpoint. Admission control first —
// the request's bytes are reserved against the in-flight cap before any
// buffering, so a burst of writers is throttled with 429 instead of
// growing the heap — then the body is parsed (text lines or JSON batch),
// grouped per series, and appended with one DB.Append call per series.
// Series names are validated before the first Append, so a batch naming
// an invalid series is rejected whole; a failure past that point (disk,
// compression) can still leave earlier series of the batch applied — the
// store is append-only, so clients should not blindly re-send a batch
// that failed with a 5xx.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	st := stageTimer{t: traceFrom(r.Context()), name: "admission", at: time.Now()}
	if r.ContentLength > s.opt.MaxRequestBytes {
		// Destined for 413 no matter what; saying 429 "retry later" would
		// have the client re-send a request that can never succeed (and
		// burn in-flight budget each time).
		http.Error(w, fmt.Sprintf("request body %d bytes over the %d-byte cap",
			r.ContentLength, s.opt.MaxRequestBytes), http.StatusRequestEntityTooLarge)
		return
	}
	reserve := r.ContentLength
	if reserve < 0 {
		reserve = s.opt.MaxRequestBytes // unknown (chunked) length reserves the worst case
	}
	if reserve > s.opt.MaxInflightIngestBytes {
		// The reservation alone exceeds the whole in-flight budget: no
		// amount of retrying can admit it, so answer 413 (shrink the
		// batch, or declare a Content-Length if this was chunked), not a
		// retry-later 429.
		http.Error(w, fmt.Sprintf("request reserves %d bytes, over the %d-byte in-flight ingest budget",
			reserve, s.opt.MaxInflightIngestBytes), http.StatusRequestEntityTooLarge)
		return
	}
	if s.inflightIngest.Add(reserve) > s.opt.MaxInflightIngestBytes {
		s.inflightIngest.Add(-reserve)
		s.throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest over capacity, retry later", http.StatusTooManyRequests)
		return
	}
	defer s.inflightIngest.Add(-reserve)

	if s.opt.IngestTimeout > 0 {
		// The reservation above lives until this request completes; bound
		// how long a slow-trickling body can hold it, or a handful of
		// drip-feeding clients could pin the whole ingest budget. Best
		// effort: a transport without deadline support just skips it.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.opt.IngestTimeout))
	}
	st.next("read_body")
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxRequestBytes)
	body, err := io.ReadAll(r.Body)
	s.ingestBytes.Add(uint64(len(body)))
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			http.Error(w, "reading request body timed out", http.StatusRequestTimeout)
			return
		}
		httpError(w, err)
		return
	}
	st.next("parse")
	var batches []seriesBatch
	if isJSONRequest(r) {
		batches, err = parseJSONBatch(body)
	} else {
		batches, err = parseLineBatch(body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Validate every name and value before the first Append: a batch
	// naming an invalid series, or carrying a non-finite sample to a series
	// that cannot store one, fails whole instead of landing a prefix and
	// then duplicating it when the client retries.
	for _, b := range batches {
		if err := tsdb.ValidateSeriesName(b.name); err != nil {
			httpError(w, err)
			return
		}
		if b.nonFiniteLine > 0 && !s.db.AcceptsNonFinite(b.name) {
			httpError(w, fmt.Errorf("line %d: series %q: %w (the store's codec is lossy)",
				b.nonFiniteLine, b.name, tsdb.ErrNonFinite))
			return
		}
	}
	st.next("append")
	points := 0
	for _, b := range batches {
		if err := s.db.Append(b.name, b.values...); err != nil {
			httpError(w, err)
			return
		}
		points += len(b.values)
	}
	st.stop()
	s.pointsIngested.Add(uint64(points))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(writeResponse{Series: len(batches), Points: points})
}

func isJSONRequest(r *http.Request) bool {
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && (ct == "application/json" || strings.HasSuffix(ct, "+json"))
}

// parseJSONBatch decodes the JSON batch form, preserving entry order;
// repeated names append in order of appearance.
func parseJSONBatch(body []byte) ([]seriesBatch, error) {
	var req writeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := decodeOneJSON(dec, &req); err != nil {
		return nil, fmt.Errorf("invalid JSON batch: %w", err)
	}
	if len(req.Series) == 0 {
		return nil, fmt.Errorf("invalid JSON batch: no series entries")
	}
	grouped := make(map[string]int)
	var batches []seriesBatch
	for i, e := range req.Series {
		if len(e.Values) == 0 {
			return nil, fmt.Errorf("series entry %d (%q): no values", i, e.Name)
		}
		j, ok := grouped[e.Name]
		if !ok {
			j = len(batches)
			grouped[e.Name] = j
			batches = append(batches, seriesBatch{name: e.Name})
		}
		batches[j].values = append(batches[j].values, e.Values...)
	}
	return batches, nil
}

// decodeOneJSON decodes the single JSON value a request body must hold.
// Anything after it but whitespace is an error: a second concatenated
// value would otherwise be dropped without a word.
func decodeOneJSON(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("unexpected data after the JSON value")
}

// parseLineBatch decodes the newline-delimited text form. Each line is
//
//	<series> <value>
//	<series> <ts> <value>
//
// with whitespace-separated fields; blank lines and '#' comments are
// skipped. The store addresses samples by position, so a timestamp is not
// persisted — it orders the batch: a series' points are sorted by ts
// (stably, so equal stamps keep line order) before being appended, which
// lets collectors emit interleaved readings without caring about line
// order. Series whose names contain whitespace must use the JSON form.
//
// Parsing stays on the []byte body (no whole-body string copy — the
// in-flight admission cap accounts each request's bytes once, so the
// parser must not double them); only each line's small tokens convert,
// and a known series name converts without allocating via the compiler's
// map-lookup optimization.
func parseLineBatch(body []byte) ([]seriesBatch, error) {
	grouped := make(map[string]int)
	var batches []seriesBatch
	lineNo := 0
	for line := range bytes.Lines(body) {
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("line %d: want \"series value\" or \"series ts value\", got %d fields", lineNo, len(fields))
		}
		var stamp int64
		hasStamp := len(fields) == 3
		if hasStamp {
			var err error
			if stamp, err = strconv.ParseInt(string(fields[1]), 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q: %v", lineNo, fields[1], err)
			}
		} else {
			// Un-stamped lines keep arrival order: stamp with the running
			// line number so mixing the two forms stays well-defined.
			stamp = int64(lineNo)
		}
		val, err := strconv.ParseFloat(string(fields[len(fields)-1]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[len(fields)-1], err)
		}
		j, ok := grouped[string(fields[0])] // no alloc on lookup hit
		if !ok {
			name := string(fields[0])
			j = len(batches)
			grouped[name] = j
			batches = append(batches, seriesBatch{name: name})
		}
		batches[j].values = append(batches[j].values, val)
		batches[j].stamps = append(batches[j].stamps, stamp)
		if batches[j].nonFiniteLine == 0 && (math.IsNaN(val) || math.IsInf(val, 0)) {
			batches[j].nonFiniteLine = lineNo
		}
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("empty write: no data lines")
	}
	for i := range batches {
		sort.Stable(stampedBatch{batches[i].stamps, batches[i].values})
	}
	return batches, nil
}

// stampedBatch sorts one series' values by their timestamps in lockstep.
type stampedBatch struct {
	stamps []int64
	values []float64
}

func (b stampedBatch) Len() int           { return len(b.values) }
func (b stampedBatch) Less(i, j int) bool { return b.stamps[i] < b.stamps[j] }
func (b stampedBatch) Swap(i, j int) {
	b.stamps[i], b.stamps[j] = b.stamps[j], b.stamps[i]
	b.values[i], b.values[j] = b.values[j], b.values[i]
}
