package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/series"
)

// queryEnd is the default for an omitted "to" parameter: far past any
// series, so the store's clamp reads to the series end.
const queryEnd = math.MaxInt / 2

// encodeBufs recycles the per-request encode buffers of the query
// handlers across requests — each buffer regrows to a block's worth of
// rendered floats, which is real allocation pressure under a
// dashboard-style query storm. Pointers, not slices, so Put does not
// box a fresh header per request.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// intParam parses an optional integer query parameter.
func intParam(q url.Values, key string, def int) (int, error) {
	s := q.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: invalid integer %q", key, s)
	}
	return v, nil
}

// parseAggFunc maps the aggfn parameter onto the shared aggregation enum.
func parseAggFunc(name string) (series.AggFunc, error) {
	switch name {
	case "", "mean":
		return series.AggMean, nil
	case "sum":
		return series.AggSum, nil
	case "max":
		return series.AggMax, nil
	case "min":
		return series.AggMin, nil
	}
	return 0, fmt.Errorf("parameter \"aggfn\": unknown aggregate %q (want mean, sum, max, min)", name)
}

// rangeParams validates the parameters shared by the query endpoints.
// Validation happens here, at the API boundary, so a malformed request is
// answered 400 with a parameter-level message before touching the store —
// and the store's own checks (ErrInvalidRange, step/aggfn validation in
// QueryAgg) remain as the second line behind it.
func rangeParams(q url.Values) (name string, from, to int, err error) {
	name = q.Get("series")
	if name == "" {
		return "", 0, 0, fmt.Errorf("parameter \"series\" is required")
	}
	if from, err = intParam(q, "from", 0); err != nil {
		return "", 0, 0, err
	}
	if to, err = intParam(q, "to", queryEnd); err != nil {
		return "", 0, 0, err
	}
	if from > to {
		return "", 0, 0, fmt.Errorf("invalid range: from %d > to %d", from, to)
	}
	return name, from, to, nil
}

// appendJSONFloat appends v in the shortest decimal form that parses back
// to the identical float64 — responses round-trip bit-for-bit. JSON has
// no literal for non-finite values, so those encode as the strings "NaN",
// "+Inf", "-Inf" (strconv.ParseFloat accepts all three spellings back).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b = append(b, '"')
		return append(appendShortest(b, v), '"')
	}
	return appendShortest(b, v)
}

// handleQuery streams the raw reconstruction of one range straight off a
// store cursor: each cursor chunk (at most one block) is encoded, written
// and flushed before the next is resolved, so the response is O(chunk) in
// server memory regardless of the range length, and cache-resident blocks
// stream without being copied at all.
//
// Formats (format=ndjson, the default, or format=csv):
//
//	ndjson: {"start":<abs index>,"values":[v,...]} per chunk
//	csv:    "index,value" header, then one sample per row
//
// Floats are encoded in shortest round-trip form, so a client parsing the
// response recovers bit-identical float64s to a direct Store.Query. An
// error after streaming began cannot change the status code anymore; it
// terminates the body with an {"error":...} line (ndjson) or an
// "# error: ..." comment row (csv).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r.Context())
	st := stageTimer{t: tr, name: "admission", at: time.Now()}
	q := r.URL.Query()
	name, from, to, err := rangeParams(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "csv" {
		http.Error(w, fmt.Sprintf("parameter \"format\": want ndjson or csv, got %q", format), http.StatusBadRequest)
		return
	}
	st.next("cursor_open")
	cur, err := s.db.Cursor(name, from, to)
	if err != nil {
		httpError(w, err)
		return
	}
	defer cur.Close()
	st.stop()

	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	// Absolute index of the next sample the cursor yields. Cursor.Start,
	// not the request's from: the store clamps the range to the retained
	// suffix (negative from, or history below a retention trim base), and
	// chunk start indices must label the samples actually returned.
	pos := cur.Start()
	wrote := false // whether any bytes (and so the 200 status) went to the client
	lineBuf := encodeBufs.Get().(*[]byte)
	line := (*lineBuf)[:0]
	defer func() { *lineBuf = line[:0]; encodeBufs.Put(lineBuf) }()
	for {
		// resolve covers block lookup/decode inside the cursor; encode_flush
		// covers rendering plus pushing bytes at the client. Accumulated per
		// chunk, so the trace splits a slow scan into "storage was slow"
		// versus "the client (or encoding) was slow".
		resolveStart := time.Now()
		chunk, ok := cur.Next()
		tr.addStage("resolve", time.Since(resolveStart))
		if !ok {
			break
		}
		encodeStart := time.Now()
		line = line[:0]
		if format == "csv" {
			if !wrote {
				// The header rides the first chunk, so a cursor error before
				// then still leaves the status code ours to set.
				line = append(line, csvHeader...)
			}
			for i, v := range chunk {
				line = strconv.AppendInt(line, int64(pos+i), 10)
				line = append(line, ',')
				line = appendShortest(line, v)
				line = append(line, '\n')
			}
		} else {
			line = append(line, `{"start":`...)
			line = strconv.AppendInt(line, int64(pos), 10)
			line = append(line, `,"values":[`...)
			for i, v := range chunk {
				if i > 0 {
					line = append(line, ',')
				}
				line = appendJSONFloat(line, v)
			}
			line = append(line, "]}\n"...)
		}
		// Each chunk goes to the client once rendered, before the next block
		// is resolved, so slow storage never stalls bytes already decoded.
		if _, err := w.Write(line); err != nil {
			// Client went away; nothing left to tell it — but the abort is
			// still an operator signal (a dashboard timing out mid-scan looks
			// exactly like this), so it counts before the handler bails.
			s.queryAborted.Add(1)
			return
		}
		wrote = true
		pos += len(chunk)
		if flusher != nil {
			flusher.Flush()
		}
		tr.addStage("encode_flush", time.Since(encodeStart))
	}
	line = line[:0]
	if err := cur.Err(); err != nil {
		if !wrote {
			// Nothing has reached the client yet, so the status code is
			// still ours to set: report the failure properly instead of a
			// 200 with an error body.
			httpError(w, err)
			return
		}
		// Too late for a status code; poison the body instead of letting a
		// truncated response read as a complete one.
		if format == "csv" {
			line = append(line, "# error: "...)
			line = append(line, err.Error()...)
			line = append(line, '\n')
		} else {
			msg, _ := json.Marshal(err.Error())
			line = append(line, `{"error":`...)
			line = append(line, msg...)
			line = append(line, "}\n"...)
		}
	} else if format == "csv" && !wrote {
		line = append(line, csvHeader...) // an empty range is still a CSV document
	}
	if len(line) > 0 {
		if _, err := w.Write(line); err != nil {
			s.queryAborted.Add(1)
		}
	}
}

// csvHeader opens every CSV query response.
const csvHeader = "index,value\n"

// handleQueryAgg answers downsampled aggregate queries by mapping
// step/aggfn straight onto Store.QueryAgg, so cold blocks of the segment
// codecs and CAMEO aggregate via codec pushdown without materializing
// samples. The result is one value per step-sample window — already tiny
// — so unlike /query it is returned as a single JSON document.
func (s *Server) handleQueryAgg(w http.ResponseWriter, r *http.Request) {
	st := stageTimer{t: traceFrom(r.Context()), name: "admission", at: time.Now()}
	q := r.URL.Query()
	name, from, to, err := rangeParams(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Get("step") == "" {
		http.Error(w, "parameter \"step\" is required", http.StatusBadRequest)
		return
	}
	step, err := intParam(q, "step", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if step < 1 {
		http.Error(w, fmt.Sprintf("parameter \"step\": must be at least 1, got %d", step), http.StatusBadRequest)
		return
	}
	f, err := parseAggFunc(q.Get("aggfn"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st.next("resolve")
	vals, err := s.db.QueryAgg(name, from, to, step, f)
	if err != nil {
		httpError(w, err)
		return
	}
	st.stop()
	w.Header().Set("Content-Type", "application/json")
	// Hand-encode the float array so values keep their shortest
	// round-trip form (and non-finite aggregates of non-finite data do
	// not abort the marshal).
	nameJSON, _ := json.Marshal(name)
	bodyBuf := encodeBufs.Get().(*[]byte)
	body := (*bodyBuf)[:0]
	defer func() { *bodyBuf = body[:0]; encodeBufs.Put(bodyBuf) }()
	body = append(body, `{"series":`...)
	body = append(body, nameJSON...)
	body = append(body, `,"step":`...)
	body = strconv.AppendInt(body, int64(step), 10)
	body = append(body, `,"aggfn":"`...)
	body = append(body, aggName(f)...)
	body = append(body, `","values":[`...)
	for i, v := range vals {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendJSONFloat(body, v)
	}
	body = append(body, "]}\n"...)
	if _, err := w.Write(body); err != nil {
		s.queryAborted.Add(1)
	}
}

func aggName(f series.AggFunc) string {
	switch f {
	case series.AggSum:
		return "sum"
	case series.AggMax:
		return "max"
	case series.AggMin:
		return "min"
	default:
		return "mean"
	}
}
