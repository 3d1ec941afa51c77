package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// multiQueryRequest is the JSON body of the batch query endpoints:
// a list of series plus the same range (and, for query_agg, step/aggfn)
// parameters the single-series GET forms take. Omitted from/to default
// exactly like the GET forms (0 and the series end).
type multiQueryRequest struct {
	Series []string `json:"series"`
	From   *int     `json:"from"`
	To     *int     `json:"to"`
	Step   int      `json:"step"`
	AggFn  string   `json:"aggfn"`

	from, to int // resolved bounds
}

// decodeMultiRequest reads and validates a batch query body. The body
// rides the same MaxRequestBytes admission cap as ingest (413 beyond
// it); malformed JSON, an empty series list, or an inverted range is the
// caller's fault (400). Request-level validation happens here so a bad
// batch is refused before any store work; per-series failures later
// stream as in-body error lines instead.
func (s *Server) decodeMultiRequest(w http.ResponseWriter, r *http.Request) (multiQueryRequest, bool) {
	var req multiQueryRequest
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxRequestBytes)
	if err := decodeOneJSON(json.NewDecoder(body), &req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, err)
		} else {
			http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		}
		return req, false
	}
	if len(req.Series) == 0 {
		http.Error(w, "\"series\" must list at least one series", http.StatusBadRequest)
		return req, false
	}
	req.from, req.to = 0, queryEnd
	if req.From != nil {
		req.from = *req.From
	}
	if req.To != nil {
		req.to = *req.To
	}
	if req.from > req.to {
		http.Error(w, fmt.Sprintf("invalid range: from %d > to %d", req.from, req.to), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// handleQueryMulti answers a batch raw query over several series in one
// request: the store scatters the per-series scans across its worker
// pool (bounded by the query fan-out), and the response streams the
// sections back in request order as NDJSON, chunk by chunk —
//
//	{"series":<name>,"start":<abs index>,"values":[v,...]}   per chunk
//	{"series":<name>,"start":<start>,"values":[]}            empty section
//	{"series":<name>,"error":<message>}                      failed section
//
// so server-side state stays O(chunk · fanout) regardless of how many
// series or samples the batch covers. Every requested series appears,
// in order, duplicates included. Per-series failures (an unknown
// series among known ones, say) are in-body lines, not a status code:
// once the batch is admitted the response is a 200 stream, and callers
// check each section.
func (s *Server) handleQueryMulti(w http.ResponseWriter, r *http.Request) {
	st := stageTimer{t: traceFrom(r.Context()), name: "admission", at: time.Now()}
	req, ok := s.decodeMultiRequest(w, r)
	if !ok {
		return
	}
	st.next("cursor_open")
	m, err := s.db.MultiCursor(req.Series, req.from, req.to)
	if err != nil {
		httpError(w, err)
		return
	}
	defer m.Close()
	st.stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	lineBuf := encodeBufs.Get().(*[]byte)
	line := (*lineBuf)[:0]
	defer func() { *lineBuf = line[:0]; encodeBufs.Put(lineBuf) }()
	for {
		if _, ok := m.Section(); !ok {
			break
		}
		nameJSON, _ := json.Marshal(m.Series())
		pos := m.Start()
		wrote := false
		for {
			chunk, ok := m.Next()
			if !ok {
				break
			}
			line = line[:0]
			line = append(line, `{"series":`...)
			line = append(line, nameJSON...)
			line = append(line, `,"start":`...)
			line = strconv.AppendInt(line, int64(pos), 10)
			line = append(line, `,"values":[`...)
			for i, v := range chunk {
				if i > 0 {
					line = append(line, ',')
				}
				line = appendJSONFloat(line, v)
			}
			line = append(line, "]}\n"...)
			// Hand the chunk on before gathering the next, like the
			// single-series stream: decoded bytes never wait on storage.
			if _, err := w.Write(line); err != nil {
				s.queryAborted.Add(1)
				return
			}
			pos += len(chunk)
			if flusher != nil {
				flusher.Flush()
			}
			wrote = true
		}
		line = line[:0]
		if err := m.Err(); err != nil {
			msg, _ := json.Marshal(err.Error())
			line = append(line, `{"series":`...)
			line = append(line, nameJSON...)
			line = append(line, `,"error":`...)
			line = append(line, msg...)
			line = append(line, "}\n"...)
		} else if !wrote {
			// An empty section still gets a line, so the response always
			// carries exactly as many sections as the request listed series.
			line = append(line, `{"series":`...)
			line = append(line, nameJSON...)
			line = append(line, `,"start":`...)
			line = strconv.AppendInt(line, int64(pos), 10)
			line = append(line, `,"values":[]}`...)
			line = append(line, '\n')
		}
		if len(line) > 0 {
			if _, err := w.Write(line); err != nil {
				s.queryAborted.Add(1)
				return
			}
		}
	}
}

// handleQueryAggMulti is the batch form of /api/v1/query_agg: one
// request aggregates several series (fanned out store-side, bounded by
// the query fan-out), answered as NDJSON with one line per series in
// request order —
//
//	{"series":<name>,"step":<step>,"aggfn":<fn>,"values":[v,...]}
//	{"series":<name>,"error":<message>}
//
// Aggregate results are one value per window — already tiny — so each
// series' line is written whole, like the single-series form.
func (s *Server) handleQueryAggMulti(w http.ResponseWriter, r *http.Request) {
	st := stageTimer{t: traceFrom(r.Context()), name: "admission", at: time.Now()}
	req, ok := s.decodeMultiRequest(w, r)
	if !ok {
		return
	}
	if req.Step < 1 {
		http.Error(w, fmt.Sprintf("\"step\" must be at least 1, got %d", req.Step), http.StatusBadRequest)
		return
	}
	f, err := parseAggFunc(req.AggFn)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st.next("resolve")
	results, err := s.db.QueryAggMulti(req.Series, req.from, req.to, req.Step, f)
	if err != nil {
		httpError(w, err)
		return
	}
	st.stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	lineBuf := encodeBufs.Get().(*[]byte)
	line := (*lineBuf)[:0]
	defer func() { *lineBuf = line[:0]; encodeBufs.Put(lineBuf) }()
	for _, res := range results {
		nameJSON, _ := json.Marshal(res.Name)
		line = line[:0]
		line = append(line, `{"series":`...)
		line = append(line, nameJSON...)
		if res.Err != nil {
			msg, _ := json.Marshal(res.Err.Error())
			line = append(line, `,"error":`...)
			line = append(line, msg...)
			line = append(line, "}\n"...)
		} else {
			line = append(line, `,"step":`...)
			line = strconv.AppendInt(line, int64(req.Step), 10)
			line = append(line, `,"aggfn":"`...)
			line = append(line, aggName(f)...)
			line = append(line, `","values":[`...)
			for i, v := range res.Values {
				if i > 0 {
					line = append(line, ',')
				}
				line = appendJSONFloat(line, v)
			}
			line = append(line, "]}\n"...)
		}
		if _, err := w.Write(line); err != nil {
			s.queryAborted.Add(1)
			return
		}
	}
}
