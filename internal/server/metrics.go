package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// endpointMetrics is one route's fixed instrument set. Everything the
// per-request path touches — the in-flight gauge, the latency histogram,
// the per-status-class counters — is a preallocated atomic, and the label
// strings are rendered once at construction, so instrumenting a request
// allocates nothing beyond what the handler itself does.
type endpointMetrics struct {
	name     string
	labels   string // rendered endpoint="<name>" label set
	isQuery  bool   // participates in the slow-query log
	inflight metrics.Gauge
	latency  metrics.Histogram
	status   [5]metrics.Counter // by status class: index 0 = 1xx ... 4 = 5xx
}

// statusClassNames index the per-endpoint status counters; the endpoint
// label is prepended per endpoint at gather time.
var statusClassNames = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

func newEndpointMetrics(name string, isQuery bool) *endpointMetrics {
	return &endpointMetrics{
		name:    name,
		labels:  metrics.Labels("endpoint", name),
		isQuery: isQuery,
	}
}

// statusWriter captures the status code and body bytes of a response for
// the instrument middleware. It forwards Flush (the streaming query
// handler flushes per chunk) and exposes the wrapped writer via Unwrap,
// so http.NewResponseController still reaches the underlying
// connection's deadline controls (the ingest read deadline relies on
// that).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps one route handler with the request middleware: a
// trace (ID from X-Request-Id or freshly issued, echoed back in the
// response header) threaded through the request context for stage
// timings, the in-flight gauge held across the call, and the latency
// histogram and status-class counter recorded at completion. The
// finished trace lands in the /debug/traces ring and, as configured, the
// access and slow-query logs.
func (s *Server) instrument(ep *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	s.endpoints = append(s.endpoints, ep)
	return func(w http.ResponseWriter, r *http.Request) {
		t := &trace{
			ID:       r.Header.Get("X-Request-Id"),
			Endpoint: ep.name,
			Target:   r.Method + " " + r.URL.RequestURI(),
			Start:    time.Now(),
		}
		if t.ID == "" {
			t.ID = newTraceID()
		}
		w.Header().Set("X-Request-Id", t.ID)
		sw := &statusWriter{ResponseWriter: w}
		ep.inflight.Add(1)
		h(sw, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, t)))
		d := time.Since(t.Start)
		ep.inflight.Add(-1)
		ep.latency.ObserveDuration(d)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		if class := status/100 - 1; class >= 0 && class < len(ep.status) {
			ep.status[class].Inc()
		}
		t.Status = status
		t.Bytes = sw.bytes
		t.Duration = milliFloat(d)
		s.noteFinished(t, ep.isQuery)
	}
}

// registerServerMetrics registers the HTTP layer's collector: per-endpoint
// request counts by status class, latency histograms, and in-flight
// gauges, plus the ingest/throttle/abort counters the handlers maintain.
func (s *Server) registerServerMetrics(reg *metrics.Registry) {
	reg.Collect(func(e *metrics.Emitter) {
		for _, ep := range s.endpoints {
			for class, name := range statusClassNames {
				e.CounterL("cameo_http_requests_total",
					"HTTP requests completed, by endpoint and status class.",
					metrics.Labels("endpoint", ep.name, "status", name),
					ep.status[class].Value())
			}
			e.HistogramL("cameo_http_request_seconds",
				"HTTP request wall time by endpoint.",
				ep.labels, 1e-9, ep.latency.Snapshot())
			e.GaugeL("cameo_http_inflight_requests",
				"Requests currently being served, by endpoint.",
				ep.labels, float64(ep.inflight.Value()))
		}
		e.Counter("cameo_http_ingest_bytes_total",
			"Write request body bytes read.", s.ingestBytes.Value())
		e.Counter("cameo_http_points_ingested_total",
			"Samples accepted by POST /api/v1/write.", s.pointsIngested.Load())
		e.Counter("cameo_http_throttled_writes_total",
			"Writes refused with 429 by the in-flight ingest cap.", s.throttled.Load())
		e.Counter("cameo_http_query_aborted_total",
			"Query responses (raw, aggregate and batch) cut short by a client write failure.", s.queryAborted.Load())
		e.Counter("cameo_http_series_deletes_total",
			"Series dropped via DELETE /api/v1/series.", s.seriesDeletes.Load())
		e.Gauge("cameo_http_inflight_ingest_bytes",
			"Reserved ingest body bytes currently in flight.", float64(s.inflightIngest.Load()))
	})
}

// handleMetrics serves the Prometheus text exposition of the shared
// registry — the same gather pass /statusz renders as JSON, so the two
// views cannot disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleStatusz serves the same gathered families as one flat JSON
// object (histograms as {count, sum, p50, p99, max} summaries).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}
