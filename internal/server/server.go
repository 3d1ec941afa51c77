// Package server exposes a tsdb.DB over HTTP: a concurrent
// ingest/query service with the same contract as the embedded store.
//
// The surface is deliberately small and streaming-first:
//
//	POST   /api/v1/write      batched ingest (newline text or JSON batch)
//	GET    /api/v1/query      raw range, streamed as NDJSON or CSV chunks
//	POST   /api/v1/query      batch form: several series in one request,
//	                          scattered across the store's worker pool and
//	                          streamed back as per-series NDJSON sections
//	GET    /api/v1/query_agg  downsampled windows via QueryAgg pushdown
//	POST   /api/v1/query_agg  batch aggregate form, one NDJSON line per series
//	GET    /api/v1/series     sorted series listing
//	DELETE /api/v1/series     drop one series (and its rollup tiers)
//	GET    /healthz           liveness probe
//	GET    /statusz           every metric family as one flat JSON object
//	GET    /metrics           Prometheus text exposition of the same registry
//	GET    /debug/traces      ring of recent per-request stage timings
//
// Ingest groups points per series and issues one DB.Append per series per
// request, so a 10k-point batch costs a handful of Append calls, not 10k.
// Two admission controls bound memory instead of letting a burst OOM the
// process: each request body is capped at Options.MaxRequestBytes (413
// beyond it), and the total bytes of ingest requests being buffered at
// once is capped at Options.MaxInflightIngestBytes — excess writers get
// 429 with a Retry-After hint, which is the backpressure signal.
//
// Queries never materialize the requested range server-side: the handler
// walks a tsdb.Cursor and encodes chunk by chunk into the response, so a
// million-sample scan holds one block's worth of samples in memory, and
// cache-resident blocks stream without even that copy. Aggregate queries
// map straight onto QueryAgg, riding the codec pushdown for cold blocks.
//
// Store errors map onto statuses: tsdb.ErrBadSeriesName,
// tsdb.ErrInvalidRange and tsdb.ErrNonFinite (a NaN/±Inf sample written to
// a lossy store) are the caller's fault (400), tsdb.ErrUnknownSeries
// is 404, an overlong body is 413, and anything else is a 500. Hostile
// series names ("", ".", "..", their escaped spellings) are rejected by
// the store's own validation before any filesystem path is formed.
//
// Observability rides a single metrics.Registry shared by /metrics
// (Prometheus text) and /statusz (JSON) — both render the same gather
// pass, so the two views cannot disagree. Every route runs inside the
// instrument middleware: request counts by status class, latency
// histograms, and in-flight gauges per endpoint, plus a per-request
// trace (ID from X-Request-Id or freshly issued) whose stage timings
// land in the /debug/traces ring and, when configured, the access and
// sampled slow-query logs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/tsdb"
)

// Options configures the HTTP layer. The zero value picks every default.
type Options struct {
	// MaxRequestBytes caps one request body (default 8 MiB). Larger
	// ingest batches are refused with 413; split them client-side.
	MaxRequestBytes int64
	// MaxInflightIngestBytes caps the total request-body bytes of all
	// ingest requests being processed at once (default 64 MiB). Beyond
	// it new writes receive 429 + Retry-After instead of buffering
	// without bound — backpressure, not OOM. Requests without a
	// Content-Length reserve MaxRequestBytes.
	MaxInflightIngestBytes int64
	// IngestTimeout bounds reading one write request's body (default
	// 1m; negative disables). A write holds its in-flight reservation
	// while its body uploads, so without this bound slow-trickling
	// clients could pin the whole ingest budget and starve legitimate
	// writers; a client exceeding it gets 408.
	IngestTimeout time.Duration
	// ReadHeaderTimeout bounds how long a connection may take to send
	// its request header (default 10s; used by Serve, not NewHandler).
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle this long (default
	// 2m; used by Serve).
	IdleTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain of in-flight
	// requests once Serve's context is canceled (default 15s).
	DrainTimeout time.Duration
	// SlowQueryThreshold turns on the slow-query log: query-path requests
	// at or over this wall time emit one JSON line to LogWriter (default
	// 0 = off).
	SlowQueryThreshold time.Duration
	// SlowQuerySample logs every Nth slow query (default 1 = every one),
	// so a persistent slowdown can't turn the log into its own hot path.
	SlowQuerySample int
	// AccessLog emits one JSON line per request to LogWriter (default
	// off).
	AccessLog bool
	// LogWriter receives access and slow-query log lines (default
	// os.Stderr). Lines are written whole under a mutex, so any io.Writer
	// works.
	LogWriter io.Writer
}

func (o *Options) withDefaults() {
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 8 << 20
	}
	if o.MaxInflightIngestBytes <= 0 {
		o.MaxInflightIngestBytes = 64 << 20
	}
	if o.IngestTimeout == 0 {
		o.IngestTimeout = time.Minute
	}
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 10 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.SlowQuerySample <= 0 {
		o.SlowQuerySample = 1
	}
	if o.LogWriter == nil {
		o.LogWriter = os.Stderr
	}
}

// Server is the handler state behind NewHandler: the store, the admission
// accounting, the metrics registry /metrics and /statusz render, and the
// trace ring behind /debug/traces.
type Server struct {
	db  *tsdb.DB
	opt Options
	mux *http.ServeMux
	reg *metrics.Registry

	endpoints []*endpointMetrics // fixed at NewHandler; the server collector walks it
	traces    traceRing
	logMu     sync.Mutex // serializes whole log lines onto opt.LogWriter
	slowSeen  atomic.Uint64

	inflightIngest atomic.Int64 // reserved ingest body bytes currently in flight

	ingestBytes    metrics.Counter // write request body bytes read
	pointsIngested atomic.Uint64
	throttled      atomic.Uint64 // writes refused with 429 by the in-flight cap
	queryAborted   atomic.Uint64 // query responses cut short by a client write failure
	seriesDeletes  atomic.Uint64 // series dropped via DELETE /api/v1/series
}

// NewHandler builds the HTTP handler for a store. The store stays owned
// by the caller (the handler never closes it), so embedders can mount the
// returned handler in their own mux next to their other routes.
func NewHandler(db *tsdb.DB, opt Options) http.Handler {
	opt.withDefaults()
	s := &Server{db: db, opt: opt, mux: http.NewServeMux(), reg: metrics.NewRegistry()}
	route := func(pattern, endpoint string, isQuery bool, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(newEndpointMetrics(endpoint, isQuery), h))
	}
	route("POST /api/v1/write", "write", false, s.handleWrite)
	route("GET /api/v1/query", "query", true, s.handleQuery)
	route("POST /api/v1/query", "query_multi", true, s.handleQueryMulti)
	route("GET /api/v1/query_agg", "query_agg", true, s.handleQueryAgg)
	route("POST /api/v1/query_agg", "query_agg_multi", true, s.handleQueryAggMulti)
	route("GET /api/v1/series", "series", false, s.handleSeries)
	route("DELETE /api/v1/series", "series_delete", false, s.handleDeleteSeries)
	route("GET /healthz", "healthz", false, s.handleHealthz)
	route("GET /statusz", "statusz", false, s.handleStatusz)
	route("GET /metrics", "metrics", false, s.handleMetrics)
	route("GET /debug/traces", "traces", false, s.handleTraces)
	db.RegisterMetrics(s.reg)
	s.registerServerMetrics(s.reg)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// httpError maps a store error onto its HTTP status: invalid input is the
// caller's fault (400), an absent series is 404, an overlong body 413,
// everything else a 500.
func httpError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, tsdb.ErrBadSeriesName), errors.Is(err, tsdb.ErrInvalidRange), errors.Is(err, tsdb.ErrNonFinite):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, tsdb.ErrUnknownSeries):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.As(err, &mbe):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	names := s.db.Series()
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(names)
}

// handleDeleteSeries drops one series — and, when rollups are configured,
// its materialized tiers — atomically with respect to queries and ingest.
// Deletion is irreversible, so it answers 404 for an unknown name rather
// than succeeding vacuously: a typo'd automation script should hear about
// it, not silently "succeed" forever.
func (s *Server) handleDeleteSeries(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("series")
	if name == "" {
		http.Error(w, "parameter \"series\" is required", http.StatusBadRequest)
		return
	}
	if err := s.db.DeleteSeries(name); err != nil {
		httpError(w, err)
		return
	}
	s.seriesDeletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// Serve listens on addr and serves the store until ctx is canceled, then
// shuts down gracefully: in-flight requests drain (bounded by
// opt.DrainTimeout) before Serve returns. The store itself is not flushed
// or closed — it belongs to the caller, who typically Flush+Closes it
// right after Serve returns (cmd/cameod does exactly that).
func Serve(ctx context.Context, addr string, db *tsdb.DB, opt Options) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(ctx, ln, db, opt)
}

// serveListener is Serve after the bind — split out so tests (and
// embedders with their own net.Listener) can drive the lifecycle against
// an OS-assigned port.
func serveListener(ctx context.Context, ln net.Listener, db *tsdb.DB, opt Options) error {
	opt.withDefaults()
	srv := &http.Server{
		Handler:           NewHandler(db, opt),
		ReadHeaderTimeout: opt.ReadHeaderTimeout,
		IdleTimeout:       opt.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), opt.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drain)
	if err != nil {
		srv.Close() // drain timed out; cut the stragglers loose
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	return err
}
