// Package cameo is an autocorrelation-preserving lossy time series
// compressor: a from-scratch Go implementation of CAMEO (Muñiz-Cuza, Boehm,
// Pedersen — "CAMEO: Autocorrelation-Preserving Line Simplification for
// Lossy Time Series Compression", EDBT 2026, arXiv:2501.14432).
//
// CAMEO compresses a time series by greedily removing the points whose
// reconstruction (by linear interpolation) least perturbs the series'
// autocorrelation function (ACF) or partial autocorrelation function
// (PACF), guaranteeing a user-provided maximum deviation of the statistic.
// Preserving the ACF/PACF — rather than merely bounding pointwise error —
// keeps downstream analytics such as forecasting and anomaly detection
// accurate at much higher compression ratios.
//
// Basic usage:
//
//	res, err := cameo.Compress(values, cameo.Options{
//		Lags:    24,    // preserve one daily cycle of hourly data
//		Epsilon: 0.01,  // max mean-absolute ACF deviation
//	})
//	if err != nil { ... }
//	fmt.Println(res.CompressionRatio(), res.Deviation)
//	reconstructed := res.Compressed.Decompress()
//
// The package also exposes every baseline the paper evaluates against
// (Visvalingam-Whyatt, Turning Points, PIP, PMC, Swing, Sim-Piece, FFT,
// Gorilla, Chimp), the statistics substrate (ACF/PACF, quality measures,
// time-series features), forecasting models (Holt-Winters, STL-ETS/AR,
// DHR, LSTM), Matrix-Profile anomaly detection including the irregular
// variant (iMP), and generators replicating the paper's eight datasets.
//
// # Storage and codecs
//
// Store (see OpenStore) is an embedded sharded time-series database whose
// block compression is pluggable through the Codec interface. CAMEO is the
// default codec; the lossless XOR family (CodecGorilla, CodecChimp,
// CodecELF) trades ratio for bit-exact replay, and the pointwise-lossy
// segment family (CodecPMC, CodecSwing, CodecSimPiece) bounds per-value
// error instead of a statistic. Every persisted block carries a versioned
// self-describing header naming its codec, so one store can mix codecs
// across reopens and pre-codec stores stay readable. EncodeBlock and
// DecodeBlock expose the same framing for standalone files (used by the
// cameo CLI's -codec flag), and examples/codecs compares ratio, error, and
// speed of every registered codec on one dataset.
//
// # Serving
//
// The store can be served over HTTP: NewHandler returns the handler the
// cameod daemon (cmd/cameod) runs — batched ingest with backpressure,
// range queries streamed chunk-by-chunk off a cursor, downsampled
// aggregate queries riding the codec pushdown, and an operational
// surface (/healthz, /statusz, series listing) — and Serve manages the
// listen/drain lifecycle around it. See the README's "Serving" section
// for endpoints, knobs, and curl examples, and examples/server for a
// concurrent write+query client driving the service end to end.
package cameo

import (
	"repro/internal/acf"
	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/stats"
)

// Options configures a CAMEO compression run. See the field documentation
// for the three problem variants (error-bounded, on-aggregates,
// compression-centric).
type Options = core.Options

// CoarseOptions configures coarse-grained (partitioned) parallel
// compression.
type CoarseOptions = core.CoarseOptions

// Result reports a compression outcome.
type Result = core.Result

// Stop says why a compression run ended (Result.Stop).
type Stop = core.Stop

// Stop reasons.
const (
	// StopNone marks a result merged from several runs (CompressCoarse,
	// StreamCompressor.Flush).
	StopNone = core.StopNone
	// StopDone: every interior point was removed.
	StopDone = core.StopDone
	// StopBound: the least-impact candidate would violate Epsilon.
	StopBound = core.StopBound
	// StopRatio: TargetRatio was reached.
	StopRatio = core.StopRatio
	// StopProbe: the two endpoints alone were within Epsilon, found before
	// any heap was built.
	StopProbe = core.StopProbe
)

// Statistic selects the preserved statistic.
type Statistic = core.Statistic

// Preserved statistics.
const (
	// StatACF preserves the autocorrelation function (default).
	StatACF = core.StatACF
	// StatPACF preserves the partial autocorrelation function.
	StatPACF = core.StatPACF
)

// Measure is a deviation measure D between statistic vectors (and between
// series).
type Measure = stats.Measure

// Deviation measures.
const (
	MAE       = stats.MeasureMAE
	MSE       = stats.MeasureMSE
	RMSE      = stats.MeasureRMSE
	NRMSE     = stats.MeasureNRMSE
	MAPE      = stats.MeasureMAPE
	SMAPE     = stats.MeasureSMAPE
	Chebyshev = stats.MeasureChebyshev
)

// AggFunc is a tumbling-window aggregation function for the on-aggregates
// problem variant.
type AggFunc = series.AggFunc

// Aggregation functions.
const (
	AggMean = series.AggMean
	AggSum  = series.AggSum
	AggMax  = series.AggMax
	AggMin  = series.AggMin
)

// Irregular is a compressed series: a strictly increasing subset of the
// original points. Decompress reconstructs the full series by linear
// interpolation.
type Irregular = series.Irregular

// Point is one retained sample.
type Point = series.Point

// Compress runs CAMEO on xs (paper Algorithm 1). The first and last points
// are always retained.
func Compress(xs []float64, opt Options) (*Result, error) {
	return core.Compress(xs, opt)
}

// CompressCoarse runs CAMEO with coarse-grained parallelization: the series
// is partitioned across goroutines with local deviation budgets and global
// synchronization rounds (paper §4.4). Combine with Options.Threads for the
// hybrid strategy.
func CompressCoarse(xs []float64, opt CoarseOptions) (*Result, error) {
	return core.CompressCoarse(xs, opt)
}

// CompressMulti compresses each channel of a multivariate series
// independently under the same options, bounding every channel's statistic
// deviation (the paper's multivariate extension). Channels run concurrently
// on up to workers goroutines.
func CompressMulti(channels [][]float64, opt Options, workers int) ([]*Result, error) {
	return core.CompressMulti(channels, opt, workers)
}

// Deviation recomputes the exact statistic deviation D(S(X), S(X')) between
// an original series and a compressed representation, for verification.
func Deviation(xs []float64, compressed *Irregular, opt Options) (float64, error) {
	return core.Deviation(xs, compressed, opt)
}

// InitialImpacts returns each point's initial ACF-removal impact (paper
// Algorithm 2); the first and last points report +Inf.
func InitialImpacts(xs []float64, opt Options) ([]float64, error) {
	return core.InitialImpacts(xs, opt)
}

// ACF computes the autocorrelation function of xs for lags 1..L using the
// paper's per-lag (Eq. 2) estimator.
func ACF(xs []float64, L int) []float64 { return acf.ACF(xs, L) }

// PACF computes the partial autocorrelation function for lags 1..L via the
// Durbin-Levinson recursion.
func PACF(xs []float64, L int) []float64 { return acf.PACF(xs, L) }

// Aggregate applies a tumbling-window aggregation (window kappa, function
// f) to xs, as used by the on-aggregates problem variant.
func Aggregate(xs []float64, kappa int, f AggFunc) []float64 {
	return series.Aggregate(xs, kappa, f)
}

// StreamCompressor compresses an unbounded series block-by-block with a
// per-block deviation guarantee — suited to IoT-style ingestion. Create
// with NewStreamCompressor, feed with Push, finish with Flush.
type StreamCompressor = core.StreamCompressor

// NewStreamCompressor builds a streaming compressor that cuts the input
// into blockSize-point blocks and compresses each independently under opt.
func NewStreamCompressor(opt Options, blockSize int) (*StreamCompressor, error) {
	return core.NewStreamCompressor(opt, blockSize)
}

// DecodeIrregular parses the compact binary format produced by
// Irregular.Encode (uvarint index deltas + XOR-compressed values).
func DecodeIrregular(data []byte) (*Irregular, error) {
	return series.DecodeIrregular(data)
}
