package codec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/series"
)

// CAMEO is the autocorrelation-preserving lossy codec: blocks are
// compressed with core.Compress under Opt and stored as the compact
// irregular-series encoding (uvarint index deltas + XOR-compressed values).
// It is the engine's default codec and the only one whose fidelity target
// is a downstream statistic (ACF/PACF deviation) rather than pointwise
// error.
//
// Each codec instance owns a pool of core.Compressor engines keyed, by
// construction, to its option set: concurrent block encoders (the tsdb
// worker pool) check an engine out per block and return it, so steady-state
// block compression reuses the engine's reconstruction buffers, heap
// arrays, and evaluation scratch instead of reallocating them per block.
//
// The zero value decodes any CAMEO block (decoding needs no options) but
// cannot encode; use NewCAMEO for an encoding-capable instance. A CAMEO
// must not be copied after first use (it contains a sync.Pool).
type CAMEO struct {
	Opt core.Options

	engines sync.Pool // *core.Compressor

	// Totals over every block encoded so far, added once per block (as its
	// payload is produced): impact evaluations computed in full and those
	// that reused cached cross terms (core.Result.Evals/CachedEvals),
	// evaluations over the lag sketch (SketchEvals), heap pops (Iterations),
	// and blocks by why their run ended (Stop).
	fullEvals, cachedEvals, sketchEvals, pops atomic.Uint64
	stops                                     [core.StopProbe + 1]atomic.Uint64
}

// NewCAMEO returns a CAMEO codec compressing under opt (Lags and Epsilon /
// TargetRatio required, as for core.Compress).
func NewCAMEO(opt core.Options) *CAMEO { return &CAMEO{Opt: opt} }

// Name returns "cameo".
func (*CAMEO) Name() string { return "cameo" }

// ID returns IDCAMEO.
func (*CAMEO) ID() uint8 { return IDCAMEO }

// Lossy reports true: decoding linearly interpolates between retained
// points.
func (*CAMEO) Lossy() bool { return true }

// MinBlock is the smallest block the configured statistic can be estimated
// on (the streaming minimum 4x lags, scaled by the aggregation window).
func (c *CAMEO) MinBlock() int {
	m := 4 * c.Opt.Lags
	if c.Opt.AggWindow >= 2 {
		m *= c.Opt.AggWindow
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Encode compresses one block under the configured options.
func (c *CAMEO) Encode(xs []float64) ([]byte, error) {
	data, _, err := c.EncodeWithRecon(xs)
	return data, err
}

// EncodeWithRecon compresses one block and returns the reconstruction the
// retained points interpolate to, saving callers the decode round-trip.
func (c *CAMEO) EncodeWithRecon(xs []float64) ([]byte, []float64, error) {
	cmp, _ := c.engines.Get().(*core.Compressor)
	if cmp == nil {
		var err error
		cmp, err = core.NewCompressor(c.Opt)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: cameo needs compression options (use NewCAMEO): %w", err)
		}
	}
	res, err := cmp.Compress(xs)
	c.engines.Put(cmp)
	if err != nil {
		return nil, nil, err
	}
	c.count(res)
	return res.Compressed.Encode(), res.Compressed.Decompress(), nil
}

func (c *CAMEO) count(res *core.Result) {
	c.fullEvals.Add(uint64(res.Evals - res.CachedEvals))
	c.cachedEvals.Add(uint64(res.CachedEvals))
	c.sketchEvals.Add(uint64(res.SketchEvals))
	c.pops.Add(uint64(res.Iterations))
	c.stops[res.Stop].Add(1)
}

// EvalTotals reports the evaluations behind every block this instance has
// encoded (batch and streamed): full impact evaluations, which paid the
// O(lags*gap) cross-product sums, cached ones, which reused them (the ratio
// of the two is the hit share of core's term cache), and sketch ones, which
// ranked candidates over the lag sketch of a large-lag shape (see
// core.Options.Lags). Their sum is the work units the blocks cost.
func (c *CAMEO) EvalTotals() (full, cached, sketch uint64) {
	return c.fullEvals.Load(), c.cachedEvals.Load(), c.sketchEvals.Load()
}

// RunTotals reports how the runs behind every block this instance has
// encoded went: heap pops in total — over the samples removed it is the
// pops-per-removal figure that dominates the loop at the default radius —
// and blocks by stop reason, indexed by core.Stop (StopProbe's share is the
// two-point probe's hit rate).
func (c *CAMEO) RunTotals() (pops uint64, blocks [core.StopProbe + 1]uint64) {
	for i := range c.stops {
		blocks[i] = c.stops[i].Load()
	}
	return c.pops.Load(), blocks
}

// NewBlockStream returns an incremental encode session backed by a
// core.StreamEngine: the session compresses one block at a time in bounded
// work steps, producing exactly the points (and therefore exactly the
// payload bytes) batch Encode would.
func (c *CAMEO) NewBlockStream() (BlockStream, error) {
	se, err := core.NewStreamEngine(c.Opt)
	if err != nil {
		return nil, fmt.Errorf("codec: cameo needs compression options (use NewCAMEO): %w", err)
	}
	return &cameoStream{c: c, se: se}, nil
}

// cameoStream adapts core.StreamEngine to the BlockStream interface.
type cameoStream struct {
	c  *CAMEO // for the per-block totals
	se *core.StreamEngine
}

func (s *cameoStream) Begin(xs []float64) error       { return s.se.Begin(xs) }
func (s *cameoStream) Advance(budget int) (int, bool) { return s.se.Advance(budget) }
func (s *cameoStream) Close()                         { s.se.Close() }
func (s *cameoStream) Payload() ([]byte, []float64, error) {
	res := s.se.Result()
	if res == nil {
		return nil, nil, fmt.Errorf("codec: cameo stream: block not finished")
	}
	s.c.count(res) // the protocol takes a block's payload once
	return res.Compressed.Encode(), res.Compressed.Decompress(), nil
}

// Decode parses the irregular-series encoding and reconstructs the dense
// block by linear interpolation. The sample count is validated against the
// block cap and the payload's own header before the dense reconstruction
// is allocated, so a hostile count cannot provoke a giant allocation.
func (c *CAMEO) Decode(data []byte, n int) ([]float64, error) {
	if n < 0 || n > MaxBlockSamples {
		return nil, fmt.Errorf("%w: bad sample count %d", ErrBadBlock, n)
	}
	ir, err := c.parse(data, n)
	if err != nil {
		return nil, err
	}
	return ir.Decompress(), nil
}

// parse decodes and validates the irregular payload against the header's
// sample count.
func (c *CAMEO) parse(data []byte, n int) (*series.Irregular, error) {
	ir, err := series.DecodeIrregular(data)
	if err != nil {
		return nil, err
	}
	if ir.N != n {
		return nil, fmt.Errorf("%w: cameo payload holds %d samples, header says %d", ErrBadBlock, ir.N, n)
	}
	return ir, nil
}

// DecodeRange interpolates only the retained points spanning [lo, hi),
// appending the reconstruction to dst — parsing stays O(points), but
// evaluation drops from O(n) to O(hi-lo). Bit-identical to the
// corresponding slice of Decode.
func (c *CAMEO) DecodeRange(data []byte, n, lo, hi int, dst []float64) ([]float64, error) {
	if err := checkRange(n, lo, hi); err != nil {
		return nil, err
	}
	ir, err := c.parse(data, n)
	if err != nil {
		return nil, err
	}
	return ir.DecompressRange(lo, hi, dst), nil
}

// DecodeRangeAgg computes sum/min/max/count over [lo, hi) from the
// retained points alone: the reconstruction is piecewise linear (constant
// before the first and after the last point), so each piece contributes in
// closed form and no samples are materialized.
func (c *CAMEO) DecodeRangeAgg(data []byte, n, lo, hi int) (RangeAgg, error) {
	return oneWindowAgg(c, data, n, lo, hi)
}

// DecodeWindowAggs folds [lo, hi) into step-sample windows in one pass
// over the retained points; no samples are materialized.
func (c *CAMEO) DecodeWindowAggs(data []byte, n, lo, hi, anchor, step int, aggs []RangeAgg) error {
	if err := checkWindows(n, lo, hi, anchor, step, aggs); err != nil {
		return err
	}
	ir, err := c.parse(data, n)
	if err != nil {
		return err
	}
	wa := newWindowAccs(lo, anchor, step, aggs)
	pts := ir.Points
	if len(pts) == 0 {
		wa.addConst(lo, hi, 0) // Decompress yields zeros for an empty point set
		return nil
	}
	// Constant hold before the first retained point.
	if head := min(hi, pts[0].Index); head > lo {
		wa.addConst(lo, head, pts[0].Value)
	}
	// Interior linear segments between consecutive retained points. Each
	// covers indices [a.Index, b.Index) with v(t) = a.Value + slope*(t -
	// a.Index) — the same expression Decompress evaluates.
	last := pts[len(pts)-1]
	if lo < last.Index && hi > pts[0].Index {
		j := sort.Search(len(pts), func(i int) bool { return pts[i].Index > max(lo, pts[0].Index) })
		for ; j < len(pts); j++ {
			a, b := pts[j-1], pts[j]
			if a.Index >= hi {
				break
			}
			// Every remaining pair overlaps: b.Index > lo by the search
			// start condition and increasing indices, and a.Index < hi per
			// the break above.
			t0, t1 := max(lo, a.Index), min(hi, b.Index)
			slope := (b.Value - a.Value) / float64(b.Index-a.Index)
			wa.addLinear(t0, t1, a.Index, a.Value, slope)
		}
	}
	// Constant hold from the last retained point on.
	if tail := max(lo, last.Index); tail < hi {
		wa.addConst(tail, hi, last.Value)
	}
	return nil
}
