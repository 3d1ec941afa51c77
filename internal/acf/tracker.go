package acf

import "repro/internal/series"

// Tracker is the abstraction CAMEO's core uses to maintain the preserved
// statistic: it reports the current ACF, evaluates the hypothetical ACF
// after a contiguous block of reconstruction-value changes, and commits such
// changes. Implementations: direct per-point tracking (Definition 1) and
// tumbling-window aggregate tracking (Definition 2). Both come in a dense
// shape (lags 1..L) and a compact shape (a selected lag subset, §5.5); all
// ACF vectors are in position order (lag i+1 at index i for dense, the i-th
// selected lag for compact).
type Tracker interface {
	// Lags returns the number of maintained lag positions (L for dense
	// trackers, the subset size for compact ones).
	Lags() int
	// ACF returns the current ACF into a fresh slice.
	ACF() []float64
	// ACFInto evaluates the current ACF into dst (length Lags()), avoiding
	// the allocation for callers that own a buffer.
	ACFInto(dst []float64)
	// Hypothetical returns the ACF after changing reconstruction values at
	// [start, start+len(deltas)) by deltas, without committing. cur holds
	// values before the change. The result may alias sc's buffers.
	Hypothetical(cur []float64, start int, deltas []float64, sc *Scratch) []float64
	// Commit applies the change to the tracked aggregates. cur holds values
	// before the change; the caller updates cur afterwards.
	Commit(cur []float64, start int, deltas []float64)
	// NewScratch allocates a scratch buffer sized for this tracker.
	NewScratch() *Scratch
}

// DirectTracker tracks the ACF of the series itself (Definition 1).
type DirectTracker struct {
	agg *Aggregates
}

// NewDirectTracker builds a direct tracker over xs for lags 1..L. The
// initial aggregate extraction picks the direct or FFT path automatically.
func NewDirectTracker(xs []float64, L int) *DirectTracker {
	return &DirectTracker{agg: NewAggregatesAuto(xs, L)}
}

// NewDirectTrackerLags builds a compact direct tracker maintaining only the
// given lags (ascending, unique, >= 1): per-update cost is O(|lags|*m)
// instead of O(L*m).
func NewDirectTrackerLags(xs []float64, lags []int) *DirectTracker {
	return &DirectTracker{agg: NewAggregatesAutoLags(xs, lags)}
}

// Lags returns the number of maintained lag positions.
func (d *DirectTracker) Lags() int { return d.agg.Positions() }

// ACF returns the current ACF.
func (d *DirectTracker) ACF() []float64 { return d.agg.ACF() }

// ACFInto evaluates the current ACF into dst.
func (d *DirectTracker) ACFInto(dst []float64) { d.agg.ACFInto(dst) }

// Hypothetical evaluates the post-change ACF without mutation.
func (d *DirectTracker) Hypothetical(cur []float64, start int, deltas []float64, sc *Scratch) []float64 {
	return d.agg.HypotheticalACF(cur, start, deltas, sc)
}

// MaxLag returns the largest maintained lag: a hypothetical evaluation reads
// cur no further than this from the changed values.
func (d *DirectTracker) MaxLag() int { return d.agg.L }

// Interior reports whether a change of m values at start lies at least
// MaxLag from both series ends — the changes CrossTerms accepts.
func (d *DirectTracker) Interior(start, m int) bool { return d.agg.Interior(start, m) }

// CrossTerms computes the part of Hypothetical that depends only on the
// change and on cur within MaxLag of it (see Aggregates.CrossTerms); dsxx
// must have length Lags().
func (d *DirectTracker) CrossTerms(cur []float64, start int, deltas, dsxx []float64) (ds, dsq2 float64) {
	return d.agg.CrossTerms(cur, start, deltas, dsxx)
}

// HypotheticalFromTerms finishes Hypothetical from kept CrossTerms against
// the live aggregates, bit-identical to evaluating the change afresh.
func (d *DirectTracker) HypotheticalFromTerms(ds, dsq2 float64, dsxx []float64, sc *Scratch) []float64 {
	return d.agg.HypotheticalFromTerms(ds, dsq2, dsxx, sc)
}

// ApplyTerms is Commit for an Interior change whose CrossTerms the caller
// kept: the same aggregates bit for bit, in O(Lags()).
func (d *DirectTracker) ApplyTerms(ds, dsq2 float64, dsxx []float64) {
	d.agg.ApplyTerms(ds, dsq2, dsxx)
}

// Commit applies the change.
func (d *DirectTracker) Commit(cur []float64, start int, deltas []float64) {
	d.agg.Apply(cur, start, deltas)
}

// NewScratch allocates scratch sized for this tracker.
func (d *DirectTracker) NewScratch() *Scratch { return NewScratch(d.agg.Positions()) }

// WindowTracker tracks the ACF of Agg_kappa(X) — the Statistical Important
// Points on Aggregates problem (paper Definition 2, Eq. 10/11). It maintains
// the aggregated series a alongside the ACF aggregates of a.
type WindowTracker struct {
	agg   *Aggregates
	kappa int
	f     series.AggFunc
	a     []float64 // current aggregated values

	wbuf []float64 // scratch for window deltas (committed path)
}

// NewWindowTracker builds a tracker over the tumbling-window aggregation of
// xs with window size kappa, function f, and lags 1..L on the aggregated
// series.
func NewWindowTracker(xs []float64, kappa int, f series.AggFunc, L int) *WindowTracker {
	a := series.Aggregate(xs, kappa, f)
	return &WindowTracker{
		agg:   NewAggregatesAuto(a, L),
		kappa: kappa,
		f:     f,
		a:     a,
		wbuf:  make([]float64, 0, 16),
	}
}

// NewWindowTrackerLags builds a compact window tracker maintaining only the
// given lags of the aggregated series (ascending, unique, >= 1).
func NewWindowTrackerLags(xs []float64, kappa int, f series.AggFunc, lags []int) *WindowTracker {
	a := series.Aggregate(xs, kappa, f)
	return &WindowTracker{
		agg:   NewAggregatesAutoLags(a, lags),
		kappa: kappa,
		f:     f,
		a:     a,
		wbuf:  make([]float64, 0, 16),
	}
}

// Lags returns the number of maintained lag positions.
func (w *WindowTracker) Lags() int { return w.agg.Positions() }

// ACF returns the current ACF of the aggregated series.
func (w *WindowTracker) ACF() []float64 { return w.agg.ACF() }

// ACFInto evaluates the current ACF into dst.
func (w *WindowTracker) ACFInto(dst []float64) { w.agg.ACFInto(dst) }

// Kappa returns the window size.
func (w *WindowTracker) Kappa() int { return w.kappa }

// windowDeltas translates a contiguous block of X-value changes into the
// induced contiguous block of aggregate-value changes (Eq. 10/11): the first
// affected window index and the per-window deltas, written into buf (grown
// as needed) and returned. The window bounds advance incrementally and the
// aggregation-function dispatch is hoisted out of the per-window loop, so
// one evaluation derives each bound exactly once.
func (w *WindowTracker) windowDeltas(cur []float64, start int, deltas []float64, buf []float64) (int, []float64) {
	kappa := w.kappa
	end := start + len(deltas)
	w0 := start / kappa
	w1 := (end - 1) / kappa
	buf = buf[:0]
	lo := w0 * kappa
	switch w.f {
	case series.AggSum, series.AggMean:
		// Additive: the aggregate delta is the sum of member deltas
		// (scaled by the window length for the mean), as in Eq. 11.
		isMean := w.f == series.AggMean
		for wi := w0; wi <= w1; wi++ {
			hi := min(lo+kappa, len(cur))
			var d float64
			for t := max(lo, start); t < min(hi, end); t++ {
				d += deltas[t-start]
			}
			if isMean {
				d /= float64(hi - lo)
			}
			buf = append(buf, d)
			lo += kappa
		}
	default:
		// Semi-additive (max/min): recompute the window over the new
		// values (Eq. 11 discussion: Delta a_i = Agg(x-hat) - a_i).
		for wi := w0; wi <= w1; wi++ {
			hi := min(lo+kappa, len(cur))
			buf = append(buf, w.aggregateWindow(cur, lo, hi, start, deltas)-w.a[wi])
			lo += kappa
		}
	}
	return w0, buf
}

// aggregateWindow applies the aggregation function to window [lo,hi) using
// post-change values. The window splits into the sub-ranges outside and
// inside the changed block, each scanned branch-free.
func (w *WindowTracker) aggregateWindow(cur []float64, lo, hi, start int, deltas []float64) float64 {
	oLo := min(max(lo, start), hi)
	oHi := max(min(hi, start+len(deltas)), oLo)
	switch w.f {
	case series.AggMax:
		m := cur[lo]
		if lo >= oLo && lo < oHi {
			m += deltas[lo-start]
		}
		for t := lo + 1; t < oLo; t++ {
			if v := cur[t]; v > m {
				m = v
			}
		}
		for t := max(lo+1, oLo); t < oHi; t++ {
			if v := cur[t] + deltas[t-start]; v > m {
				m = v
			}
		}
		for t := max(lo+1, oHi); t < hi; t++ {
			if v := cur[t]; v > m {
				m = v
			}
		}
		return m
	case series.AggMin:
		m := cur[lo]
		if lo >= oLo && lo < oHi {
			m += deltas[lo-start]
		}
		for t := lo + 1; t < oLo; t++ {
			if v := cur[t]; v < m {
				m = v
			}
		}
		for t := max(lo+1, oLo); t < oHi; t++ {
			if v := cur[t] + deltas[t-start]; v < m {
				m = v
			}
		}
		for t := max(lo+1, oHi); t < hi; t++ {
			if v := cur[t]; v < m {
				m = v
			}
		}
		return m
	default:
		var s float64
		for t := lo; t < oLo; t++ {
			s += cur[t]
		}
		for t := oLo; t < oHi; t++ {
			s += cur[t] + deltas[t-start]
		}
		for t := oHi; t < hi; t++ {
			s += cur[t]
		}
		if w.f == series.AggMean {
			s /= float64(hi - lo)
		}
		return s
	}
}

// Hypothetical evaluates the post-change ACF of the aggregated series
// without mutation.
func (w *WindowTracker) Hypothetical(cur []float64, start int, deltas []float64, sc *Scratch) []float64 {
	w0, ad := w.windowDeltas(cur, start, deltas, sc.wdeltas)
	sc.wdeltas = ad // keep grown buffer
	return w.agg.HypotheticalACF(w.a, w0, ad, sc)
}

// Commit applies the change to the aggregated series and its ACF aggregates.
func (w *WindowTracker) Commit(cur []float64, start int, deltas []float64) {
	w0, ad := w.windowDeltas(cur, start, deltas, w.wbuf)
	w.wbuf = ad
	w.agg.Apply(w.a, w0, ad)
	for i, d := range ad {
		w.a[w0+i] += d
	}
}

// NewScratch allocates scratch sized for this tracker.
func (w *WindowTracker) NewScratch() *Scratch {
	sc := NewScratch(w.agg.Positions())
	sc.wdeltas = make([]float64, 0, 16)
	return sc
}
