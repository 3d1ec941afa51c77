package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/series"
	"repro/internal/stats"
)

// Statistic selects the preserved statistic S (paper Definition 1).
type Statistic int

// Supported statistics.
const (
	// StatACF preserves the autocorrelation function (the paper's default).
	StatACF Statistic = iota
	// StatPACF preserves the partial autocorrelation function via the
	// Durbin-Levinson recursion — O(L^2) per evaluation (paper §5.5).
	StatPACF
)

// String returns the statistic's name.
func (s Statistic) String() string {
	switch s {
	case StatACF:
		return "ACF"
	case StatPACF:
		return "PACF"
	default:
		return "unknown"
	}
}

// Options configures a CAMEO compression run. The zero value is not valid:
// Lags must be positive and at least one of Epsilon / TargetRatio set.
type Options struct {
	// Lags is the number of ACF/PACF lags L to preserve (required).
	//
	// From 96 lags up, a plain ACF bound (Epsilon set, no TargetRatio,
	// LagSubset or AggWindow) ranks candidates on a sketch of geometrically
	// spaced lags (1, 2, 3, 4, 5, 7, 9, ..., L; 18 at L = 96, 24 at 365):
	// the heap is ordered by the deviation over the sketch, which is cheap
	// to refresh.
	// Whether a candidate is removed is still decided on all L lags, so
	// Epsilon and Result.Deviation mean what they mean at any L.
	Lags int

	// Epsilon bounds the deviation D(S(X), S(X')) <= Epsilon
	// (Definitions 1 and 2). Ignored if zero and TargetRatio is set.
	Epsilon float64

	// TargetRatio, when positive, switches to (or combines with) the
	// compression-centric formulation (Definition 3): removal halts once
	// |X| / |X'| >= TargetRatio. When Epsilon is also positive, the bound
	// still holds and the ratio acts as an early stop (used by the paper's
	// runtime experiments, §5.5).
	TargetRatio float64

	// Statistic selects ACF (default) or PACF preservation.
	Statistic Statistic

	// Measure is the deviation measure D (default MAE, the paper's default).
	Measure stats.Measure

	// AggWindow, when >= 2, preserves the statistic on tumbling-window
	// aggregates of the series (Definition 2) with window size kappa =
	// AggWindow and function AggFunc.
	AggWindow int

	// AggFunc is the aggregation function for AggWindow (default mean).
	AggFunc series.AggFunc

	// BlockHops is the blocking neighbourhood size h (paper §4.3): after a
	// removal only the h nearest alive neighbours on each side get their
	// impact recomputed. 0 selects the default: 4, because every popped
	// candidate is revalidated exactly and re-pushed when it is no longer
	// the minimum (lazy greedy), which restores the greedy order whatever
	// the radius left stale — or the paper's 5*ceil(log2 n) with
	// NoRevalidate, whose stale keys are trusted. Negative disables
	// blocking (update every remaining point — "w/b" in Table 3).
	BlockHops int

	// Threads enables fine-grained parallelization (paper §4.4): impact
	// recomputation inside ReHeap and the initial heap build are split
	// across this many goroutines. Values < 2 run single-threaded.
	Threads int

	// LagSubset, when non-empty, constrains only the listed lags (1-based,
	// each <= Lags) instead of all of 1..Lags — the paper's proposed
	// speed/fidelity trade-off of "preserving specific lags" (§5.5), useful
	// for targeting exactly the seasonal lags a forecaster relies on.
	LagSubset []int

	// NoRevalidate disables the exact impact recomputation of the popped
	// heap candidate (an ablation knob: stale blocked impacts are then
	// trusted as-is, trading guarantee sharpness for fewer evaluations;
	// the deviation bound still holds because the bound check itself uses
	// the recomputed value only when revalidation is on — with it off, the
	// check uses a fresh evaluation too, only the re-push-and-retry step is
	// skipped).
	NoRevalidate bool
}

// ErrNoStopCondition is returned when neither Epsilon nor TargetRatio is set.
var ErrNoStopCondition = errors.New("core: set Epsilon and/or TargetRatio")

// Validate checks the options for consistency.
func (o *Options) Validate() error {
	if o.Lags <= 0 {
		return fmt.Errorf("core: Lags must be positive, got %d", o.Lags)
	}
	if o.Epsilon < 0 || math.IsNaN(o.Epsilon) {
		return fmt.Errorf("core: Epsilon must be non-negative, got %v", o.Epsilon)
	}
	if o.TargetRatio < 0 || math.IsNaN(o.TargetRatio) {
		return fmt.Errorf("core: TargetRatio must be non-negative, got %v", o.TargetRatio)
	}
	if o.Epsilon == 0 && o.TargetRatio == 0 {
		return ErrNoStopCondition
	}
	if o.TargetRatio > 0 && o.TargetRatio < 1 {
		return fmt.Errorf("core: TargetRatio must be >= 1, got %v", o.TargetRatio)
	}
	if o.Statistic != StatACF && o.Statistic != StatPACF {
		return fmt.Errorf("core: unknown statistic %d", int(o.Statistic))
	}
	if o.AggWindow == 1 {
		return errors.New("core: AggWindow must be 0 (direct) or >= 2")
	}
	if o.AggWindow < 0 {
		return fmt.Errorf("core: AggWindow must be non-negative, got %d", o.AggWindow)
	}
	for _, l := range o.LagSubset {
		if l < 1 || l > o.Lags {
			return fmt.Errorf("core: LagSubset entry %d outside [1, %d]", l, o.Lags)
		}
	}
	return nil
}

// defaultBlockHops returns the default blocking neighbourhood. With pop
// revalidation the radius only has to keep the keys near a removal fresh
// enough that few pops are re-pushed: 4 a side, measured (ROADMAP
// performance model). Trusting stale keys (noRevalidate) needs the paper's
// 5*ceil(log2 n) — factors of log n between 5 and 15 are near-optimal (§5.4).
func defaultBlockHops(n int, noRevalidate bool) int {
	if !noRevalidate {
		return 4
	}
	if n <= 2 {
		return 1
	}
	h := 5 * int(math.Ceil(math.Log2(float64(n))))
	if h < 1 {
		h = 1
	}
	return h
}

// Stop says why a compression run ended.
type Stop uint8

// Stop reasons. Results merged from several runs (CompressCoarse,
// StreamCompressor.Flush) carry StopNone.
const (
	StopNone   Stop = iota
	StopDone        // heap exhausted: every interior point removed
	StopBound       // least-impact candidate violates epsilon (terminal)
	StopRatio       // target compression ratio reached (terminal)
	StopProbe       // the two endpoints alone were within epsilon
	stopBudget      // maxRemovals/maxUnits exhausted (resumable; never in a Result)
)

// String returns the reason's metric label.
func (s Stop) String() string {
	return [...]string{"none", "done", "bound", "ratio", "probe", "budget"}[s]
}

// Result reports the outcome of a compression run.
type Result struct {
	// Compressed holds the retained points.
	Compressed *series.Irregular
	// Deviation is the final D(S(X), S(X')) of the committed result.
	Deviation float64
	// Removed is the number of points eliminated.
	Removed int
	// Iterations counts heap pops (including revalidation re-pushes).
	Iterations int
	// Stop is why the run ended.
	Stop Stop
	// Evals counts impact evaluations over all L lags: one per interior
	// point for the initial heap, one per pop, one per neighbour
	// re-evaluated after a removal. Evals + SketchEvals are the work units
	// StreamEngine.Advance budgets.
	Evals int
	// CachedEvals is the part of Evals that reused the candidate's cross
	// terms (an O(L) evaluation instead of O(L*gap)).
	CachedEvals int
	// SketchEvals counts evaluations over the lag sketch (see Lags). Where
	// the sketch is engaged the initial heap, the refreshed neighbours and
	// the pops' revalidations are sketch evaluations, and Evals counts the
	// pops that went on to the exact check.
	SketchEvals int
}

// CompressionRatio returns |X| / |X'| for the result.
func (r *Result) CompressionRatio() float64 { return r.Compressed.CompressionRatio() }
