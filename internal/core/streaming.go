package core

import (
	"errors"
	"runtime"

	"repro/internal/acf"
)

// StreamEngine spreads one block's CAMEO compression (Algorithm 1) across
// many small, bounded work steps so an ingest path can pay for compression
// incrementally as points arrive instead of all at once at block-cut time.
//
// The engine is a deterministic time-slicing of the batch engine: Advance
// performs exactly the operations batch Compress would perform, in the
// same order, just paused and resumed at work-unit boundaries. The
// retained points, deviation, and iteration count are therefore
// bit-identical to Compress(xs, opt) — the per-point error bound and the
// ACF-deviation budget hold not just approximately but exactly, and the
// encoded block is byte-identical to the batch encoder's.
//
// One work unit is one impact or sketch evaluation (or one sample fed to the
// incremental aggregate builder / two-point probe),
// the dominant cost of the algorithm; callers pace ingest by granting unit
// budgets sized to their latency target.
//
// A StreamEngine is reusable across blocks (Begin re-arms it) and is NOT
// safe for concurrent use. Close releases the persistent eval workers when
// Options.Threads >= 2; a finalizer backstops forgotten Closes.
type StreamEngine struct {
	opt     Options
	eng     *engine
	builder *acf.Builder

	phase streamPhase
	fed   int // samples fed to the builder
	built int // initial impacts computed
	res   *Result
}

type streamPhase int

const (
	streamIdle    streamPhase = iota
	streamAggs                // feeding the incremental aggregate builder
	streamTracker             // one-step tracker build (shapes the builder can't serve)
	streamProbe               // one-step two-point probe (engine.probe)
	streamImpacts             // chunked Alg. 2 initial impacts
	streamRun                 // budgeted Alg. 1 removal loop
	streamDone
)

// NewStreamEngine returns a streaming engine for opt.
func NewStreamEngine(opt Options) (*StreamEngine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := &StreamEngine{opt: opt}
	if opt.Threads >= 2 {
		runtime.SetFinalizer(s, (*StreamEngine).Close)
	}
	return s, nil
}

// Begin arms the engine for a new block. It performs the O(n) input copy
// and buffer set-up; all O(n*L) and removal work is deferred to Advance.
// xs must stay untouched by the caller until the block is done (the
// engine copies it, so mutation after Begin is safe but pointless).
func (s *StreamEngine) Begin(xs []float64) error {
	if s.phase != streamIdle && s.phase != streamDone {
		return errors.New("core: StreamEngine.Begin: previous block not finished")
	}
	if err := checkFinite(xs); err != nil {
		return err
	}
	if s.eng == nil {
		s.eng = &engine{}
	}
	s.eng.resetPre(xs, s.opt)
	s.res = nil
	s.fed, s.built = 0, 0
	// The incremental builder reproduces the batch direct extractor
	// bit-for-bit, so it is usable exactly when the batch path would pick
	// direct extraction: plain dense-ACF shapes that are not FFT-worthy
	// (the from-builder constructor re-checks the FFT gate at install
	// time). Windowed or lag-subset trackers fall back to a single-step
	// batch build — still off the block-cut critical path, just not
	// sample-sliced.
	if s.opt.AggWindow < 2 && len(s.opt.LagSubset) == 0 {
		if s.builder == nil || s.builder.L != s.eng.trackLags {
			s.builder = acf.NewBuilder(s.eng.trackLags)
		} else {
			s.builder.Reset()
		}
		s.phase = streamAggs
	} else {
		s.builder = nil
		s.phase = streamTracker
	}
	return nil
}

// Advance performs up to budget work units of compression and reports how
// many it used and whether the block is finished. Progress is guaranteed:
// every call on an unfinished block performs at least one unit. A finished
// block's result is available via Result until the next Begin.
func (s *StreamEngine) Advance(budget int) (used int, done bool) {
	if budget < 1 {
		budget = 1
	}
	e := s.eng
	for used < budget {
		switch s.phase {
		case streamAggs:
			k := min(budget-used, e.n-s.fed)
			s.builder.Append(e.orig[s.fed : s.fed+k]...)
			s.fed += k
			used += k
			if s.fed == e.n {
				if tr := acf.NewDirectTrackerFromBuilder(s.builder, e.orig); tr != nil {
					e.installTracker(tr)
				} else {
					// FFT-worthy shape: match the batch extractor.
					e.installTracker(e.buildTracker(e.orig))
				}
				s.phase = streamProbe
			}
		case streamTracker:
			e.installTracker(e.buildTracker(e.orig))
			used += e.n // one unsliced step; charge its O(n*L) cost coarsely
			s.phase = streamProbe
		case streamProbe:
			s.phase = streamImpacts
			if e.probes() {
				used += e.n // one unsliced step, as above
				if e.probe() {
					s.res = e.result(StopProbe)
					s.phase = streamDone
					return used, true
				}
				e.armSketch() // its O(n*sketch) build rides on the probe's units
			}
		case streamImpacts:
			k := min(budget-used, len(e.points)-s.built)
			e.initImpacts(s.built, s.built+k)
			s.built += k
			used += k
			if s.built == len(e.points) {
				e.armHeap()
				s.phase = streamRun
			}
		case streamRun:
			reason, u := e.run(stopConditions{
				epsilon:     s.opt.Epsilon,
				targetRatio: s.opt.TargetRatio,
				maxUnits:    budget - used,
			})
			used += u
			if reason == stopBudget {
				return used, false
			}
			s.res = e.result(reason)
			s.phase = streamDone
			return used, true
		case streamDone:
			return used, true
		default: // streamIdle: nothing armed
			return used, false
		}
	}
	return used, s.phase == streamDone
}

// Finish runs the block to completion on the calling goroutine.
func (s *StreamEngine) Finish() {
	if s.phase == streamIdle {
		return
	}
	for {
		if _, done := s.Advance(1 << 20); done {
			return
		}
	}
}

// Done reports whether the current block has finished.
func (s *StreamEngine) Done() bool { return s.phase == streamDone }

// Result returns the finished block's compression result, or nil if no
// block is finished. Valid until the next Begin.
func (s *StreamEngine) Result() *Result { return s.res }

// Close releases the persistent eval workers. The engine must not be used
// afterwards. Safe to call more than once.
func (s *StreamEngine) Close() {
	if s.eng != nil {
		s.eng.close()
		s.eng = nil
	}
	s.phase = streamIdle
	runtime.SetFinalizer(s, nil)
}
