package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/acf"
	"repro/internal/pheap"
	"repro/internal/series"
	"repro/internal/stats"
)

// referenceCompress reimplements the pre-optimization CAMEO pipeline (PR 2
// internal/core/cameo.go): a dense full-L tracker regardless of LagSubset,
// allocating feature projection (PACFFromACF + copy), per-candidate
// hypothetical evaluation through the generic measure, and the same greedy
// loop with lazy revalidation and blocking. Together with the acf-level
// reference test (which pins the aggregate kernel itself bit-for-bit
// against the old branchy update), it proves the rebuilt engine — compact
// trackers, fused MAE path, pooled buffers, persistent workers — retains
// exactly the same points.
//
// Sketch order (engine.armSketch) is mirrored naively: on the shapes it
// serves a second tracker over the sketch lags, listed afresh by
// refSketchLags, keys the heap through the generic measure, and a popped
// candidate is removed on its full-L impact or parked at +Inf.
type refEngine struct {
	opt         Options
	n           int
	cur, orig   []float64
	left, right []int32
	removed     []bool
	tracker     acf.Tracker
	base        []float64
	heap        *pheap.Heap
	sc          *acf.Scratch
	deltas      []float64
	featBuf     []float64
	sketch      acf.Tracker // nil: keys are exact impacts
	sketchBase  []float64
	ssc         *acf.Scratch
	dev         float64
	removedCnt  int
	iterations  int
	hops        int
}

func refFeature(opt Options, acfVec, buf []float64) []float64 {
	sub := opt.LagSubset
	src := acfVec
	if opt.Statistic == StatPACF {
		if len(sub) > 0 {
			src = acf.PACFFromACF(acfVec[:maxLag(sub)])
		} else {
			src = acf.PACFFromACF(acfVec)
		}
	}
	if len(sub) > 0 {
		for i, l := range sub {
			buf[i] = src[l-1]
		}
		return buf[:len(sub)]
	}
	copy(buf, src)
	return buf[:len(src)]
}

func newRefEngine(xs []float64, opt Options) *refEngine {
	n := len(xs)
	e := &refEngine{
		opt:     opt,
		n:       n,
		cur:     append([]float64(nil), xs...),
		orig:    append([]float64(nil), xs...),
		left:    make([]int32, n),
		right:   make([]int32, n),
		removed: make([]bool, n),
		hops:    opt.BlockHops,
		featBuf: make([]float64, opt.Lags),
	}
	if e.hops == 0 {
		e.hops = defaultBlockHops(n, opt.NoRevalidate)
	}
	if opt.AggWindow >= 2 {
		e.tracker = acf.NewWindowTracker(xs, opt.AggWindow, opt.AggFunc, opt.Lags)
	} else {
		e.tracker = acf.NewDirectTracker(xs, opt.Lags)
	}
	e.sc = e.tracker.NewScratch()
	for i := 0; i < n; i++ {
		e.left[i] = int32(i - 1)
		e.right[i] = int32(i + 1)
	}
	e.base = append([]float64(nil), refFeature(opt, e.tracker.ACF(), make([]float64, opt.Lags))...)
	if opt.Epsilon > 0 && opt.TargetRatio == 0 && n > 2 && opt.Statistic == StatACF &&
		len(opt.LagSubset) == 0 && opt.AggWindow == 0 && opt.Lags >= 96 {
		e.sketch = acf.NewDirectTrackerLags(xs, refSketchLags(opt.Lags))
		e.sketchBase = e.sketch.ACF()
		e.ssc = e.sketch.NewScratch()
	}
	keys := make([]float64, n)
	points := make([]int32, 0, max(0, n-2))
	for i := 1; i < n-1; i++ {
		points = append(points, int32(i))
	}
	for _, p := range points {
		keys[p] = e.key(p)
	}
	e.heap = pheap.New(n, points, keys)
	return e
}

func (e *refEngine) gapDeltas(p int32) (int, []float64) {
	l, r := e.left[p], e.right[p]
	start := int(l) + 1
	m := int(r) - start
	if cap(e.deltas) < m {
		e.deltas = make([]float64, m)
	}
	d := e.deltas[:m]
	y0, y1 := e.cur[l], e.cur[r]
	slope := (y1 - y0) / float64(r-l)
	for t := 0; t < m; t++ {
		d[t] = y0 + slope*float64(start+t-int(l)) - e.cur[start+t]
	}
	e.deltas = d
	return start, d
}

func (e *refEngine) impact(p int32) float64 {
	start, d := e.gapDeltas(p)
	hyp := e.tracker.Hypothetical(e.cur, start, d, e.sc)
	feat := refFeature(e.opt, hyp, e.featBuf)
	v := e.opt.Measure.Eval(feat, e.base)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// refSketchLags lists the distinct floor(1.25^k) below L, then L.
func refSketchLags(L int) []int {
	seen := map[int]bool{}
	var lags []int
	for k := 0; ; k++ {
		l := int(math.Floor(math.Pow(1.25, float64(k))))
		if l >= L {
			break
		}
		if !seen[l] {
			seen[l] = true
			lags = append(lags, l)
		}
	}
	return append(lags, L)
}

// key is p's heap key: its sketch deviation under sketch order, else its
// impact.
func (e *refEngine) key(p int32) float64 {
	if e.sketch == nil {
		return e.impact(p)
	}
	start, d := e.gapDeltas(p)
	v := e.opt.Measure.Eval(e.sketch.Hypothetical(e.cur, start, d, e.ssc), e.sketchBase)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

func (e *refEngine) run(epsilon, targetRatio float64) {
	alive := e.n - e.removedCnt
	for e.heap.Len() > 0 {
		if targetRatio > 0 && float64(e.n) >= targetRatio*float64(alive) {
			return
		}
		p, key := e.heap.Pop()
		e.iterations++
		var exact float64
		if e.sketch != nil {
			if !e.opt.NoRevalidate && e.heap.Len() > 0 {
				if sk := e.key(p); sk > e.heap.PeekKey() && sk > key {
					e.heap.Push(p, sk)
					continue
				}
			}
			if exact = e.impact(p); exact > epsilon {
				e.heap.Push(p, math.Inf(1))
				if math.IsInf(e.heap.PeekKey(), 1) {
					return
				}
				continue
			}
		} else {
			exact = e.impact(p)
			if !e.opt.NoRevalidate && e.heap.Len() > 0 && exact > e.heap.PeekKey() && exact > key {
				e.heap.Push(p, exact)
				continue
			}
			if epsilon > 0 && exact > epsilon {
				e.heap.Push(p, exact)
				return
			}
		}
		start, d := e.gapDeltas(p)
		e.tracker.Commit(e.cur, start, d)
		if e.sketch != nil {
			e.sketch.Commit(e.cur, start, d)
		}
		for i, dv := range d {
			e.cur[start+i] += dv
		}
		l, r := e.left[p], e.right[p]
		e.right[l] = r
		e.left[r] = l
		e.removed[p] = true
		e.removedCnt++
		e.dev = exact
		e.reHeap(p)
		alive--
	}
}

func (e *refEngine) reHeap(p int32) {
	l, r := e.left[p], e.right[p]
	hops := e.hops
	if hops < 0 {
		hops = e.n
	}
	for i, q := 0, l; i < hops && q > 0; i++ {
		e.heap.Fix(q, e.key(q))
		q = e.left[q]
	}
	for i, q := 0, r; i < hops && int(q) < e.n-1; i++ {
		e.heap.Fix(q, e.key(q))
		q = e.right[q]
	}
}

func referenceCompress(xs []float64, opt Options) *Result {
	if n := len(xs); opt.Epsilon > 0 && opt.TargetRatio == 0 && n > 2 {
		ends := &series.Irregular{N: n, Points: []series.Point{{Index: 0, Value: xs[0]}, {Index: n - 1, Value: xs[n-1]}}}
		if dev, _ := Deviation(xs, ends, opt); dev <= opt.Epsilon {
			return &Result{Compressed: ends, Deviation: dev, Removed: n - 2, Stop: StopProbe}
		}
	}
	e := newRefEngine(xs, opt)
	e.run(opt.Epsilon, opt.TargetRatio)
	pts := make([]series.Point, 0, e.n-e.removedCnt)
	for i := 0; i < e.n; i++ {
		if !e.removed[i] {
			pts = append(pts, series.Point{Index: i, Value: e.orig[i]})
		}
	}
	return &Result{
		Compressed: &series.Irregular{N: e.n, Points: pts},
		Deviation:  e.dev,
		Removed:    e.removedCnt,
		Iterations: e.iterations,
	}
}

func diffSeries(kind string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case "random":
			xs[i] = rng.NormFloat64() * 10
		case "seasonal":
			xs[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)/24) + 0.5*rng.NormFloat64()
		default: // constant
			xs[i] = 7
		}
	}
	return xs
}

// requireSameResult fails unless got retains bit-identical points (same
// indices, same values, same deviation, same iteration count) as want.
func requireSameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Removed != want.Removed || got.Iterations != want.Iterations {
		t.Fatalf("%s: removed/iterations %d/%d, reference %d/%d",
			name, got.Removed, got.Iterations, want.Removed, want.Iterations)
	}
	if math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
		t.Fatalf("%s: deviation %x, reference %x",
			name, math.Float64bits(got.Deviation), math.Float64bits(want.Deviation))
	}
	if len(got.Compressed.Points) != len(want.Compressed.Points) {
		t.Fatalf("%s: %d points, reference %d",
			name, len(got.Compressed.Points), len(want.Compressed.Points))
	}
	for i, p := range got.Compressed.Points {
		q := want.Compressed.Points[i]
		if p.Index != q.Index || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
			t.Fatalf("%s: point %d = (%d,%x), reference (%d,%x)",
				name, i, p.Index, math.Float64bits(p.Value), q.Index, math.Float64bits(q.Value))
		}
	}
}

// shrinkTermCache makes the term cache hold only slots rows of p lags for
// the rest of the test, so that a series several times longer evicts.
func shrinkTermCache(t *testing.T, slots, p int) {
	t.Helper()
	old := termCacheBytes
	termCacheBytes = slots * p * 8
	t.Cleanup(func() { termCacheBytes = old })
}

// TestOptimizedMatchesReference is the differential acceptance test: the
// optimized hot path must retain bit-identical points (same indices, same
// values, same deviation, same iteration count) as the pre-optimization
// pipeline across statistics, tracker shapes, and lag-subset
// configurations, on seeded random, seasonal, and constant series. The
// reference evaluates every impact afresh, so the last group of shapes —
// lags reaching past the blocking radius, a term cache a sixth of the
// series, every point re-evaluated per removal, eval workers — is what pins
// cached evaluations and their invalidation. The shapes from 96 lags up run
// in sketch order against the reference's naive mirror of it; there the
// cache serves the exact check and the commit, not the refreshes.
func TestOptimizedMatchesReference(t *testing.T) {
	configs := []struct {
		name       string
		opt        Options
		n          int // 0 = 700
		cacheSlots int // 0 = the default budget
	}{
		{name: "acf-eps", opt: Options{Lags: 16, Epsilon: 0.02}},
		{name: "acf-ratio", opt: Options{Lags: 16, TargetRatio: 6}},
		{name: "acf-hops-60", opt: Options{Lags: 16, Epsilon: 0.02, BlockHops: 60}},
		{name: "acf-subset", opt: Options{Lags: 24, Epsilon: 0.05, LagSubset: []int{1, 12, 24}}},
		{name: "acf-subset-unordered", opt: Options{Lags: 24, Epsilon: 0.05, LagSubset: []int{24, 1, 12, 12}}},
		{name: "pacf-eps", opt: Options{Lags: 10, Epsilon: 0.05, Statistic: StatPACF}},
		{name: "pacf-subset", opt: Options{Lags: 16, Epsilon: 0.05, Statistic: StatPACF, LagSubset: []int{2, 8}}},
		{name: "window-mean", opt: Options{Lags: 6, Epsilon: 0.02, AggWindow: 5, AggFunc: series.AggMean}},
		{name: "window-max", opt: Options{Lags: 6, Epsilon: 0.05, AggWindow: 5, AggFunc: series.AggMax}},
		{name: "window-subset", opt: Options{Lags: 6, Epsilon: 0.05, AggWindow: 5, AggFunc: series.AggMean, LagSubset: []int{2, 6}}},
		{name: "chebyshev", opt: Options{Lags: 16, Epsilon: 0.05, Measure: stats.MeasureChebyshev}},
		{name: "no-revalidate", opt: Options{Lags: 16, Epsilon: 0.02, NoRevalidate: true}},
		{name: "unblocked", opt: Options{Lags: 12, TargetRatio: 5, BlockHops: -1}},

		{name: "lags-past-hops", opt: Options{Lags: 160, Epsilon: 0.05}, n: 1200},
		{name: "lags-past-hops-exact", opt: Options{Lags: 80, Epsilon: 0.05}, n: 1200},
		{name: "sketch-rmse", opt: Options{Lags: 150, Epsilon: 0.05, Measure: stats.MeasureRMSE}, n: 900},
		{name: "sketch-no-revalidate", opt: Options{Lags: 150, Epsilon: 0.05, NoRevalidate: true}, n: 900},
		{name: "sketch-threads", opt: Options{Lags: 150, Epsilon: 0.05, Threads: 4}, n: 900},
		{name: "sketch-unblocked", opt: Options{Lags: 96, Epsilon: 0.05, BlockHops: -1}, n: 600},
		{name: "large-lags-ratio", opt: Options{Lags: 150, TargetRatio: 5}, n: 900},
		{name: "evicting", opt: Options{Lags: 16, Epsilon: 0.02}, n: 1500, cacheSlots: 256},
		{name: "evicting-subset", opt: Options{Lags: 24, Epsilon: 0.05, LagSubset: []int{1, 12, 24}}, n: 1500, cacheSlots: 256},
		{name: "evicting-pacf", opt: Options{Lags: 10, Epsilon: 0.05, Statistic: StatPACF}, n: 1500, cacheSlots: 256},
		{name: "unblocked-eps", opt: Options{Lags: 12, Epsilon: 0.02, BlockHops: -1}},
		{name: "threads", opt: Options{Lags: 16, Epsilon: 0.02, Threads: 4}},
		{name: "threads-evicting", opt: Options{Lags: 16, Epsilon: 0.02, Threads: 4}, n: 1500, cacheSlots: 256},
		{name: "threads-unblocked", opt: Options{Lags: 12, TargetRatio: 5, BlockHops: -1, Threads: 4}},
	}
	for _, kind := range []string{"random", "seasonal", "constant"} {
		for _, cfg := range configs {
			t.Run(kind+"/"+cfg.name, func(t *testing.T) {
				n := cfg.n
				if n == 0 {
					n = 700
				}
				xs := diffSeries(kind, n, 42)
				armed := cfg.opt.AggWindow == 0
				if cfg.cacheSlots > 0 {
					eng := newEngine(xs, cfg.opt)
					p := eng.tracker.Lags()
					eng.close()
					shrinkTermCache(t, cfg.cacheSlots, p)
				}
				eng := newEngine(xs, cfg.opt)
				if got := eng.cache.slots > 0; got != armed {
					t.Fatalf("term cache armed = %v, want %v", got, armed)
				}
				if cfg.cacheSlots > 0 && eng.cache.slots != cfg.cacheSlots {
					t.Fatalf("term cache has %d slots, want %d", eng.cache.slots, cfg.cacheSlots)
				}
				eng.close()
				got, err := Compress(xs, cfg.opt)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceCompress(xs, cfg.opt)
				requireSameResult(t, "Compress", got, want)
				sketched := cfg.opt.Lags >= 96 && cfg.opt.TargetRatio == 0 && got.Stop != StopProbe
				if sketched != (got.SketchEvals > 0) {
					t.Fatalf("%d sketch evaluations, sketch order expected = %v", got.SketchEvals, sketched)
				}
				if armed && !sketched && got.Stop != StopProbe && kind != "constant" && got.Removed > 0 && got.CachedEvals == 0 {
					t.Fatalf("no evaluation of %d reused cached terms", got.Evals)
				}
			})
		}
	}
}

// TestReusedEnginesMatchReference drives the two engine-reusing entry points
// over blocks of different lengths: a Compressor (whose tags from the
// previous block must not survive reset) and a StreamEngine advanced one
// work unit at a time (whose cache is armed mid-block, when the tracker is
// installed). At 16 lags the term cache is smaller than the longer blocks;
// at 150 the blocks run in sketch order, whose sketch tracker is armed
// after the probe step and must not leak into the next block either.
func TestReusedEnginesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		opt        Options
		cacheSlots int
		lengths    []int
	}{
		{Options{Lags: 16, Epsilon: 0.02}, 256, []int{1500, 300, 1100, 128, 1500}},
		{Options{Lags: 150, Epsilon: 0.05}, 0, []int{1500, 600, 1100, 700, 1500}},
	} {
		t.Run(fmt.Sprintf("lags-%d", tc.opt.Lags), func(t *testing.T) {
			testReusedEngines(t, tc.opt, tc.cacheSlots, tc.lengths)
		})
	}
}

func testReusedEngines(t *testing.T, opt Options, cacheSlots int, lengths []int) {
	if cacheSlots > 0 {
		shrinkTermCache(t, cacheSlots, opt.Lags)
	}
	cmp, err := NewCompressor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	se, err := NewStreamEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for i, n := range lengths {
		xs := diffSeries("seasonal", n, int64(i+1))
		want := referenceCompress(xs, opt)

		got, err := cmp.Compress(xs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "Compressor", got, want)

		if err := se.Begin(xs); err != nil {
			t.Fatal(err)
		}
		units := 0
		for {
			used, done := se.Advance(1)
			units += used
			if done {
				break
			}
		}
		got = se.Result()
		requireSameResult(t, "StreamEngine", got, want)
		// Units beyond the evaluations are the n samples fed to the
		// aggregate builder and the n the two-point probe is charged.
		if evals := got.Evals + got.SketchEvals; evals != units-2*n {
			t.Fatalf("L=%d block %d: %d evaluations, %d work units after the %d-sample build and probe", opt.Lags, i, evals, units-2*n, n)
		}
		if opt.Lags >= 96 {
			if got.SketchEvals == 0 {
				t.Fatalf("L=%d block %d: not in sketch order", opt.Lags, i)
			}
		} else if got.SketchEvals != 0 || got.CachedEvals == 0 || got.CachedEvals >= got.Evals {
			t.Fatalf("L=%d block %d: %d of %d evaluations cached, %d sketch evaluations", opt.Lags, i, got.CachedEvals, got.Evals, got.SketchEvals)
		}
	}
}

// TestTermCacheEntriesStayExact is the invalidation property: after every
// removal of a run, every entry the cache still marks valid holds, bit for
// bit, the terms a computation from the current state yields. A missed
// invalidation (a point within MaxLag of the change but beyond the blocking
// radius, say) fails here at the removal that caused it, not whenever the
// stale entry is next popped.
func TestTermCacheEntriesStayExact(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opt        Options
		n          int
		cacheSlots int
	}{
		{"default", Options{Lags: 24, Epsilon: 0.05}, 900, 0},
		{"lags-past-hops", Options{Lags: 150, Epsilon: 0.05, BlockHops: 3}, 900, 0},
		{"subset", Options{Lags: 48, Epsilon: 0.05, LagSubset: []int{1, 24, 48}}, 900, 0},
		{"evicting", Options{Lags: 8, Epsilon: 0.05}, 1200, 256},
		{"unblocked", Options{Lags: 8, TargetRatio: 4, BlockHops: -1}, 400, 0},
		{"threads", Options{Lags: 12, Epsilon: 0.05, Threads: 3}, 900, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := diffSeries("seasonal", tc.n, 11)
			if tc.cacheSlots > 0 {
				shrinkTermCache(t, tc.cacheSlots, tc.opt.Lags)
			}
			eng := newEngine(xs, tc.opt)
			defer eng.close()
			c := &eng.cache
			if c.slots == 0 {
				t.Fatal("term cache not armed")
			}
			fresh := eng.newEvalCtx()
			row := make([]float64, c.p)
			checked := 0
			for {
				for s, q := range c.tag {
					if q < 0 {
						continue
					}
					if eng.removed[q] {
						t.Fatalf("after %d removals: slot %d holds removed point %d", eng.removedCnt, s, q)
					}
					start, d := eng.gapDeltas(q, fresh)
					ds, dsq2 := c.direct.CrossTerms(eng.cur, start, d, row)
					if math.Float64bits(ds) != math.Float64bits(c.ds[s]) || math.Float64bits(dsq2) != math.Float64bits(c.dsq2[s]) {
						t.Fatalf("after %d removals: point %d has stale ds/dsq2", eng.removedCnt, q)
					}
					for i, v := range c.rows[s*c.p : (s+1)*c.p] {
						if math.Float64bits(v) != math.Float64bits(row[i]) {
							t.Fatalf("after %d removals: point %d has a stale cross product at position %d", eng.removedCnt, q, i)
						}
					}
					checked++
				}
				stop, _ := eng.run(stopConditions{epsilon: tc.opt.Epsilon, targetRatio: tc.opt.TargetRatio, maxRemovals: 1})
				if stop != stopBudget {
					break
				}
			}
			if eng.removedCnt < 50 || checked < 20*eng.removedCnt {
				t.Fatalf("weak run: %d removals, %d entries checked", eng.removedCnt, checked)
			}
		})
	}
}

// TestCompressorMatchesCompress proves engine pooling is observation-free:
// a reused Compressor yields bit-identical results to fresh Compress calls,
// including across different block lengths.
func TestCompressorMatchesCompress(t *testing.T) {
	opt := Options{Lags: 12, Epsilon: 0.05}
	cmp, err := NewCompressor(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	for i, n := range []int{300, 700, 300, 128, 700} {
		xs := diffSeries("seasonal", n, int64(i+1))
		got, err := cmp.Compress(xs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compress(xs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Removed != want.Removed || len(got.Compressed.Points) != len(want.Compressed.Points) ||
			math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
			t.Fatalf("block %d (n=%d): pooled result differs from fresh Compress", i, n)
		}
		for j, p := range got.Compressed.Points {
			q := want.Compressed.Points[j]
			if p.Index != q.Index || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
				t.Fatalf("block %d: point %d differs", i, j)
			}
		}
	}
}

// TestThreadedMatchesSerial pins the persistent-worker path to the serial
// one: parallel impact evaluation must not change results.
func TestThreadedMatchesSerial(t *testing.T) {
	xs := diffSeries("seasonal", 900, 3)
	serial, err := Compress(xs, Options{Lags: 16, Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := Compress(xs, Options{Lags: 16, Epsilon: 0.02, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Removed != threaded.Removed || serial.Iterations != threaded.Iterations {
		t.Fatalf("threaded run diverges: removed %d/%d iterations %d/%d",
			threaded.Removed, serial.Removed, threaded.Iterations, serial.Iterations)
	}
	for i, p := range serial.Compressed.Points {
		q := threaded.Compressed.Points[i]
		if p.Index != q.Index {
			t.Fatalf("point %d differs", i)
		}
	}
}

// TestImpactEvalZeroAllocs locks in the headline property: steady-state
// impact evaluation — gap interpolation, hypothetical ACF, feature
// projection, deviation measure — performs zero heap allocations for the
// direct tracker, and for PACF once the Durbin-Levinson scratch is warm.
// Where the term cache is armed it covers both kinds of evaluation: one that
// finds the point's cross terms and one that computes and keeps them.
func TestImpactEvalZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opt    Options
		cached bool
	}{
		{"acf-direct", Options{Lags: 48, Epsilon: 0.01}, true},
		{"acf-subset", Options{Lags: 48, Epsilon: 0.01, LagSubset: []int{1, 24, 48}}, true},
		{"pacf", Options{Lags: 24, Epsilon: 0.01, Statistic: StatPACF}, true},
		{"window", Options{Lags: 8, Epsilon: 0.01, AggWindow: 6, AggFunc: series.AggMean}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := diffSeries("seasonal", 2000, 9)
			eng := newEngine(xs, tc.opt)
			defer eng.close()
			if armed := eng.cache.slots > 0; armed != tc.cached {
				t.Fatalf("term cache armed = %v, want %v", armed, tc.cached)
			}
			ctx := eng.ctxs[0]
			// Warm the window-delta buffer once (it grows on first use).
			eng.impact(1000, ctx, true)
			before := ctx.cached
			if n := testing.AllocsPerRun(100, func() {
				eng.impact(1000, ctx, true)
			}); n != 0 {
				t.Fatalf("impact allocates %v per run, want 0", n)
			}
			if hit := ctx.cached > before; hit != tc.cached {
				t.Fatalf("evaluations served from cached terms = %v, want %v", hit, tc.cached)
			}
			if !tc.cached {
				return
			}
			before = ctx.cached
			if n := testing.AllocsPerRun(100, func() {
				eng.cache.drop(1000)
				eng.impact(1000, ctx, true)
			}); n != 0 {
				t.Fatalf("impact allocates %v per run computing the terms, want 0", n)
			}
			if ctx.cached != before {
				t.Fatal("a dropped entry was served from the cache")
			}
		})
	}
	t.Run("sketch", func(t *testing.T) {
		xs := diffSeries("seasonal", 2000, 9)
		eng := newEngine(xs, Options{Lags: 150, Epsilon: 0.01})
		defer eng.close()
		eng.armSketch()
		if eng.sketch == nil {
			t.Fatal("sketch not armed at 150 lags")
		}
		ctx := eng.ctxs[0]
		eng.sketchImpact(1000, ctx)
		if n := testing.AllocsPerRun(100, func() {
			eng.sketchImpact(1000, ctx)
		}); n != 0 {
			t.Fatalf("sketch evaluation allocates %v per run, want 0", n)
		}
	})
}

// TestSketchLags pins the sketch: the distinct floor(1.25^k) below L, then
// L, at most a fifth of the lags from sketchMinLags up.
func TestSketchLags(t *testing.T) {
	for L := sketchMinLags; L <= 1000; L++ {
		got, want := sketchLagsFor(L), refSketchLags(L)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("L=%d: sketch %v, want %v", L, got, want)
		}
		if 5*len(got) > L {
			t.Fatalf("L=%d: %d sketch lags, more than a fifth", L, len(got))
		}
	}
	if got := fmt.Sprint(sketchLagsFor(365)); got != "[1 2 3 4 5 7 9 11 14 18 22 28 35 44 55 69 86 108 135 169 211 264 330 365]" {
		t.Fatalf("L=365: sketch %s", got)
	}
	if n := len(sketchLagsFor(96)); n != 18 {
		t.Fatalf("L=96: %d sketch lags, want 18", n)
	}
}
