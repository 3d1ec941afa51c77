package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/series"
	"repro/internal/stats"
)

// TestBoundHoldsAtEveryRadius is the guarantee the refresh radius must not
// touch: whatever stays stale in the heap, every popped candidate is
// revalidated before it is committed, so for any radius — the default, the
// smallest, the paper's, unbounded — the deviation recomputed from scratch
// from the retained points is within epsilon and both endpoints are kept.
// The large-lag shapes run in sketch order, whose keys see only a sketch of
// the lags: there the exact check at the pop is all that holds the bound.
func TestBoundHoldsAtEveryRadius(t *testing.T) {
	const n, eps = 768, 0.01
	shapes := []struct {
		name string
		opt  Options
	}{
		{"acf", Options{Lags: 24}},
		{"pacf", Options{Lags: 12, Statistic: StatPACF}},
		{"subset", Options{Lags: 24, LagSubset: []int{1, 12, 24}}},
		{"window", Options{Lags: 6, AggWindow: 4, AggFunc: series.AggMean}},
		{"acf-large-lags", Options{Lags: 150}},
	}
	check := func(name string, xs []float64, opt Options) {
		t.Helper()
		res, err := Compress(xs, opt)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := Deviation(xs, res.Compressed, opt)
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Compressed.Points
		n := len(xs)
		if !(dev <= opt.Epsilon*(1+1e-9)) || pts[0].Index != 0 || pts[len(pts)-1].Index != n-1 {
			t.Errorf("%s: recomputed deviation %g (eps %g), kept [%d..%d] of %d",
				name, dev, opt.Epsilon, pts[0].Index, pts[len(pts)-1].Index, n)
		}
		if sketched := res.SketchEvals > 0; res.Stop != StopProbe && sketched != (opt.Lags >= 96) {
			t.Errorf("%s: %d sketch evaluations at %d lags", name, res.SketchEvals, opt.Lags)
		}
	}
	for i, sp := range datasets.Replicas() {
		xs := sp.GenerateN(n, int64(i+1))
		for _, sh := range shapes {
			for _, h := range []int{0, 1, 4, 60, -1} {
				opt := sh.opt
				opt.Epsilon, opt.BlockHops = eps, h
				check(fmt.Sprintf("%s/%s/h=%d", sp.Name, sh.name, h), xs, opt)
			}
		}
	}
	// MinTemp at its paper length and lags, the shape sketch order is for.
	mt := datasets.MinTemp()
	xs := mt.GenerateN(mt.Length, 2)
	for _, m := range []stats.Measure{stats.MeasureMAE, stats.MeasureRMSE, stats.MeasureChebyshev} {
		check("MinTemp/"+m.String(), xs, Options{Lags: mt.Lags, Epsilon: eps, Measure: m})
	}
}

// rampSeries is a straight line with noise far below any epsilon: the two
// endpoints reconstruct it.
func rampSeries(n int, seed int64) []float64 { return noisyRamp(n, seed, 1e-6) }

// noisyRamp is a straight line plus Gaussian noise of standard deviation
// amp; the noise draws depend on seed only, so amp scales one fixed shape.
func noisyRamp(n int, seed int64, amp float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3 + 0.01*float64(i) + amp*rng.NormFloat64()
	}
	return xs
}

// TestProbeRefusesJustOverEpsilon is the probe's boundary: a ramp whose
// noise is scaled until the two-point reconstruction's deviation lies in
// (eps, 1.02 eps]. The probe must not take that block, and the heap loop's
// answer must honour eps. A probe that admits up to 1.02 eps fails here.
func TestProbeRefusesJustOverEpsilon(t *testing.T) {
	const n, eps = 500, 0.01
	opt := Options{Lags: 12, Epsilon: eps}
	twoPoint := func(xs []float64) float64 {
		ends := &series.Irregular{N: n, Points: []series.Point{{Index: 0, Value: xs[0]}, {Index: n - 1, Value: xs[n-1]}}}
		dev, err := Deviation(xs, ends, opt)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	// Bisect the amplitude geometrically between a ramp the probe takes and
	// one far over the bound.
	lo, hi := 1e-6, 10.0
	if d := twoPoint(noisyRamp(n, 1, lo)); !(d <= eps) {
		t.Fatalf("amplitude %g: two-point deviation %g already over eps", lo, d)
	}
	if d := twoPoint(noisyRamp(n, 1, hi)); !(d > 1.02*eps) {
		t.Fatalf("amplitude %g: two-point deviation %g not over 1.02 eps", hi, d)
	}
	var xs []float64
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatalf("no amplitude in [%g, %g] puts the two-point deviation in (eps, 1.02 eps]", lo, hi)
		}
		amp := math.Sqrt(lo * hi)
		xs = noisyRamp(n, 1, amp)
		d := twoPoint(xs)
		if d > eps && d <= 1.02*eps {
			break
		}
		if d <= eps {
			lo = amp
		} else {
			hi = amp
		}
	}
	res, err := Compress(xs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop == StopProbe {
		t.Fatalf("probe took a block whose two-point deviation %g exceeds eps %g", twoPoint(xs), eps)
	}
	dev, err := Deviation(xs, res.Compressed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !(dev <= eps) {
		t.Fatalf("recomputed deviation %g exceeds eps %g", dev, eps)
	}
}

// TestProbeFires pins when the two-point probe takes a run and what it
// reports: the deviation a verifier recomputes, bit for bit.
func TestProbeFires(t *testing.T) {
	pacfSubset := Options{Lags: 16, Epsilon: 0.05, Statistic: StatPACF, LagSubset: []int{2, 8}}
	for _, tc := range []struct {
		name string
		xs   []float64
		opt  Options
	}{
		{"ramp", rampSeries(500, 1), Options{Lags: 12, Epsilon: 0.01}},
		{"ramp-window", rampSeries(600, 2), Options{Lags: 6, Epsilon: 0.01, AggWindow: 5, AggFunc: series.AggMean}},
		// The reconstruction equals the input: deviation 0, the two points
		// the heap loop ends at after n-2 zero-impact removals.
		{"constant", diffSeries("constant", 300, 0), Options{Lags: 12, Epsilon: 0.01}},
		// Greedy stalls here: every remaining candidate's removal would
		// cross the bound although removing all of them at once does not.
		{"random/pacf-subset", diffSeries("random", 700, 42), pacfSubset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.xs)
			res, err := Compress(tc.xs, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != StopProbe || res.Removed != n-2 || res.Iterations != 0 || res.Evals != 0 || len(res.Compressed.Points) != 2 {
				t.Fatalf("stop %v, removed %d of %d, %d pops, %d evaluations, %d points", res.Stop, res.Removed, n, res.Iterations, res.Evals, len(res.Compressed.Points))
			}
			dev, err := Deviation(tc.xs, res.Compressed, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dev) != math.Float64bits(res.Deviation) || !(dev <= tc.opt.Epsilon) {
				t.Fatalf("reported deviation %v, recomputed %v, eps %v", res.Deviation, dev, tc.opt.Epsilon)
			}
			// The heap loop on its own can only do as well or worse.
			e := newRefEngine(tc.xs, tc.opt)
			e.run(tc.opt.Epsilon, 0)
			if e.removedCnt > res.Removed {
				t.Fatalf("heap loop removed %d, probe %d", e.removedCnt, res.Removed)
			}
			if tc.name == "random/pacf-subset" && e.removedCnt == res.Removed {
				t.Fatal("greedy no longer stalls on this shape: pick another")
			}
		})
	}
}

// TestProbeDoesNotFire covers the runs the probe must leave alone: a ratio
// stop (the two-point answer overshoots it), a series the endpoints do not
// reconstruct, one with no interior point, and InitialImpacts, whose callers
// read every key.
func TestProbeDoesNotFire(t *testing.T) {
	ramp := rampSeries(500, 1)
	for _, tc := range []struct {
		name string
		xs   []float64
		opt  Options
		stop Stop
	}{
		{"target-ratio", ramp, Options{Lags: 12, Epsilon: 0.01, TargetRatio: 4}, StopRatio},
		{"ratio-only", ramp, Options{Lags: 12, TargetRatio: 4}, StopRatio},
		{"seasonal", diffSeries("seasonal", 500, 3), Options{Lags: 12, Epsilon: 0.01}, StopBound},
		{"two-points", ramp[:2], Options{Lags: 1, Epsilon: 0.01}, StopDone},
		{"one-point", ramp[:1], Options{Lags: 1, Epsilon: 0.01}, StopDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Compress(tc.xs, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != tc.stop {
				t.Fatalf("stop %v, want %v", res.Stop, tc.stop)
			}
			if n := len(tc.xs); n > 2 && res.Evals < n-2 {
				t.Fatalf("%d evaluations: the heap was not built", res.Evals)
			}
		})
	}
	keys, err := InitialImpacts(ramp, Options{Lags: 12, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[1 : len(keys)-1] {
		if math.IsInf(k, 0) || math.IsNaN(k) {
			t.Fatalf("InitialImpacts: point %d has key %v", i+1, k)
		}
	}
}

// TestEntryPointsAgreeOnProbedBlocks runs probed and unprobed blocks,
// interleaved, through a fresh Compress, a reused Compressor and a
// StreamEngine advanced one work unit at a time: same points, deviation,
// iterations, evaluations and stop reason, and an engine a probe ended is
// re-armed cleanly for the next block.
func TestEntryPointsAgreeOnProbedBlocks(t *testing.T) {
	opt := Options{Lags: 16, Epsilon: 0.02}
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
	blocks := [][]float64{
		rampSeries(900, 1), diffSeries("seasonal", 700, 2), rampSeries(300, 3),
		rampSeries(1100, 4), diffSeries("seasonal", 1100, 5), diffSeries("random", 400, 6),
	}
	probed := 0
	for i, xs := range blocks {
		want, err := Compress(xs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stop == StopProbe {
			probed++
		}
		pooled, err := cmp.Compress(xs)
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Begin(xs); err != nil {
			t.Fatal(err)
		}
		units := 0
		for done := false; !done; {
			var used int
			used, done = se.Advance(1)
			units += used
		}
		for name, got := range map[string]*Result{"Compressor": pooled, "StreamEngine": se.Result()} {
			requireSameResult(t, name, got, want)
			if got.Stop != want.Stop || got.Evals != want.Evals {
				t.Fatalf("block %d: %s stop %v after %d evaluations, Compress %v after %d", i, name, got.Stop, got.Evals, want.Stop, want.Evals)
			}
		}
		// The builder's n samples, the probe's n, then the evaluations.
		if units != 2*len(xs)+want.Evals+want.SketchEvals {
			t.Fatalf("block %d: %d work units for %d samples and %d evaluations", i, units, len(xs), want.Evals)
		}
	}
	if probed != 3 {
		t.Fatalf("%d of %d blocks probed, want the 3 ramps", probed, len(blocks))
	}
}
