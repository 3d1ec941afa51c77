package core

import (
	"math"
	"math/rand"
	"testing"
)

// streamTestSeries generates the differential corpus: the series families
// the ISSUE calls out (random, seasonal, constant) plus hostile-but-finite
// float patterns (denormals, huge magnitude swings, long zero runs).
func streamTestSeries(kind string, n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	switch kind {
	case "random":
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
	case "seasonal":
		for i := range xs {
			xs[i] = 5*math.Sin(2*math.Pi*float64(i)/48) + math.Cos(2*math.Pi*float64(i)/12) + 0.2*r.NormFloat64()
		}
	case "constant":
		for i := range xs {
			xs[i] = 42.5
		}
	case "hostile":
		for i := range xs {
			switch i % 5 {
			case 0:
				xs[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
			case 1:
				xs[i] = r.NormFloat64() * 1e15
			case 2:
				xs[i] = 0
			case 3:
				xs[i] = -r.Float64() * 1e-300
			default:
				xs[i] = math.Nextafter(1, 2) * float64(r.Intn(3)-1)
			}
		}
	default:
		panic("unknown series kind " + kind)
	}
	return xs
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Removed != want.Removed || got.Iterations != want.Iterations || got.Deviation != want.Deviation {
		t.Fatalf("%s: counters differ: got (removed=%d iter=%d dev=%v) want (removed=%d iter=%d dev=%v)",
			label, got.Removed, got.Iterations, got.Deviation, want.Removed, want.Iterations, want.Deviation)
	}
	if got.Compressed.N != want.Compressed.N || len(got.Compressed.Points) != len(want.Compressed.Points) {
		t.Fatalf("%s: shape differs: got n=%d pts=%d want n=%d pts=%d", label,
			got.Compressed.N, len(got.Compressed.Points), want.Compressed.N, len(want.Compressed.Points))
	}
	for i, p := range want.Compressed.Points {
		q := got.Compressed.Points[i]
		if q.Index != p.Index || q.Value != p.Value {
			t.Fatalf("%s: point %d differs: got (%d,%v) want (%d,%v)", label, i, q.Index, q.Value, p.Index, p.Value)
		}
	}
}

// TestStreamEngineMatchesBatch is the tentpole differential: for every
// series family, option shape, and advance quantum, the streaming engine
// must retain exactly the batch engine's points with the same deviation —
// bit-identical, not merely within tolerance. This is what makes the
// per-point error bound and ACF budget of streaming mode inherit batch
// mode's guarantees outright.
func TestStreamEngineMatchesBatch(t *testing.T) {
	opts := []Options{
		{Lags: 24, Epsilon: 0.05},
		{Lags: 24, Epsilon: 0.05, Threads: 2},
		{Lags: 12, TargetRatio: 4},
		{Lags: 24, Epsilon: 0.02, Statistic: StatPACF},
		{Lags: 24, Epsilon: 0.05, LagSubset: []int{1, 5, 24}},
		{Lags: 24, Epsilon: 0.05, AggWindow: 4},
		{Lags: 400, Epsilon: 0.05}, // FFT-worthy: exercises the builder fallback
	}
	for _, kind := range []string{"random", "seasonal", "constant", "hostile"} {
		for oi, opt := range opts {
			xs := streamTestSeries(kind, 512, int64(100+oi))
			want, err := Compress(xs, opt)
			if err != nil {
				t.Fatalf("%s/opt%d: batch: %v", kind, oi, err)
			}
			se, err := NewStreamEngine(opt)
			if err != nil {
				t.Fatalf("%s/opt%d: NewStreamEngine: %v", kind, oi, err)
			}
			// Single-unit quanta are the strongest ordering probe but cost
			// ~n Advance calls per block; exercise them on the default
			// config and spot-check the exotic ones with coarser quanta.
			quanta := []int{1, 7, 64, 1 << 30}
			if oi > 0 {
				quanta = []int{7, 1 << 30}
			}
			for _, quantum := range quanta {
				if err := se.Begin(xs); err != nil {
					t.Fatalf("%s/opt%d/q%d: Begin: %v", kind, oi, quantum, err)
				}
				steps := 0
				for {
					used, done := se.Advance(quantum)
					steps++
					if used < 1 {
						t.Fatalf("%s/opt%d/q%d: Advance made no progress", kind, oi, quantum)
					}
					if done {
						break
					}
					if steps > 1<<22 {
						t.Fatalf("%s/opt%d/q%d: no convergence after %d steps", kind, oi, quantum, steps)
					}
				}
				if !se.Done() {
					t.Fatalf("%s/opt%d/q%d: Done() false after completion", kind, oi, quantum)
				}
				sameResult(t, kind, se.Result(), want)
			}
			se.Close()
		}
	}
}

// TestStreamEngineErrorBound verifies the Definition 3 guarantee directly
// on streaming output: the deviation reported never exceeds epsilon, and
// recomputing the ACF deviation of the reconstruction from scratch agrees.
func TestStreamEngineErrorBound(t *testing.T) {
	opt := Options{Lags: 24, Epsilon: 0.05}
	se, err := NewStreamEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for _, kind := range []string{"random", "seasonal", "hostile"} {
		xs := streamTestSeries(kind, 768, 7)
		if err := se.Begin(xs); err != nil {
			t.Fatal(err)
		}
		se.Finish()
		res := se.Result()
		if res.Deviation > opt.Epsilon {
			t.Fatalf("%s: deviation %v exceeds epsilon %v", kind, res.Deviation, opt.Epsilon)
		}
		dev, err := Deviation(xs, res.Compressed, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dev > opt.Epsilon {
			t.Fatalf("%s: recomputed deviation %v exceeds epsilon %v", kind, dev, opt.Epsilon)
		}
	}
}

// TestStreamEngineMisuse pins the guard rails: double Begin, non-finite
// input, Result before completion.
func TestStreamEngineMisuse(t *testing.T) {
	se, err := NewStreamEngine(Options{Lags: 8, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if err := se.Begin([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("Begin accepted NaN input")
	}
	xs := streamTestSeries("seasonal", 256, 1)
	if err := se.Begin(xs); err != nil {
		t.Fatalf("Begin after rejected input: %v", err)
	}
	if se.Result() != nil {
		t.Fatal("Result non-nil before completion")
	}
	if _, done := se.Advance(1); done {
		t.Fatal("256-sample block done after one unit")
	}
	if err := se.Begin(xs); err == nil {
		t.Fatal("Begin accepted while a block was in flight")
	}
	se.Finish()
	if se.Result() == nil {
		t.Fatal("Result nil after Finish")
	}
	if err := se.Begin(xs); err != nil {
		t.Fatalf("Begin on finished engine: %v", err)
	}
	se.Finish()
}

// FuzzStreamVsBatch drives the differential with fuzzer-chosen values,
// epsilon, advance quantum and lag count (16, or 150 for sketch order).
// Non-finite inputs must be rejected by both paths; finite ones must produce
// bit-identical results.
func FuzzStreamVsBatch(f *testing.F) {
	f.Add(uint64(1), 0.05, 3, 64, false)
	f.Add(uint64(42), 0.5, 1, 200, false)
	f.Add(uint64(7), 0.001, 1000, 33, false)
	f.Add(uint64(3), 0.05, 7, 512, true)
	f.Add(uint64(11), 0.01, 1, 450, true)
	f.Fuzz(func(t *testing.T, seed uint64, eps float64, quantum, n int, largeLags bool) {
		if n < 0 || n > 512 {
			n = 512
		}
		if quantum < 1 {
			quantum = 1
		}
		if !(eps > 0) || eps > 1e6 {
			eps = 0.05
		}
		r := rand.New(rand.NewSource(int64(seed)))
		xs := make([]float64, n)
		for i := range xs {
			switch r.Intn(8) {
			case 0:
				xs[i] = r.NormFloat64() * 1e12
			case 1:
				xs[i] = r.Float64() * 1e-200
			default:
				xs[i] = math.Sin(float64(i)/9) + r.NormFloat64()
			}
		}
		opt := Options{Lags: 16, Epsilon: eps}
		if largeLags {
			opt.Lags = 150
		}
		want, batchErr := Compress(xs, opt)
		se, err := NewStreamEngine(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		if err := se.Begin(xs); err != nil {
			if batchErr == nil {
				t.Fatalf("stream rejected what batch accepted: %v", err)
			}
			return
		}
		if batchErr != nil {
			t.Fatalf("stream accepted what batch rejected: %v", batchErr)
		}
		for {
			if _, done := se.Advance(quantum); done {
				break
			}
		}
		got := se.Result()
		sameResult(t, "fuzz", got, want)
		if got.Evals != want.Evals || got.SketchEvals != want.SketchEvals {
			t.Fatalf("stream ran %d+%d evaluations, batch %d+%d", got.Evals, got.SketchEvals, want.Evals, want.SketchEvals)
		}
	})
}
