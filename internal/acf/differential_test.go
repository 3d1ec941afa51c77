package acf

import (
	"math"
	"math/rand"
	"testing"
)

// Reference implementation of the pre-optimization hot path: hypothetical
// evaluation copies the five aggregate slices and applies the textbook
// branchy per-point update (the exact code this kernel replaced). The
// optimized path must reproduce it BIT FOR BIT — same floating-point
// operations in the same order — so compression results are unchanged.

type refAggs struct {
	n, L                    int
	lags                    []int // maintained lags (1..L when dense)
	sx, sxl, sxx, sx2, sx2l []float64
}

func refFromAggregates(a *Aggregates) *refAggs {
	r := &refAggs{
		n:    a.N,
		L:    a.L,
		sx:   append([]float64(nil), a.sx...),
		sxl:  append([]float64(nil), a.sxl...),
		sxx:  append([]float64(nil), a.sxx...),
		sx2:  append([]float64(nil), a.sx2...),
		sx2l: append([]float64(nil), a.sx2l...),
	}
	if a.lags == nil {
		for l := 1; l <= a.L; l++ {
			r.lags = append(r.lags, l)
		}
	} else {
		for _, l := range a.lags {
			r.lags = append(r.lags, int(l))
		}
	}
	return r
}

// refApplyTo is the original branchy Eq. 8/9 update loop (PR 2
// internal/acf/aggregates.go applyTo), generalized only to iterate the
// maintained lag set.
func (r *refAggs) refApplyTo(cur []float64, start int, deltas []float64, sx, sxl, sxx, sx2, sx2l []float64) {
	n := r.n
	m := len(deltas)
	for i, l := range r.lags {
		if l >= n {
			continue
		}
		var dsx, dsxl, dsxx, dsx2, dsx2l float64
		for j := 0; j < m; j++ {
			d := deltas[j]
			if d == 0 {
				continue
			}
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			if k <= n-1-l {
				dsx += d
				dsx2 += dsq
			}
			if k >= l {
				dsxl += d
				dsx2l += dsq
			}
			if k >= l {
				dsxx += d * cur[k-l]
			}
			if k+l < n {
				dsxx += d * cur[k+l]
				if j+l < m {
					dsxx += d * deltas[j+l]
				}
			}
		}
		sx[i] += dsx
		sxl[i] += dsxl
		sxx[i] += dsxx
		sx2[i] += dsx2
		sx2l[i] += dsx2l
	}
}

func (r *refAggs) apply(cur []float64, start int, deltas []float64) {
	r.refApplyTo(cur, start, deltas, r.sx, r.sxl, r.sxx, r.sx2, r.sx2l)
}

// hypothetical is the original copy-then-update evaluation.
func (r *refAggs) hypothetical(cur []float64, start int, deltas []float64) []float64 {
	sx := append([]float64(nil), r.sx...)
	sxl := append([]float64(nil), r.sxl...)
	sxx := append([]float64(nil), r.sxx...)
	sx2 := append([]float64(nil), r.sx2...)
	sx2l := append([]float64(nil), r.sx2l...)
	r.refApplyTo(cur, start, deltas, sx, sxl, sxx, sx2, sx2l)
	out := make([]float64, len(r.lags))
	for i, l := range r.lags {
		m := float64(r.n - l)
		out[i] = corrFromAggregates(m, sx[i], sxl[i], sxx[i], sx2[i], sx2l[i])
	}
	return out
}

func (r *refAggs) acf() []float64 {
	out := make([]float64, len(r.lags))
	for i, l := range r.lags {
		m := float64(r.n - l)
		out[i] = corrFromAggregates(m, r.sx[i], r.sxl[i], r.sxx[i], r.sx2[i], r.sx2l[i])
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHypotheticalBitIdenticalToReference fuzzes the optimized kernel
// against the reference implementation across boundary positions, gap
// widths, zero deltas, and lag-subset layouts, requiring exact bit
// equality of the hypothetical ACF and of the committed aggregates.
func TestHypotheticalBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(400)
		L := 1 + rng.Intn(64)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = rng.NormFloat64() * 10
			case 1:
				xs[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/24) + 0.3*rng.NormFloat64()
			default:
				xs[i] = 42 // constant
			}
		}
		var agg *Aggregates
		if trial%4 == 3 {
			var lags []int
			for l := 1 + rng.Intn(L); l <= L; l += 1 + rng.Intn(8) {
				lags = append(lags, l)
			}
			if len(lags) == 0 {
				lags = []int{1}
			}
			agg = NewAggregatesLags(xs, lags)
		} else {
			agg = NewAggregates(xs, L)
		}
		ref := refFromAggregates(agg)
		sc := NewScratch(agg.Positions())
		cur := append([]float64(nil), xs...)
		for step := 0; step < 8; step++ {
			start := rng.Intn(n)
			width := 1 + rng.Intn(n-start)
			if width > 30 {
				width = 30
			}
			deltas := make([]float64, width)
			for i := range deltas {
				if rng.Intn(5) == 0 {
					deltas[i] = 0 // exercise the zero-delta skip
				} else {
					deltas[i] = rng.NormFloat64() * 4
				}
			}
			got := agg.HypotheticalACF(cur, start, deltas, sc)
			want := ref.hypothetical(cur, start, deltas)
			if !bitsEqual(got, want) {
				t.Fatalf("trial %d step %d (n=%d start=%d w=%d): hypothetical diverges from reference\n got %v\nwant %v",
					trial, step, n, start, width, got, want)
			}
			// Commit every other step so later evaluations run against
			// evolved aggregate state.
			if step%2 == 0 {
				agg.Apply(cur, start, deltas)
				ref.apply(cur, start, deltas)
				for i, d := range deltas {
					cur[start+i] += d
				}
				if !bitsEqual(agg.ACF(), ref.acf()) {
					t.Fatalf("trial %d step %d: committed ACF diverges from reference", trial, step)
				}
			}
		}
	}
}

// TestHypotheticalMAEMatchesSeparatePass checks the fused deviation
// accumulator against an explicit MAE over the returned vector.
func TestHypotheticalMAEMatchesSeparatePass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Sin(float64(i)/7) + 0.2*rng.NormFloat64()
	}
	agg := NewAggregates(xs, 20)
	base := agg.ACF()
	sc := NewScratch(20)
	sc.SetBase(base)
	deltas := []float64{1.5, -0.5, 2, 0, -1}
	hyp := agg.HypotheticalACF(xs, 137, deltas, sc)
	var want float64
	for i := range hyp {
		want += math.Abs(hyp[i] - base[i])
	}
	if math.Float64bits(sc.DevSum()) != math.Float64bits(want) {
		t.Fatalf("fused MAE sum %v != separate pass %v", sc.DevSum(), want)
	}
}

// TestZeroAllocHypothetical locks in the zero-allocation property of the
// steady-state evaluation path.
func TestZeroAllocHypothetical(t *testing.T) {
	xs := seasonal(2000, 24, 0.5, 5)
	agg := NewAggregates(xs, 48)
	sc := NewScratch(48)
	deltas := []float64{1, -2, 0.5}
	if n := testing.AllocsPerRun(200, func() {
		agg.HypotheticalACF(xs, 900, deltas, sc)
	}); n != 0 {
		t.Fatalf("HypotheticalACF allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		agg.HypotheticalACF(xs, 1, deltas, sc) // boundary (segmented) path
	}); n != 0 {
		t.Fatalf("boundary HypotheticalACF allocates %v per run, want 0", n)
	}
}

// TestTermsBitIdenticalToReference pins the two-stage form a caller that
// keeps the terms runs — CrossTerms once, HypotheticalFromTerms against
// whatever the aggregates have become since — to the reference copy-then-
// update evaluation, for gap widths on both sides of every pair cut
// (m-l <= 0 and > 0), dense and compact. The aggregates are moved between
// the two stages by a commit further than L from the gap, which is exactly
// the situation a kept row is reused in; the fused MAE sum must match too.
func TestTermsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const L = 12
	for _, lags := range [][]int{nil, {1, 5, 12}, {2, 3, 4, 11}} {
		for _, m := range []int{1, 2, L - 1, L, L + 1, 3 * L} {
			n := 20*L + m
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/24) + 0.3*rng.NormFloat64()
			}
			agg := NewAggregates(xs, L)
			if lags != nil {
				agg = NewAggregatesLags(xs, lags)
			}
			ref := refFromAggregates(agg)
			sc := NewScratch(agg.Positions())
			base := agg.ACF()
			sc.SetBase(base)
			deltas := make([]float64, m)
			for i := range deltas {
				deltas[i] = rng.NormFloat64() * 4
			}
			deltas[m/2] = 0
			for _, start := range []int{L, 7 * L, n - m - L} {
				if !agg.Interior(start, m) {
					t.Fatalf("m=%d start=%d: expected an interior change", m, start)
				}
				row := make([]float64, agg.Positions())
				ds, dsq2 := agg.CrossTerms(xs, start, deltas, row)

				// Move the aggregates, leaving xs within L of the gap alone.
				far := []float64{rng.NormFloat64(), rng.NormFloat64()}
				at := start + m + L
				if at+len(far) > n {
					at = start - L - len(far)
				}
				agg.Apply(xs, at, far)
				ref.apply(xs, at, far)
				for i, d := range far {
					xs[at+i] += d
				}

				got := agg.HypotheticalFromTerms(ds, dsq2, row, sc)
				want := ref.hypothetical(xs, start, deltas)
				if !bitsEqual(got, want) {
					t.Fatalf("lags=%v m=%d start=%d: kept terms diverge from reference\n got %v\nwant %v", lags, m, start, got, want)
				}
				var dev float64
				for i := range want {
					dev += math.Abs(want[i] - base[i])
				}
				if math.Float64bits(sc.DevSum()) != math.Float64bits(dev) {
					t.Fatalf("lags=%v m=%d start=%d: fused MAE sum %v != %v", lags, m, start, sc.DevSum(), dev)
				}
				if !bitsEqual(agg.HypotheticalACF(xs, start, deltas, sc), want) {
					t.Fatalf("lags=%v m=%d start=%d: HypotheticalACF diverges from reference", lags, m, start)
				}
			}
		}
	}
}

// TestApplyTermsBitIdenticalToApply pins the O(P) commit from kept terms to
// Apply's O(P*m) pass: for interior gaps on both sides of every pair cut,
// dense and compact, with the terms computed before the aggregates moved (a
// commit further than L away, as between a cached evaluation and the pop
// that commits it), all five aggregate arrays end up the same bit for bit.
func TestApplyTermsBitIdenticalToApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const L = 12
	for _, lags := range [][]int{nil, {1, 5, 12}, {2, 3, 4, 11}} {
		for _, m := range []int{1, 2, L - 1, L, L + 1, 3 * L} {
			n := 20*L + m
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 5 + 3*math.Sin(2*math.Pi*float64(i)/24) + 0.3*rng.NormFloat64()
			}
			agg := NewAggregates(xs, L)
			if lags != nil {
				agg = NewAggregatesLags(xs, lags)
			}
			deltas := make([]float64, m)
			for i := range deltas {
				deltas[i] = rng.NormFloat64() * 4
			}
			for _, start := range []int{L, 7 * L, n - m - L} {
				row := make([]float64, agg.Positions())
				ds, dsq2 := agg.CrossTerms(xs, start, deltas, row)

				far := []float64{rng.NormFloat64(), rng.NormFloat64()}
				at := start + m + L
				if at+len(far) > n {
					at = start - L - len(far)
				}
				agg.Apply(xs, at, far)
				for i, d := range far {
					xs[at+i] += d
				}

				want := agg.Clone()
				want.Apply(xs, start, deltas)
				agg.ApplyTerms(ds, dsq2, row)
				for _, pair := range []struct {
					name      string
					got, want []float64
				}{
					{"sx", agg.sx, want.sx}, {"sxl", agg.sxl, want.sxl}, {"sxx", agg.sxx, want.sxx},
					{"sx2", agg.sx2, want.sx2}, {"sx2l", agg.sx2l, want.sx2l},
				} {
					if !bitsEqual(pair.got, pair.want) {
						t.Fatalf("lags=%v m=%d start=%d: %s from kept terms\n got %v\nwant %v", lags, m, start, pair.name, pair.got, pair.want)
					}
				}
				for i, d := range deltas {
					xs[start+i] += d
				}
			}
		}
	}
}
