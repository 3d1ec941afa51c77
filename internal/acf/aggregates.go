package acf

import "math"

// Aggregates maintains the five basic per-lag aggregates of paper Eq. 7 over
// a fixed-length series, enabling O(P) (single point) or O(P*m) (m-point
// gap) incremental recomputation of the ACF under value updates (paper Eq. 8
// and Eq. 9) instead of O(n*L) from scratch, where P is the number of
// maintained lag positions.
//
// Two maintenance shapes exist:
//
//   - dense (lags == nil): positions 0..L-1 hold lags 1..L, the paper's
//     default;
//   - compact (lags != nil): position i holds lags[i], a sorted set of
//     selected lags (Options.LagSubset, paper §5.5). Per-update cost drops
//     from O(L*m) to O(|lags|*m).
//
// The reconstruction of a line-simplified series always keeps its original
// length n — removing a point changes interior *values* via interpolation,
// never the length — so N is fixed for the lifetime of the struct.
type Aggregates struct {
	N int // series length (fixed)
	L int // largest maintained lag

	lags []int32 // maintained lags, ascending; nil = dense 1..L

	sx   []float64 // sum of head x_t, t in [0, n-l)
	sxl  []float64 // sum of tail x_{t+l}, t in [0, n-l)
	sxx  []float64 // sum of x_t * x_{t+l}
	sx2  []float64 // sum of head x_t^2
	sx2l []float64 // sum of tail x_{t+l}^2

	pairs []float64 // n - lag per position: the number of lag pairs
}

// Positions returns the number of maintained lag positions P (L for dense
// aggregates, the subset size for compact ones).
func (a *Aggregates) Positions() int { return len(a.sx) }

// MaintainedLags returns the maintained lags in position order: 1..L for
// dense aggregates, the selected subset for compact ones. The returned slice
// must not be modified.
func (a *Aggregates) MaintainedLags() []int32 { return a.lags }

// newAggregatesShell allocates the aggregate arrays for a lag layout.
// lags, when non-nil, must be ascending, unique, and >= 1.
func newAggregatesShell(n, L int, lags []int32) *Aggregates {
	p := L
	if lags != nil {
		p = len(lags)
		L = 0
		if p > 0 {
			L = int(lags[p-1])
		}
	}
	a := &Aggregates{
		N:     n,
		L:     L,
		lags:  lags,
		sx:    make([]float64, p),
		sxl:   make([]float64, p),
		sxx:   make([]float64, p),
		sx2:   make([]float64, p),
		sx2l:  make([]float64, p),
		pairs: make([]float64, p),
	}
	for i := range a.pairs {
		a.pairs[i] = float64(n - a.lagAt(i))
	}
	return a
}

// toLags32 validates and converts a sorted lag subset.
func toLags32(lags []int) []int32 {
	out := make([]int32, len(lags))
	prev := 0
	for i, l := range lags {
		if l <= prev {
			panic("acf: lag subset must be ascending, unique, and positive")
		}
		out[i] = int32(l)
		prev = l
	}
	return out
}

// NewAggregates extracts the dense aggregates from xs for lags 1..L in
// O(n*L) (paper function ExtractAggregates).
func NewAggregates(xs []float64, L int) *Aggregates {
	return newAggregatesDirect(xs, L, nil)
}

// NewAggregatesLags extracts compact aggregates for the given lag subset
// (ascending, unique, >= 1) in O(n*|lags|).
func NewAggregatesLags(xs []float64, lags []int) *Aggregates {
	return newAggregatesDirect(xs, 0, toLags32(lags))
}

func newAggregatesDirect(xs []float64, L int, lags []int32) *Aggregates {
	n := len(xs)
	a := newAggregatesShell(n, L, lags)
	// Head/tail sums derive from total minus a suffix/prefix; the cross
	// products need the per-lag pass.
	var total, total2 float64
	for _, x := range xs {
		total += x
		total2 += x * x
	}
	var suffix, suffix2, prefix, prefix2 float64
	if lags == nil {
		for l := 1; l <= L; l++ {
			if l >= n {
				// Fewer than one pair: all aggregates stay zero.
				break
			}
			i := l - 1
			suffix += xs[n-l]
			suffix2 += xs[n-l] * xs[n-l]
			prefix += xs[l-1]
			prefix2 += xs[l-1] * xs[l-1]
			a.sx[i] = total - suffix
			a.sx2[i] = total2 - suffix2
			a.sxl[i] = total - prefix
			a.sx2l[i] = total2 - prefix2
			var sxx float64
			for t := 0; t+l < n; t++ {
				sxx += xs[t] * xs[t+l]
			}
			a.sxx[i] = sxx
		}
		return a
	}
	// Compact: the prefix/suffix accumulators still walk every lag up to the
	// largest selected one (O(L) additions, preserving the dense summation
	// order bit-for-bit), but the O(n) cross-product pass runs only for
	// selected lags.
	p := 0
	for l := 1; l <= a.L && l < n; l++ {
		suffix += xs[n-l]
		suffix2 += xs[n-l] * xs[n-l]
		prefix += xs[l-1]
		prefix2 += xs[l-1] * xs[l-1]
		if p < len(lags) && int(lags[p]) == l {
			a.sx[p] = total - suffix
			a.sx2[p] = total2 - suffix2
			a.sxl[p] = total - prefix
			a.sx2l[p] = total2 - prefix2
			var sxx float64
			for t := 0; t+l < n; t++ {
				sxx += xs[t] * xs[t+l]
			}
			a.sxx[p] = sxx
			p++
		}
	}
	return a
}

// ACF evaluates paper Eq. 2 from the current aggregates into a fresh slice
// (position order: lags 1..L for dense aggregates, the subset for compact).
func (a *Aggregates) ACF() []float64 {
	out := make([]float64, len(a.sx))
	a.ACFInto(out)
	return out
}

// ACFInto evaluates the ACF into dst, which must have length Positions().
func (a *Aggregates) ACFInto(dst []float64) {
	for i, m := range a.pairs {
		dst[i] = corrFromAggregates(m, a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
	}
}

// lagDeltas computes the Eq. 8/9 aggregate deltas of a contiguous value
// change for ONE lag l, returning the five per-lag accumulators. cur holds
// the values *before* the change.
//
// The boundary conditions of Eq. 8/9 — head membership k+l < n, tail
// membership k >= l, both-ends pair j+l < m — are monotone in j, so the
// delta range splits into at most four runs with a constant condition set.
// The branchy per-point loop of the textbook form becomes a boundary
// prologue/epilogue around a branch-free interior whose accumulators stay
// in registers. For every accumulator the addend sequence (ascending j;
// within one j the cross terms in tail, head, pair order) is exactly that
// of the branchy form, so the results are bit-identical.
func lagDeltas(cur []float64, n, start int, deltas []float64, l int) (dsx, dsxl, dsxx, dsx2, dsx2l float64) {
	m := len(deltas)
	if l <= start && l <= n-start-m {
		// Interior fast path (the steady-state case: the changed block sits
		// at least a lag away from both series ends): every delta is both a
		// head and a tail member, so the only split left is the pair cut.
		p1 := max(m-l, 0)
		for j := 0; j < p1; j++ {
			d := deltas[j]
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			dsx += d
			dsx2 += dsq
			dsxl += d
			dsx2l += dsq
			dsxx += d * cur[k-l]
			dsxx += d * cur[k+l]
			dsxx += d * deltas[j+l]
		}
		for j := p1; j < m; j++ {
			d := deltas[j]
			k := start + j
			x := cur[k]
			dsq := d * (2*x + d)
			dsx += d
			dsx2 += dsq
			dsxl += d
			dsx2l += dsq
			dsxx += d * cur[k-l]
			dsxx += d * cur[k+l]
		}
		return
	}
	// j-range limits of the three conditions, clamped to [0, m].
	jTail0 := min(max(l-start, 0), m)   // j >= jTail0: k >= l
	jHead1 := min(max(n-l-start, 0), m) // j <  jHead1: k+l < n
	jPair1 := min(jHead1, max(m-l, 0))  // j <  jPair1: pair term too
	// Sort the three cut points (3-element sorting network); segments
	// between consecutive cuts have a constant condition set.
	c0, c1, c2 := jTail0, jPair1, jHead1
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	lo := 0
	for _, hi := range [4]int{c0, c1, c2, m} {
		if hi <= lo {
			continue
		}
		head := hi <= jHead1
		tail := lo >= jTail0
		pair := hi <= jPair1
		switch {
		case head && tail && pair:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsq := d * (2*x + d) // (x+d)^2 - x^2
				dsx += d
				dsx2 += dsq
				dsxl += d
				dsx2l += dsq
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
				dsxx += d * deltas[j+l]
			}
		case head && tail:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsq := d * (2*x + d)
				dsx += d
				dsx2 += dsq
				dsxl += d
				dsx2l += dsq
				dsxx += d * cur[k-l]
				dsxx += d * cur[k+l]
			}
		case head && pair:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsx += d
				dsx2 += d * (2*x + d)
				dsxx += d * cur[k+l]
				dsxx += d * deltas[j+l]
			}
		case head:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsx += d
				dsx2 += d * (2*x + d)
				dsxx += d * cur[k+l]
			}
		case tail:
			for j := lo; j < hi; j++ {
				d := deltas[j]
				k := start + j
				x := cur[k]
				dsxl += d
				dsx2l += d * (2*x + d)
				dsxx += d * cur[k-l]
			}
		}
		lo = hi
	}
	return
}

// Apply commits a contiguous block of value changes: the reconstruction
// values at indices [start, start+len(deltas)) change by deltas. cur must
// hold the reconstruction values *before* the change (the update rules of
// Eq. 8/9 are expressed in terms of old values); the caller updates cur
// afterwards.
func (a *Aggregates) Apply(cur []float64, start int, deltas []float64) {
	n := a.N
	if a.lags == nil {
		for i := range a.sx {
			l := i + 1
			if l >= n {
				break
			}
			dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
			a.sx[i] += dsx
			a.sxl[i] += dsxl
			a.sxx[i] += dsxx
			a.sx2[i] += dsx2
			a.sx2l[i] += dsx2l
		}
		return
	}
	for i, l32 := range a.lags {
		l := int(l32)
		if l >= n {
			break
		}
		dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
		a.sx[i] += dsx
		a.sxl[i] += dsxl
		a.sxx[i] += dsxx
		a.sx2[i] += dsx2
		a.sx2l[i] += dsx2l
	}
}

// ApplyTerms is Apply for an Interior change whose CrossTerms the caller
// kept. There every delta is a head and a tail member at every lag, so the
// five per-lag deltas lagDeltas would accumulate are exactly (ds, ds,
// dsxx[i], dsq2, dsq2): the same aggregates bit for bit in O(Positions())
// instead of O(Positions()*len(deltas)).
func (a *Aggregates) ApplyTerms(ds, dsq2 float64, dsxx []float64) {
	for i, dx := range dsxx[:len(a.sx)] {
		a.sx[i] += ds
		a.sxl[i] += ds
		a.sxx[i] += dx
		a.sx2[i] += dsq2
		a.sx2l[i] += dsq2
	}
}

// Scratch holds reusable buffers for hypothetical (non-mutating) ACF
// evaluation. A Scratch must not be shared between goroutines; allocate one
// per worker.
type Scratch struct {
	acf     []float64
	dsxx    []float64 // cross-term row of the uncached path (HypotheticalACF)
	base    []float64 // MAE reference vector (zeros unless SetBase is called)
	dev     float64   // sum |acf_i - base_i| of the last evaluation
	wdeltas []float64 // window-delta buffer (WindowTracker only)
}

// NewScratch allocates scratch buffers for a tracker with p lag positions.
func NewScratch(p int) *Scratch {
	return &Scratch{acf: make([]float64, p), dsxx: make([]float64, p), base: make([]float64, p)}
}

// SetBase installs the reference vector the kernel accumulates the MAE
// deviation against: after every hypothetical evaluation, DevSum reports
// sum_i |acf_i - base_i| with the exact summation order of stats.MAE. The
// engine's impact evaluation reads it instead of re-scanning the ACF, which
// keeps the default MAE measure to a single pass. base must have length
// Positions() and is retained by reference.
func (sc *Scratch) SetBase(base []float64) { sc.base = base }

// DevSum returns sum_i |acf_i - base_i| of the last hypothetical evaluation.
func (sc *Scratch) DevSum() float64 { return sc.dev }

// lagAt returns the lag maintained at position i.
func (a *Aggregates) lagAt(i int) int {
	if a.lags == nil {
		return i + 1
	}
	return int(a.lags[i])
}

// Interior reports whether a change of m values starting at start lies at
// least the largest maintained lag away from both series ends. Every delta
// is then both a head and a tail member at every lag, which is the case
// CrossTerms/HypotheticalFromTerms cover.
func (a *Aggregates) Interior(start, m int) bool {
	return start >= a.L && a.N-start-m >= a.L
}

// HypotheticalACF evaluates the ACF the series would have after applying the
// given contiguous change, without mutating the aggregates. The returned
// slice aliases sc.acf and is valid until the next call with the same sc.
// Unlike the textbook formulation, no aggregate state is copied anywhere:
// each lag's delta accumulators are evaluated directly against the live
// aggregates, which is bit-identical to copy-then-update (both reduce to the
// same single addition per aggregate).
//
// Lags no larger than the change's distance to either series end (all of
// them, in the steady state) run in two stages — the change's own terms
// (crossTerms), then one correlation per lag against the live aggregates
// (evalTerms) — the same two stages a caller that keeps the terms runs
// separately through CrossTerms and HypotheticalFromTerms. The remaining
// lags take the boundary-aware lagDeltas.
func (a *Aggregates) HypotheticalACF(cur []float64, start int, deltas []float64, sc *Scratch) []float64 {
	n := a.N
	// Keep in sync with lagDeltas's interior condition
	// (l <= start && l <= n-start-m).
	lFast := min(start, n-start-len(deltas))
	nFast := len(a.sx) // positions whose lag is <= lFast
	if lFast < a.L {
		nFast = max(lFast, 0)
		if a.lags != nil {
			for nFast = 0; int(a.lags[nFast]) <= lFast; nFast++ {
			}
		}
	}
	row := sc.dsxx[:nFast]
	ds, dsq2 := a.crossTerms(cur, start, deltas, row)
	dev := a.evalTerms(ds, dsq2, row, sc)
	for i := nFast; i < len(a.sx); i++ {
		l := a.lagAt(i)
		mf := a.pairs[i]
		var r float64
		if l >= n {
			// No pairs at this lag: the deltas cannot change it.
			r = corrFromAggregates(mf, a.sx[i], a.sxl[i], a.sxx[i], a.sx2[i], a.sx2l[i])
		} else {
			dsx, dsxl, dsxx, dsx2, dsx2l := lagDeltas(cur, n, start, deltas, l)
			r = corrFromAggregates(mf, a.sx[i]+dsx, a.sxl[i]+dsxl, a.sxx[i]+dsxx, a.sx2[i]+dsx2, a.sx2l[i]+dsx2l)
		}
		dev += math.Abs(r - sc.base[i])
		sc.acf[i] = r
	}
	sc.dev = dev
	return sc.acf
}

// CrossTerms computes the terms of an Interior change that depend only on
// the change itself and on cur within the largest lag of it: the head/tail
// sum delta ds, the squared-sum delta dsq2, and the per-position cross
// products written to dsxx (length Positions()). They stay valid for as long
// as deltas and that stretch of cur do, whatever happens to the aggregates;
// HypotheticalFromTerms evaluates them against the live aggregates in
// O(Positions()) instead of O(Positions()*len(deltas)).
func (a *Aggregates) CrossTerms(cur []float64, start int, deltas, dsxx []float64) (ds, dsq2 float64) {
	return a.crossTerms(cur, start, deltas, dsxx[:len(a.sx)])
}

// HypotheticalFromTerms is HypotheticalACF for an Interior change whose
// CrossTerms the caller kept: same result bit for bit, same aliasing of sc.
func (a *Aggregates) HypotheticalFromTerms(ds, dsq2 float64, dsxx []float64, sc *Scratch) []float64 {
	sc.dev = a.evalTerms(ds, dsq2, dsxx[:len(a.sx)], sc)
	return sc.acf
}

// crossTerms fills dsxx for positions [0, len(dsxx)), whose lags must all
// satisfy lagDeltas's interior condition. There every delta is both a head
// and a tail member, so the dsx/dsxl and dsx2/dsx2l accumulators receive the
// same addend sequence for EVERY lag — summed once as ds and dsq2; only the
// cross products remain lag-dependent.
func (a *Aggregates) crossTerms(cur []float64, start int, deltas, dsxx []float64) (ds, dsq2 float64) {
	if len(dsxx) == 0 {
		return 0, 0
	}
	m := len(deltas)
	for j, d := range deltas {
		x := cur[start+j]
		ds += d
		dsq2 += d * (2*x + d) // (x+d)^2 - x^2
	}
	if m == 1 && a.lags == nil {
		// Single-point gap: the cross products collapse to two loads walking
		// outward from the changed point. (Dense only: the compact shape has
		// always summed 0 + a + b here, which differs from a + b in the sign
		// of an all-zero sum.)
		d := deltas[0]
		k := len(dsxx)
		below := cur[start-k : start] // below[k-1-i] = cur[start-(i+1)]
		above := cur[start+1 : start+1+k]
		for i := range dsxx {
			dsxx[i] = d*below[k-1-i] + d*above[i]
		}
		return ds, dsq2
	}
	// A lag's cross products are a serial float-add chain, so lags run
	// pairwise: two independent chains through the shared j-loop. Each lag's
	// addend sequence (ascending j; tail, head, pair) is that of lagDeltas.
	i := 0
	for ; i+1 < len(dsxx); i += 2 {
		la := a.lagAt(i)
		lb := a.lagAt(i + 1) // lb > la
		var dsxxA, dsxxB float64
		p1a := max(m-la, 0)
		p1b := max(m-lb, 0) // p1b <= p1a
		// Shifted views: cmX[j] = cur[start+j-lX], cpX[j] = cur[start+j+lX];
		// in range by the interior condition.
		cmA := cur[start-la : start-la+m]
		cpA := cur[start+la : start+la+m]
		cmB := cur[start-lb : start-lb+m]
		cpB := cur[start+lb : start+lb+m]
		for j := 0; j < p1b; j++ {
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxA += d * deltas[j+la]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
			dsxxB += d * deltas[j+lb]
		}
		for j := p1b; j < p1a; j++ {
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxA += d * deltas[j+la]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
		}
		for j := p1a; j < m; j++ {
			d := deltas[j]
			dsxxA += d * cmA[j]
			dsxxA += d * cpA[j]
			dsxxB += d * cmB[j]
			dsxxB += d * cpB[j]
		}
		dsxx[i], dsxx[i+1] = dsxxA, dsxxB
	}
	if i < len(dsxx) {
		l := a.lagAt(i)
		var s float64
		p1 := max(m-l, 0)
		for j := 0; j < p1; j++ {
			d := deltas[j]
			k := start + j
			s += d * cur[k-l]
			s += d * cur[k+l]
			s += d * deltas[j+l]
		}
		for j := p1; j < m; j++ {
			d := deltas[j]
			k := start + j
			s += d * cur[k-l]
			s += d * cur[k+l]
		}
		dsxx[i] = s
	}
	return ds, dsq2
}

// evalTerms evaluates the Eq. 2 correlation of positions [0, len(dsxx)) after
// adding an interior change's terms to the live aggregates (dsx == dsxl == ds
// and dsx2 == dsx2l == dsq2 there), writes them to sc.acf and returns their
// share of the MAE sum against sc.base. The loop body is corrFromAggregates
// with the variance products reused by the zero-variance guard, written out
// because a call per lag per candidate would dominate; it is the only copy —
// keep the arithmetic in sync with acf.go. (The interior condition implies
// at least two pairs at every lag, so the m <= 1 guard is moot.)
func (a *Aggregates) evalTerms(ds, dsq2 float64, dsxx []float64, sc *Scratch) (dev float64) {
	k := len(dsxx)
	acfv := sc.acf[:k]
	bv := sc.base[:k]
	sxv := a.sx[:k]
	sxlv := a.sxl[:k]
	sxxv := a.sxx[:k]
	sx2v := a.sx2[:k]
	sx2lv := a.sx2l[:k]
	mfv := a.pairs[:k]
	for i, dx := range dsxx {
		mf := mfv[i]
		sx := sxv[i] + ds
		sxl := sxlv[i] + ds
		sxx := sxxv[i] + dx
		sx2 := sx2v[i] + dsq2
		sx2l := sx2lv[i] + dsq2
		num := mf*sxx - sx*sxl
		pa := mf * sx2
		qa := sx * sx
		va := pa - qa
		pb := mf * sx2l
		qb := sxl * sxl
		vb := pb - qb
		var r float64
		if va <= tiny+1e-10*(pa+qa) || vb <= tiny+1e-10*(pb+qb) {
			r = 0
		} else {
			r = num / math.Sqrt(va*vb)
			if r > 1 {
				r = 1
			} else if r < -1 {
				r = -1
			}
		}
		dev += math.Abs(r - bv[i])
		acfv[i] = r
	}
	return dev
}

// Clone returns an independent deep copy of the aggregates.
func (a *Aggregates) Clone() *Aggregates {
	return &Aggregates{
		N:     a.N,
		L:     a.L,
		lags:  a.lags, // immutable once built
		pairs: a.pairs,
		sx:    append([]float64(nil), a.sx...),
		sxl:   append([]float64(nil), a.sxl...),
		sxx:   append([]float64(nil), a.sxx...),
		sx2:   append([]float64(nil), a.sx2...),
		sx2l:  append([]float64(nil), a.sx2l...),
	}
}
