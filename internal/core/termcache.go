package core

import "repro/internal/acf"

// termCacheBytes bounds the cross-term rows one engine keeps. 512 KiB holds
// every row of a store-default block (4096 samples, 24 lags) two thirds of
// the way and measured as fast as a full n*P table. A variable only so that
// tests can shrink it to force evictions.
var termCacheBytes = 512 << 10

// termCache keeps, per alive point, the half of its impact evaluation that
// does not depend on the aggregates: the terms acf.DirectTracker.CrossTerms
// derives from the point's gap and from cur within MaxLag of it (paper
// Eq. 8/9's O(P*m) cross-product sums). Most re-evaluations reHeap issues
// are of a neighbour further than MaxLag from the removal: its terms are
// untouched and only the aggregates they are correlated against have moved,
// so the evaluation is the O(P) HypotheticalFromTerms alone.
//
// An entry is only ever recomputed in full, never patched, so a cached
// evaluation is bit-identical to an uncached one. The store is direct
// mapped (slot = point mod slots, tag-checked): memory stays within
// termCacheBytes however long the series, and a collision costs one
// recomputation. slots == 0 disables it.
type termCache struct {
	direct *acf.DirectTracker
	p      int // lag positions per row
	slots  int
	tag    []int32 // tag[s] = the point slot s holds terms for, -1 = none
	ds     []float64
	dsq2   []float64
	rows   []float64 // slots rows of p cross products
}

// arm sizes and empties the cache for a run over n points re-evaluating hops
// neighbours a side per removal (negative: all of them). It stays off for
// trackers other than the direct one, and when the budget holds fewer rows
// than two removals re-evaluate: the rows are then evicted before they are
// read again (with 365 lags the points they would serve also all lie within
// MaxLag of the removal) and the bookkeeping would be pure cost.
func (c *termCache) arm(tr acf.Tracker, n, hops int) {
	c.slots = 0
	dt, ok := tr.(*acf.DirectTracker)
	if !ok || dt.Lags() == 0 {
		return
	}
	p := dt.Lags()
	slots := min(n, termCacheBytes/(8*p))
	need := n
	if hops >= 0 && 4*hops < n {
		need = 4 * hops
	}
	if slots < need {
		return
	}
	c.direct, c.p, c.slots = dt, p, slots
	c.tag = grow(c.tag, slots)
	for i := range c.tag {
		c.tag[i] = -1
	}
	c.ds = grow(c.ds, slots)
	c.dsq2 = grow(c.dsq2, slots)
	c.rows = grow(c.rows, slots*p)
}

// drop forgets q's terms, if held.
func (c *termCache) drop(q int32) {
	if s := int(q) % c.slots; c.tag[s] == q {
		c.tag[s] = -1
	}
}

// invalidate drops every entry the removal of p, between alive neighbours l
// and r, made stale. cur changed on [l+1, r-1]; the entry of an alive q
// depends on its gap (left[q], right[q]) and on cur within maxLag of it.
// That is l and r themselves (their gaps grew) and, on each side, a
// contiguous run of alive points ending at the first whose reach falls short
// of the change — bounded by distance, not by the blocking radius: points
// beyond the radius keep a stale heap key by design, but are revalidated
// exactly when popped, which a stale entry would break.
func (e *engine) invalidate(p, l, r int32) {
	c := &e.cache
	maxLag := int32(c.direct.MaxLag())
	c.drop(p)
	c.drop(l)
	c.drop(r)
	for q := e.left[l]; q > 0 && e.right[q]+maxLag >= l+2; q = e.left[q] {
		c.drop(q)
	}
	for q := e.right[r]; int(q) < e.n-1 && e.left[q]-maxLag <= r-2; q = e.right[q] {
		c.drop(q)
	}
}

// commit applies the removal of p (deltas d at start) to the tracker. run has
// just evaluated p, so on an interior gap its terms sit in the cache: for such
// a change Aggregates.Apply's five per-lag deltas are exactly (ds, ds,
// dsxx[i], dsq2, dsq2), and the commit is O(P) instead of Apply's O(P*m).
// Boundary gaps, window trackers, a disabled cache and evaluations that
// skipped the fill take tracker.Commit. Must run before invalidate drops p.
func (e *engine) commit(p int32, start int, d []float64) {
	c := &e.cache
	if c.slots > 0 {
		if s := int(p) % c.slots; c.tag[s] == p {
			c.direct.ApplyTerms(c.ds[s], c.dsq2[s], c.rows[s*c.p:(s+1)*c.p])
			return
		}
	}
	e.tracker.Commit(e.cur, start, d)
}

// hypothetical returns the tracker's ACF vector after the removal of p,
// through p's cached terms when they are valid. A miss on an interior gap
// (the only kind the split kernel covers) computes and keeps them when fill
// is set; callers clear fill when another goroutine may own p's slot.
func (e *engine) hypothetical(p int32, ctx *evalCtx, fill bool) []float64 {
	c := &e.cache
	var s int
	var row []float64
	if c.slots > 0 {
		s = int(p) % c.slots
		row = c.rows[s*c.p : (s+1)*c.p]
		if c.tag[s] == p {
			ctx.cached++
			return c.direct.HypotheticalFromTerms(c.ds[s], c.dsq2[s], row, ctx.sc)
		}
	}
	start, d := e.gapDeltas(p, ctx)
	if c.slots == 0 || !fill || !c.direct.Interior(start, len(d)) {
		return e.tracker.Hypothetical(e.cur, start, d, ctx.sc)
	}
	c.ds[s], c.dsq2[s] = c.direct.CrossTerms(e.cur, start, d, row)
	c.tag[s] = p
	return c.direct.HypotheticalFromTerms(c.ds[s], c.dsq2[s], row, ctx.sc)
}
