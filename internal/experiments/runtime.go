package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/lossy"
	"repro/internal/simplify"
)

// tab3Eps returns the paper's Table 3 error bounds: 0.01 for the small
// datasets, 0.001 for the large ones.
func tab3Eps(spec datasets.Spec) float64 {
	if spec.Length > 100000 {
		return 0.001
	}
	return 0.01
}

// Names of the two blocking-sweep rows the default radius is judged by.
const (
	hopsDefault = "h=4 (default)" // BlockHops: 0
	hopsPaper   = "h=5log n"      // the paper's §5.4 choice, the default before PR 14
)

// BlockingRow is one CAMEO run of the blocking sweep: a dataset compressed
// at one refresh radius until Stop ("eps": the deviation bound alone; "CR
// 10": Table 3's ratio cap as well).
type BlockingRow struct {
	Dataset, Stop, Hops string
	N                   int
	Seconds             float64
	Result              *core.Result // nil: skipped (unblocked, n > 12000)
}

// BlockingSweep runs CAMEO over every dataset at blocking sizes 1, the
// default, log n ... 10 log n and without blocking, to both stops. It is the
// measurement behind the default radius: at the eps stop the rows differ in
// retained points (the ratio a smaller radius costs), in evaluations per
// sample and in pops per removal (what it saves and what it shifts onto pop
// revalidation); at the ratio stop only in time.
func BlockingSweep(cfg Config) ([]BlockingRow, error) {
	cfg = cfg.withDefaults()
	var rows []BlockingRow
	for _, spec := range allSpecs(cfg) {
		xs := genData(spec, cfg)
		logn := int(math.Ceil(math.Log2(float64(len(xs)))))
		type hop struct {
			name string
			h    int
		}
		hops := []hop{
			{"h=1", 1}, {hopsDefault, 0}, {"h=log n", logn}, {"h=3log n", 3 * logn}, {hopsPaper, 5 * logn},
			{"h=7log n", 7 * logn}, {"h=10log n", 10 * logn}, {"w/b", -1},
		}
		if cfg.Quick {
			hops = []hop{{"h=1", 1}, {hopsDefault, 0}, {"h=log n", logn}, {hopsPaper, 5 * logn}, {"w/b", -1}}
		}
		for _, stop := range []string{"CR 10", "eps"} {
			for _, hc := range hops {
				r := BlockingRow{Dataset: spec.Name, Stop: stop, Hops: hc.name, N: len(xs)}
				// The paper itself finds unblocked CAMEO "infeasible for
				// real-life applications" (Table 3 w/b column, hours on the
				// large datasets); cap it to keep the harness usable.
				if hc.h >= 0 || len(xs) <= 12000 {
					opt := coreOptions(spec, tab3Eps(spec))
					opt.BlockHops = hc.h
					if stop == "CR 10" {
						opt.TargetRatio = 10
					}
					start := time.Now()
					res, err := core.Compress(xs, opt)
					if err != nil {
						return nil, err
					}
					r.Seconds, r.Result = time.Since(start).Seconds(), res
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// Table3 regenerates Table 3: single-threaded compression times of every
// baseline and of CAMEO at blocking sizes 1, log n ... 10 log n and without
// blocking, with the compression ratio capped at 10; then the whole
// BlockingSweep with what each radius retains and how much work it does.
// Expected shape: PMC/FFT fastest; CAMEO at 1 hop comparable to the other
// line simplifiers; time grows ~linearly with hops; no blocking ("w/b") is
// orders of magnitude slower; at the eps stop every radius retains within a
// few percent of the others (pop revalidation restores the greedy order).
func Table3(cfg Config) error {
	cfg = cfg.withDefaults()
	sweep, err := BlockingSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "## Table 3 — Compression times (seconds), CR capped at 10")
	tw := newTable(cfg.Out, "dataset", "method", "seconds")
	for _, spec := range allSpecs(cfg) {
		xs := genData(spec, cfg)
		eps := tab3Eps(spec)

		for _, c := range lossyBaselines() {
			start := time.Now()
			lossy.SearchRatio(xs, c, 10, 6)
			row(tw, spec.Name, c.Name(), time.Since(start).Seconds())
		}

		sOpt := simplifyOptions(spec, eps)
		sOpt.TargetRatio = 10
		start := time.Now()
		if _, err := simplify.TurningPoints(xs, simplify.TPSum, sOpt); err != nil && err != simplify.ErrBoundExceeded {
			return err
		}
		row(tw, spec.Name, "TP", time.Since(start).Seconds())
		start = time.Now()
		if _, err := simplify.PIP(xs, simplify.PIPVertical, sOpt); err != nil {
			return err
		}
		row(tw, spec.Name, "PIP", time.Since(start).Seconds())
		start = time.Now()
		if _, err := simplify.VW(xs, sOpt); err != nil {
			return err
		}
		row(tw, spec.Name, "VW", time.Since(start).Seconds())

		for _, r := range sweep {
			switch {
			case r.Dataset != spec.Name || r.Stop != "CR 10":
			case r.Result == nil:
				row(tw, spec.Name, "CAMEO "+r.Hops, "skipped (n > 12000)")
			default:
				row(tw, spec.Name, "CAMEO "+r.Hops, r.Seconds)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(cfg.Out, "\n## Table 3 (blocking sweep) — what each refresh radius retains and costs")
	tw = newTable(cfg.Out, "dataset", "n", "stop", "hops", "seconds", "retained", "deviation", "evals/sample", "pops/removal")
	for _, r := range sweep {
		if res := r.Result; res != nil {
			row(tw, r.Dataset, r.N, r.Stop, r.Hops, r.Seconds, len(res.Compressed.Points), res.Deviation,
				float64(res.Evals+res.SketchEvals)/float64(r.N), float64(res.Iterations)/float64(max(res.Removed, 1)))
		}
	}
	return tw.Flush()
}

// Table4 regenerates Table 4: decompression times at 10x compression.
// Expected shape: line-simplification interpolation (CAMEO) fastest; FFT
// slowest (O(n log n) inverse transform).
func Table4(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "## Table 4 — Decompression times (ms) at 10x compression")
	tw := newTable(cfg.Out, "dataset", "method", "ms")
	for _, spec := range group2Specs() {
		xs := genData(spec, cfg)
		for _, c := range lossyBaselines() {
			comp := lossy.SearchRatio(xs, c, 10, 6)
			start := time.Now()
			comp.Decompress()
			row(tw, spec.Name, c.Name(), float64(time.Since(start).Microseconds())/1000)
		}
		opt := coreOptions(spec, tab3Eps(spec))
		opt.Epsilon = 0
		opt.TargetRatio = 10
		res, err := core.Compress(xs, opt)
		if err != nil {
			return err
		}
		start := time.Now()
		res.Compressed.Decompress()
		row(tw, spec.Name, "CAMEO", float64(time.Since(start).Microseconds())/1000)
	}
	return tw.Flush()
}

// Figure10a regenerates Figure 10a: fine-grained parallel speedup vs thread
// count for hop sizes log n ... 10 log n on MinTemp and SolarPower.
// Expected shape: speedups grow with hop size and lag count; tiny hop
// neighbourhoods can even slow down (thread overhead).
func Figure10a(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "## Figure 10a — Fine-grained parallel speedup")
	tw := newTable(cfg.Out, "dataset", "hops", "threads", "seconds", "speedup")
	threads := []int{1, 2, 4, 8}
	if cfg.Quick {
		threads = []int{1, 4}
	}
	for _, spec := range []datasets.Spec{datasets.MinTemp(), datasets.SolarPower()} {
		xs := genData(spec, cfg)
		logn := int(math.Ceil(math.Log2(float64(len(xs)))))
		hopSet := []int{logn, 5 * logn, 10 * logn}
		if cfg.Quick {
			hopSet = []int{5 * logn}
		}
		for _, hops := range hopSet {
			base := math.NaN()
			for _, t := range threads {
				opt := coreOptions(spec, tab3Eps(spec))
				opt.TargetRatio = 10
				opt.BlockHops = hops
				opt.Threads = t
				start := time.Now()
				if _, err := core.Compress(xs, opt); err != nil {
					return err
				}
				secs := time.Since(start).Seconds()
				if t == 1 {
					base = secs
				}
				row(tw, spec.Name, hops, t, secs, base/secs)
			}
		}
	}
	return tw.Flush()
}

// Figure10b regenerates Figure 10b: coarse-grained speedup, resulting ACF
// error (must stay below the bound), and compression ratio relative to
// single-threaded, on Humidity and IRBioTemp.
// Expected shape: multi-x speedups; ACF error below the constraint at all
// thread counts; CR within a small factor of single-threaded (sometimes
// higher).
func Figure10b(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "## Figure 10b — Coarse-grained parallelization")
	tw := newTable(cfg.Out, "dataset", "threads", "seconds", "speedup", "ACF-err", "rel-CR")
	threads := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		threads = []int{1, 4}
	}
	for _, spec := range []datasets.Spec{datasets.Humidity(), datasets.IRBioTemp()} {
		xs := genData(spec, cfg)
		// The paper uses eps = 1e-4 on the full-size datasets; scale-invariant
		// enough to reuse directly.
		eps := 1e-4
		var baseSecs, baseCR float64
		for _, t := range threads {
			opt := core.CoarseOptions{Options: coreOptions(spec, eps), Partitions: t}
			start := time.Now()
			res, err := core.CompressCoarse(xs, opt)
			if err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			dev, err := core.Deviation(xs, res.Compressed, opt.Options)
			if err != nil {
				return err
			}
			if t == 1 {
				baseSecs, baseCR = secs, res.CompressionRatio()
			}
			row(tw, spec.Name, t, secs, baseSecs/secs, dev, res.CompressionRatio()/baseCR)
		}
	}
	return tw.Flush()
}

// Figure11 regenerates Figure 11: the joint fine x coarse speedup grid at
// hop size 10 log n on four datasets.
// Expected shape: multiplicative gains, strongest where the lag count is
// high (MinTemp); most of the speedup from the coarse axis elsewhere.
func Figure11(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(cfg.Out, "## Figure 11 — Hybrid fine x coarse speedup grid")
	tw := newTable(cfg.Out, "dataset", "fine", "coarse", "seconds", "speedup")
	grid := []int{1, 2, 4, 8}
	if cfg.Quick {
		grid = []int{1, 4}
	}
	specs := []datasets.Spec{
		datasets.MinTemp(), datasets.IRBioTemp(),
		datasets.Humidity(), datasets.SolarPower(),
	}
	if cfg.Quick {
		specs = specs[:2]
	}
	for _, spec := range specs {
		xs := genData(spec, cfg)
		logn := int(math.Ceil(math.Log2(float64(len(xs)))))
		eps := tab3Eps(spec)
		var base float64
		for _, fine := range grid {
			for _, coarse := range grid {
				opt := core.CoarseOptions{Options: coreOptions(spec, eps), Partitions: coarse}
				opt.BlockHops = 10 * logn
				opt.Threads = fine
				opt.TargetRatio = 10
				start := time.Now()
				if _, err := core.CompressCoarse(xs, opt); err != nil {
					return err
				}
				secs := time.Since(start).Seconds()
				if fine == 1 && coarse == 1 {
					base = secs
				}
				row(tw, spec.Name, fine, coarse, secs, base/secs)
			}
		}
	}
	return tw.Flush()
}
