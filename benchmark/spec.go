package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the one place the metric names, units,
// directions and regression bounds are fixed. The harness reads it so the
// result line and -compare can never drift from it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: missing run_seconds, end_to_end or per_layer", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// quartiles returns the median and the first and third quartile of vs by
// linear interpolation between order statistics (the "exclusive" method
// Python's statistics.quantiles uses, which the acceptance runs use too).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// compareFiles prints, for every (metric, workload) pair present in both
// run sets, the two medians and their ratio with its base, and for the
// end-to-end metrics a verdict against the bound fixed in BENCHMARK.json:
// "within bound", "regressed" (worse than the base median by more than the
// bound) or "unresolved" (a set's own quartile spread is wider than the
// bound, so the sets cannot tell). It returns an error if any row
// regressed.
func compareFiles(spec *benchSpec, aPath, bPath string, w io.Writer) error {
	a, err := readSets(aPath)
	if err != nil {
		return err
	}
	b, err := readSets(bPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase median (n, spread)\tnew median (n, spread)\tnew/base\tbound\tverdict\n")
	regressed := 0
	row := func(m metricSpec, gated bool) {
		for _, wl := range workloadOrder {
			// A gated metric is compared on untraced runs only; a layer
			// line on every run that reported it.
			av, bv := a[setKey{wl, m.Name, false}], b[setKey{wl, m.Name, false}]
			if !gated {
				av = append(av, a[setKey{wl, m.Name, true}]...)
				bv = append(bv, b[setKey{wl, m.Name, true}]...)
			}
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			if amed == 0 && bmed == 0 && !gated {
				continue // layer not on this workload's path
			}
			aspread, bspread := relSpread(aq1, amed, aq3), relSpread(bq1, bmed, bq3)
			ratio := math.NaN()
			if amed != 0 {
				ratio = bmed / amed
			}
			verdict, bound := "", ""
			if gated {
				bound = fmt.Sprintf("%.3g", m.Bound)
				worse := ratio - 1
				if m.Better == "higher" {
					worse = 1 - ratio
				}
				switch {
				case math.Max(aspread, bspread) > m.Bound:
					verdict = "unresolved (spread wider than bound)"
				case worse > m.Bound:
					verdict = "regressed"
					regressed++
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%.4f of %.6g\t%s\t%s\n",
				wl, m.Name, m.Unit, amed, len(av), 100*aspread, bmed, len(bv), 100*bspread, ratio, amed, bound, verdict)
		}
	}
	for _, m := range spec.EndToEnd {
		row(m, true)
	}
	for _, m := range spec.PerLayer {
		row(m, false)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d row(s) regressed", regressed)
	}
	return nil
}

type setKey struct {
	workload, metric string
	trace            bool
}

// readSets groups a -out file's values by (workload, metric, mode).
func readSets(path string) (map[setKey][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sets := make(map[setKey][]float64)
	for _, r := range rs {
		for name, m := range r.Metrics {
			k := setKey{r.Workload, name, r.Trace}
			sets[k] = append(sets[k], m.Value)
		}
	}
	return sets, nil
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
