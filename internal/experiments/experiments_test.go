package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// quickConfig keeps every runner fast enough for CI.
func quickConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Scale: 0.02, MaxN: 3000, Seed: 1, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	// One runner per paper artifact: Tables 1-4 and Figures 1, 3, 6-13.
	want := []string{
		"tab1", "tab2", "tab3", "tab4",
		"fig1", "fig3", "fig6", "fig7", "fig8", "fig9",
		"fig10a", "fig10b", "fig11", "fig12a", "fig12b", "fig12c", "fig13",
		"pacf",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing runner %q", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("IDs() size mismatch")
	}
}

// TestAllRunnersQuick executes every experiment end-to-end in quick mode
// and checks each produces a non-trivial table mentioning its artifact.
func TestAllRunnersQuick(t *testing.T) {
	headers := map[string]string{
		"tab1": "Table 1", "tab2": "Table 2", "tab3": "Table 3", "tab4": "Table 4",
		"fig1": "Figure 1", "fig3": "Figure 3", "fig6": "Figure 6", "fig7": "Figure 7",
		"fig8": "Figure 8", "fig9": "Figure 9", "fig10a": "Figure 10a",
		"fig10b": "Figure 10b", "fig11": "Figure 11", "fig12a": "Figure 12a",
		"fig12b": "Figure 12b", "fig12c": "Figure 12c", "fig13": "Figure 13",
		"pacf": "PACF preservation",
	}
	for id, run := range Registry() {
		id, run := id, run
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := run(quickConfig(&buf)); err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, headers[id]) {
				t.Fatalf("%s output missing header %q:\n%s", id, headers[id], out)
			}
			if lines := strings.Count(out, "\n"); lines < 3 {
				t.Fatalf("%s output too small (%d lines):\n%s", id, lines, out)
			}
		})
	}
}

// TestDefaultRadiusKeepsTheRatio is the regression pin behind BlockHops: 0:
// at the eps stop of the blocking sweep, the default refresh radius must
// compress within 5% of the paper's 5 log n (geometric mean of the
// compression ratios over the datasets, the benchmark's own average; a
// single small replica moves by a retained point or two either way) while
// evaluating several times fewer impacts.
func TestDefaultRadiusKeepsTheRatio(t *testing.T) {
	var buf bytes.Buffer
	rows, err := BlockingSweep(quickConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	paperRow := func(dataset string) *core.Result {
		for _, r := range rows {
			if r.Dataset == dataset && r.Stop == "eps" && r.Hops == hopsPaper {
				return r.Result
			}
		}
		t.Fatalf("sweep has no %s row for %s", hopsPaper, dataset)
		return nil
	}
	logRatio, evalsDefault, evalsPaper, datasets := 0.0, 0, 0, 0
	for _, r := range rows {
		if r.Stop != "eps" || r.Hops != hopsDefault {
			continue
		}
		def, paper := r.Result, paperRow(r.Dataset)
		logRatio += math.Log(def.CompressionRatio() / paper.CompressionRatio())
		evalsDefault += def.Evals
		evalsPaper += paper.Evals
		datasets++
	}
	if datasets == 0 {
		t.Fatal("sweep has no default row")
	}
	if rel := math.Exp(logRatio / float64(datasets)); rel < 0.95 {
		t.Errorf("default radius compresses to %.3f of the 5 log n ratio, want >= 0.95", rel)
	}
	if 3*evalsDefault > evalsPaper {
		t.Errorf("default radius evaluated %d impacts, 5 log n %d: want under a third", evalsDefault, evalsPaper)
	}
}

func TestScaledLengthBounds(t *testing.T) {
	for _, spec := range allSpecs(Config{Scale: 0.001, MaxN: 40000, Seed: 1}.withDefaults()) {
		cfg := Config{Scale: 0.001, MaxN: 40000, Seed: 1}.withDefaults()
		n := scaledLength(spec, cfg)
		if n < 4*spec.Lags && !spec.Group2() {
			t.Errorf("%s scaled to %d points for %d lags", spec.Name, n, spec.Lags)
		}
		if n > cfg.MaxN {
			t.Errorf("%s exceeded MaxN: %d", spec.Name, n)
		}
	}
}

func TestEpsGridScales(t *testing.T) {
	if g := epsGrid("SolarPower", false); g[len(g)-1] != 0.001 {
		t.Fatalf("SolarPower grid top = %v", g[len(g)-1])
	}
	if g := epsGrid("Humidity", false); g[len(g)-1] != 0.01 {
		t.Fatalf("Humidity grid top = %v", g[len(g)-1])
	}
	if g := epsGrid("ElecPower", false); g[len(g)-1] != 0.1 {
		t.Fatalf("ElecPower grid top = %v", g[len(g)-1])
	}
	if g := epsGrid("ElecPower", true); len(g) != 2 {
		t.Fatalf("quick grid size = %d", len(g))
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1.23456:  "1.235",
		0.000012: "1.200e-05",
		1234567:  "1.235e+06",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
