// Command benchmark is the repo's benchmark: it drives a real cameod child
// process over loopback (three server workloads) and the library's
// compressor in-process (one workload), checks every output, and prints
// each metric by name with its unit. See README.md for the metric
// and workload definitions and BENCHMARK.json (repo root) for the bounds.
//
//	bash benchmark/run.sh --workload ingest-steady --seed 1 --seconds 12 --trace 0
//	(cd benchmark && go run . -root .. -workload all -seed 1 -out out/a.json)
//	(cd benchmark && go run . -root .. -compare out/a.json out/b.json)
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: with -trace 0 the metrics
// are every end_to_end metric of BENCHMARK.json, with -trace 1 every
// per_layer metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload: what -out stores and -compare reads.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are findings the run flags about itself: a validity line out
	// of range, a percentile replaced by a lower one for lack of samples,
	// a failed check.
	Notes []string `json:"notes,omitempty"`
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Result) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// fail counts one failed check (also counted as attempted by the caller)
// and records why.
func (r *Result) fail(format string, a ...any) {
	r.Failed++
	r.note("FAILED: "+format, a...)
}

// env is what every workload needs to find its way around the checkout.
type env struct {
	root    string // repo root (holds BENCHMARK.json and cmd/cameod)
	outDir  string // benchmark/out: run data and span files, gitignored
	binDir  string // .bench_build: the cameod binary, gitignored
	seed    int64
	seconds float64
	trace   bool
	cameod  string  // built binary path, set by buildCameod
	buildS  float64 // wall time of the cameod build
}

var workloadOrder = []string{"compress-batch", "ingest-steady", "query-cold", "serve-mixed"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root     = flag.String("root", ".", "repo root (the directory holding BENCHMARK.json)")
		workload = flag.String("workload", "", "workload to run: compress-batch, ingest-steady, query-cold, serve-mixed, or all")
		seed     = flag.Int64("seed", 1, "the only source of randomness: inputs, request mix and offsets derive from it")
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload (0 = run_seconds of BENCHMARK.json)")
		scale    = flag.Float64("scale", 1, "multiplies -seconds (the smoke test runs at 0.02)")
		trace    = flag.Int("trace", 0, "1 = traced run: scrape cameod, replay each layer in-process under spans, report the per-layer metrics")
		out      = flag.String("out", "", "append this invocation's results to a JSON file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: a.json (base) b.json (new)")
	)
	flag.Parse()

	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(rootAbs, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files: a.json b.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if _, err := os.Stat(filepath.Join(rootAbs, "cmd", "cameod")); err != nil {
		return fmt.Errorf("%s is not the repo root (no cmd/cameod); pass -root", rootAbs)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if !spec.hasWorkload(n) {
			return fmt.Errorf("unknown workload %q (have %v and all)", n, workloadOrder)
		}
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	e := &env{
		root:    rootAbs,
		outDir:  filepath.Join(rootAbs, "benchmark", "out"),
		binDir:  filepath.Join(rootAbs, ".bench_build"),
		seed:    *seed,
		seconds: *seconds * *scale,
		trace:   *trace != 0,
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	// A signal must not orphan the cameod child: children are started with
	// Pdeathsig, and exiting here lets that fire.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.Exit(130)
	}()

	var results []*Result
	var last *Result
	for _, n := range names {
		res, err := e.runWorkload(n)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		printResult(res)
		results = append(results, res)
		last = res
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return err
		}
	}
	// The contract line: exactly the metrics BENCHMARK.json lists for this
	// mode, for the last workload run (the driver runs one at a time).
	line, err := contractLine(spec, last)
	if err != nil {
		return err
	}
	fmt.Println(line)
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: output checks failed (%d of %d)", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func (e *env) runWorkload(name string) (*Result, error) {
	res := &Result{
		Workload: name, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Metrics: make(map[string]Metric),
	}
	var err error
	switch name {
	case "compress-batch":
		err = e.compressBatch(res)
	case "ingest-steady":
		err = e.ingestSteady(res)
	case "query-cold":
		err = e.queryCold(res)
	case "serve-mixed":
		err = e.serveMixed(res)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	res.set("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult prints every metric of a run by name with its unit, then the
// run's notes.
func printResult(r *Result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  seconds=%g  %s  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
}

// contractLine renders the driver's result line: every end_to_end metric
// of BENCHMARK.json for an untraced run, every per_layer metric for a
// traced one. A per-layer metric whose layer is not on the workload's path
// reads 0; a missing end-to-end metric is an error in the benchmark.
func contractLine(spec *benchSpec, r *Result) (string, error) {
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	metrics := make(map[string]Metric, len(want))
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			if !r.Trace {
				return "", fmt.Errorf("%s did not report end-to-end metric %q", r.Workload, m.Name)
			}
			got = Metric{Value: 0, Unit: m.Unit}
		}
		if got.Unit != m.Unit {
			return "", fmt.Errorf("metric %q has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

// appendResults adds results to the JSON array in path, creating it if
// absent, so several invocations build one run set.
func appendResults(path string, results []*Result) error {
	var all []*Result
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	all = append(all, results...)
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
