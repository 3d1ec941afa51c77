package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The per-layer numbers are taken from outside: the harness calls each
// layer's public functions on the workload's own inputs, on one goroutine,
// with stores opened Workers -1 so a call contains its whole cost, and
// wraps every call in a span. A layer's children are obtained by calling
// the next layer down on the identical input right after it, so a layer's
// self time is its span minus its children's spans.
//
// This host's timing of identical work varies by tens of percent from
// call to call (a 250 ms block compression was seen anywhere in 215 to
// 285 ms), which would drown a 1 ms layer subtracted from it. So every
// request is replayed several times (Rep) and a layer's time for the
// request is its fastest repeat: the least disturbed observation. (Bringing
// each span to reference host speed with the probe of host.go was tried and
// made the budget worse: one kernel sample per span is noisier than the
// fastest of five repeats.)

// span is one timed call. Spans of one replay of one request share Req and
// Rep; Parent is the ID of the span that caused this one (0 for a
// request's top span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	rep   int // repeat the next spans belong to
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as one span and returns its ID.
func (t *tracer) do(name string, parent, req int, fn func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Rep: t.rep, Name: name})
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans[id-1].StartNS, t.spans[id-1].EndNS = int64(start), int64(end)
	return id
}

// layerTimes is what the spans say about one span name.
type layerTimes struct {
	n           int // spans of this name in one repeat
	total, self time.Duration
}

// fold sums, over the requests keep accepts, each layer's time and self
// time. A layer's time for a request is the smallest over the repeats of
// the summed spans of that name; its self time is that minus the times of
// the layers its spans caused.
func (t *tracer) fold(keep func(req int) bool) map[string]*layerTimes {
	type key struct {
		req  int
		name string
	}
	childNames := make(map[string]map[string]bool)
	perRep := make(map[key]map[int]time.Duration)
	count := make(map[key]int)
	for _, s := range t.spans {
		if !keep(s.Req) {
			continue
		}
		k := key{s.Req, s.Name}
		if perRep[k] == nil {
			perRep[k] = make(map[int]time.Duration)
		}
		perRep[k][s.Rep] += s.dur()
		if s.Rep == 0 {
			count[k]++
		}
		if s.Parent != 0 {
			parent := t.spans[s.Parent-1].Name
			if childNames[parent] == nil {
				childNames[parent] = make(map[string]bool)
			}
			childNames[parent][s.Name] = true
		}
	}
	best := make(map[key]time.Duration, len(perRep))
	for k, reps := range perRep {
		m := time.Duration(math.MaxInt64)
		for _, d := range reps {
			m = min(m, d)
		}
		best[k] = m
	}
	out := make(map[string]*layerTimes)
	for k, d := range best {
		lt := out[k.name]
		if lt == nil {
			lt = &layerTimes{}
			out[k.name] = lt
		}
		lt.n += count[k]
		lt.total += d
		lt.self += d
		for c := range childNames[k.name] {
			lt.self -= best[key{k.req, c}]
		}
	}
	return out
}

func allRequests(int) bool { return true }

// unexplained is |top − Σ self| / top over the tree under a top-level span
// name. The self times telescope to the top span by construction, so what
// is left is self time that came out negative: a child that ran slower on
// its own than inside its parent, i.e. timer noise larger than the layer.
func unexplained(by map[string]*layerTimes, top string, layers ...string) float64 {
	t := by[top]
	if t == nil || t.total <= 0 {
		return 0
	}
	explained := time.Duration(0)
	for _, name := range append([]string{top}, layers...) {
		if lt := by[name]; lt != nil && lt.self > 0 {
			explained += lt.self
		}
	}
	return math.Abs(float64(t.total-explained)) / float64(t.total)
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(e *env, workload string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, e.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perUS is d spread over n units, in microseconds.
func perUS(d time.Duration, n int) float64 { return us(d) / float64(n) }
