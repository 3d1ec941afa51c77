package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// conn is one load-generator connection: a single keep-alive TCP
// connection speaking just enough HTTP/1.1 for cameod's endpoints. The
// standard client costs two goroutine hand-offs per request, which on a
// two-core host put the load generator at over a third of all CPU; this
// one writes the request and parses the response on the calling goroutine.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	req  []byte       // request scratch
	buf  bytes.Buffer // response body, reused
}

func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and reads the whole response body into c.buf.
func (c *conn) do(method, path string, body []byte) (status int, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.addr, 5*time.Second); err != nil {
			return 0, err
		}
		c.br = bufio.NewReaderSize(c.c, 64<<10)
	}
	status, err = c.roundTrip(method, path, body)
	if err != nil {
		c.close() // the stream position is unknown; start over next time
	}
	return status, err
}

func (c *conn) roundTrip(method, path string, body []byte) (int, error) {
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if body != nil {
		c.req = append(c.req, "\r\nContent-Type: text/plain\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	c.c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := c.c.Write(c.req); err != nil {
		return 0, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	fields := bytes.Fields(line)
	if len(fields) < 2 || !bytes.HasPrefix(fields[0], []byte("HTTP/1.1")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.buf.Reset()
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil {
				return 0, fmt.Errorf("malformed chunk size %q", line)
			}
			if _, err := io.CopyN(&c.buf, c.br, size); err != nil {
				return 0, err
			}
			if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
				return 0, err
			}
			if size == 0 {
				return status, nil
			}
		}
	case length >= 0:
		_, err = io.CopyN(&c.buf, c.br, int64(length))
		return status, err
	default:
		return 0, fmt.Errorf("response without Content-Length or chunked encoding")
	}
}

// write posts one text batch and checks the ack names exactly want points.
func (c *conn) write(body []byte, want int) error {
	status, err := c.do(http.MethodPost, "/api/v1/write", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("write: status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	var ack struct{ Series, Points int }
	if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil {
		return fmt.Errorf("write: garbled ack %q", c.buf.Bytes())
	}
	if ack.Series != 1 || ack.Points != want {
		return fmt.Errorf("write: acked %d series / %d points, want 1 / %d", ack.Series, ack.Points, want)
	}
	return nil
}

// query runs GET /api/v1/query and checks the NDJSON body is whole: every
// line a chunk object, chunk starts contiguous from `from`, to−from
// values in all. When dst is non-nil the values are parsed into it (the
// sampled deep check); otherwise they are only counted.
func (c *conn) query(series string, from, to int, dst *[]float64) error {
	status, err := c.do(http.MethodGet, "/api/v1/query?series="+series+
		"&from="+strconv.Itoa(from)+"&to="+strconv.Itoa(to), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("query: status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	pos := from
	for _, line := range bytes.Split(bytes.TrimSuffix(c.buf.Bytes(), []byte("\n")), []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(`{"start":`+strconv.Itoa(pos)+`,"values":[`))
		if !ok {
			return fmt.Errorf("query: chunk does not start at %d: %.60q", pos, line)
		}
		vals, ok := bytes.CutSuffix(rest, []byte("]}"))
		if !ok || len(vals) == 0 {
			return fmt.Errorf("query: garbled chunk at %d", pos)
		}
		if dst == nil {
			pos += bytes.Count(vals, []byte(",")) + 1
			continue
		}
		for _, f := range bytes.Split(vals, []byte(",")) {
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return fmt.Errorf("query: bad value %q", f)
			}
			*dst = append(*dst, v)
			pos++
		}
	}
	if pos != to {
		return fmt.Errorf("query: got %d values for [%d,%d)", pos-from, from, to)
	}
	return nil
}

// agg runs GET /api/v1/query_agg (mean) and returns the window values,
// checking there are exactly ceil((to−from)/step) of them.
func (c *conn) agg(series string, from, to, step int) ([]float64, error) {
	status, err := c.do(http.MethodGet, "/api/v1/query_agg?series="+series+
		"&from="+strconv.Itoa(from)+"&to="+strconv.Itoa(to)+"&step="+strconv.Itoa(step)+"&aggfn=mean", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("query_agg: status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	var body struct {
		Step   int
		Values []float64
	}
	if err := json.Unmarshal(c.buf.Bytes(), &body); err != nil {
		return nil, fmt.Errorf("query_agg: garbled body: %v", err)
	}
	if want := (to - from + step - 1) / step; body.Step != step || len(body.Values) != want {
		return nil, fmt.Errorf("query_agg: got %d windows at step %d, want %d at %d", len(body.Values), body.Step, want, step)
	}
	return body.Values, nil
}

// denseMeans folds xs into step-sized window means, left to right: the
// reference a query_agg answer is checked against.
func denseMeans(xs []float64, step int) []float64 {
	out := make([]float64, 0, (len(xs)+step-1)/step)
	for i := 0; i < len(xs); i += step {
		w := xs[i:min(i+step, len(xs))]
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		out = append(out, sum/float64(len(w)))
	}
	return out
}

// closeTo reports whether a and b agree within 1e-9 relative (absolute
// near zero): closed-form piece sums and dense sums round differently.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// timings collects latencies of one operation kind, in milliseconds.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, float64(d)/float64(time.Millisecond)) }

// percentile is the nearest-rank p-th percentile (p in (0,100]) of a
// sorted slice.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder is where a tail percentile falls back to when a run is too
// short to support it.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest ladder percentile, at most want, that has at
// least ten samples beyond it, and its value; with fewer than twenty
// samples that is the median.
func tail(sorted []float64, want float64) (p, v float64) {
	for _, p := range tailLadder {
		if p <= want && float64(len(sorted))*(1-p/100) >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(t timings) []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

// This host runs each vCPU at full or at half speed, independently, in
// phases that last from a few tenths of a second to minutes, for a share
// of the time that drifts between nothing and more than a half. A whole-run
// mean or percentile moves with that share by tens of percent (see
// README.md). So the gated numbers of the timed loops are taken over short
// windows, each of which is either disturbed or not, and are the quartile
// on the undisturbed side: the rate a quarter of the windows reach, the
// latency a quarter of the windows stay under. A change to the program
// moves every window and so moves the quartile; the host's mood moves how
// many windows are disturbed, which the quartile ignores until three in
// four are.

// bestQuartile is the 75th percentile of vs when higher is better, the
// 25th when lower is.
func bestQuartile(vs []float64, higher bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if higher {
		return percentile(s, 75)
	}
	return percentile(s, 25)
}

// opRec is one completed operation of a timed loop.
type opRec struct {
	end     time.Duration // completion, since the window opened
	ms      float64       // latency
	samples int           // samples it carried
}

// reportWindows cuts [0, total) into windows of the given width, sets the
// two loop latency metrics as the best quartile over the windows — op_p50_ms
// from each window's median latency, op_tail_ms from its tail percentile,
// the highest of the ladder, at most wantTail, that leaves ten samples
// beyond it in a typical window — and returns the best-quartile rate of
// completed samples. Each window's numbers are brought to reference host
// speed by what the probe saw during it: the latencies are divided by
// slow, the rate is multiplied by slowRate (host.go has the factors).
func reportWindows(res *Result, ops []opRec, width, total time.Duration, wantTail float64, slow, slowRate func(from, to time.Duration) float64) (samplesPerS float64) {
	n := int(total / width)
	if n < 1 {
		n, width = 1, total
	}
	lat := make([][]float64, n)
	samples := make([]float64, n)
	for _, op := range ops {
		if w := int(op.end / width); w >= 0 && w < n {
			lat[w] = append(lat[w], op.ms)
			samples[w] += float64(op.samples)
		}
	}
	sizes := make([]float64, n)
	for w := range lat {
		sort.Float64s(lat[w])
		sizes[w] = float64(len(lat[w]))
	}
	tailP := 50.0
	for _, p := range tailLadder {
		if p <= wantTail && median(sizes)*(1-p/100) >= 10 {
			tailP = p
			break
		}
	}
	var rates, p50s, tails []float64
	for w := range lat {
		// At reference host speed: see host.go.
		from, to := time.Duration(w)*width, time.Duration(w+1)*width
		rates = append(rates, samples[w]/width.Seconds()*slowRate(from, to))
		f := slow(from, to)
		if len(lat[w]) > 0 {
			p50s = append(p50s, percentile(lat[w], 50)/f)
			tails = append(tails, percentile(lat[w], tailP)/f)
		}
	}
	res.set("op_p50_ms", bestQuartile(p50s, false), "ms")
	res.set("op_tail_ms", bestQuartile(tails, false), "ms")
	if tailP != wantTail {
		res.note("op_tail_ms is the windows' p%g, not p%g: a typical window holds %g operations", tailP, wantTail, median(sizes))
	}
	res.set("loadgen.op_samples", float64(len(ops)), "count")
	res.set("loadgen.windows", float64(n), "count")
	return bestQuartile(rates, true)
}

// reportKind sets the ungated whole-run latency lines of one request kind
// (write, query, agg): the median, and p95 and p99 where ten samples lie
// beyond them.
func reportKind(res *Result, kind string, t timings) {
	if len(t) == 0 {
		return
	}
	s := sortedCopy(t)
	res.set(kind+"_p50_ms", percentile(s, 50), "ms")
	for _, p := range []float64{95, 99} {
		if float64(len(s))*(1-p/100) >= 10 {
			res.set(fmt.Sprintf("%s_p%g_ms", kind, p), percentile(s, p), "ms")
		}
	}
	res.set("loadgen."+kind+"_samples", float64(len(s)), "count")
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
