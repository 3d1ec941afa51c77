package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// snapshot is one parsed /metrics exposition: sample name (with its label
// set, as printed) to value. The harness parses the text format itself —
// the repo has no dependencies and the benchmark adds none.
type snapshot struct {
	vals map[string]float64
	took time.Duration // wall time of the GET
}

func scrapeMetrics(c *conn) (*snapshot, error) {
	start := time.Now()
	status, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	s := &snapshot{vals: make(map[string]float64), took: time.Since(start)}
	sc := bufio.NewScanner(&c.buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		s.vals[line[:i]] = v
	}
	return s, sc.Err()
}

// delta is end − start of one counter sample (0 when absent).
func delta(start, end *snapshot, name string) float64 {
	return end.vals[name] - start.vals[name]
}

// bucket is one cumulative histogram bucket.
type bucket struct{ le, cum float64 }

// buckets collects the printed cumulative buckets of one histogram child,
// sorted by upper bound. The exposition prints only the occupied span of
// buckets, so a missing bound means "same as the next lower printed one".
func (s *snapshot) buckets(family, labels string) []bucket {
	prefix := family + "_bucket{" + labels + `,le="`
	var bs []bucket
	for name, v := range s.vals {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			le := strings.TrimSuffix(rest, `"}`)
			ub := math.Inf(1)
			if le != "+Inf" {
				var err error
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			bs = append(bs, bucket{ub, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

func cumAt(bs []bucket, le float64) float64 {
	c := 0.0
	for _, b := range bs {
		if b.le > le {
			break
		}
		c = b.cum
	}
	return c
}

// histDeltaQuantile is the upper bound of the bucket holding the
// q-quantile of the observations a histogram child took between two
// snapshots (seconds), and how many observations that was.
func histDeltaQuantile(start, end *snapshot, family, labels string, q float64) (ub float64, count float64) {
	eb := end.buckets(family, labels)
	sb := start.buckets(family, labels)
	if len(eb) == 0 {
		return 0, 0
	}
	count = eb[len(eb)-1].cum - cumAt(sb, math.Inf(1))
	if count <= 0 {
		return 0, 0
	}
	rank := q * count
	for _, b := range eb {
		if b.cum-cumAt(sb, b.le) > rank {
			return b.le, count
		}
	}
	return eb[len(eb)-1].le, count
}

// pollQueueDepth polls /statusz until stop closes and reports the largest
// cameo_store_queued_compressions it saw. Traced runs only: it is a third
// connection beside the load generator's two.
func pollQueueDepth(base string, every time.Duration, stop <-chan struct{}, result chan<- float64) {
	c := newConn(base)
	defer c.close()
	maxDepth := 0.0
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		if m, err := statusz(c); err == nil {
			if v, ok := m["cameo_store_queued_compressions"].(float64); ok && v > maxDepth {
				maxDepth = v
			}
		}
		select {
		case <-stop:
			result <- maxDepth
			return
		case <-tick.C:
		}
	}
}

func statusz(c *conn) (map[string]any, error) {
	status, err := c.do(http.MethodGet, "/statusz", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/statusz: status %d", status)
	}
	var m map[string]any
	return m, json.Unmarshal(c.buf.Bytes(), &m)
}

// waitDrained polls /statusz until no compression is queued or executing:
// an acked sample only counts as ingested once its block is durable, or
// the queue would flatter the rate by its depth.
func waitDrained(c *conn) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := statusz(c)
		if err != nil {
			return err
		}
		q, _ := m["cameo_store_queued_compressions"].(float64)
		f, _ := m["cameo_store_inflight_compressions"].(float64)
		if q == 0 && f == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compression queue not drained after 60s (queued %v, executing %v)", q, f)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
