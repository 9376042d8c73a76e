package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls.  Spans of one op share Op; Parent is
// the index of the enclosing span within the op (-1 for the op root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace is everything one traced op recorded: its spans and the
// per-layer counters read from the program's own statistics.
type opTrace struct {
	spans  []span
	values map[string]float64
}

// tracer records the spans of one op.  An untraced op gets a tracer
// whose methods do nothing, so traced and untraced ops execute the same
// call sequence.  A tracer belongs to the goroutine running its op.
type tracer struct {
	on    bool
	epoch time.Time
	op    int64
	stack []int
	tr    opTrace
}

func newTracer(on bool, epoch time.Time, op int64) *tracer {
	t := &tracer{on: on, epoch: epoch, op: op}
	if on {
		t.tr.values = map[string]float64{}
	}
	return t
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.tr.spans)
	t.tr.spans = append(t.tr.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span and returns its duration (zero when
// tracing is off).
func (t *tracer) end() time.Duration {
	if !t.on {
		return 0
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	sp := &t.tr.spans[id]
	sp.End = int64(time.Since(t.epoch))
	return time.Duration(sp.End - sp.Start)
}

// endAs renames the innermost open span, then closes it: for calls whose
// layer is only known from the answer, such as the store provenance of an
// HTTP verify.
func (t *tracer) endAs(name string) time.Duration {
	if !t.on {
		return 0
	}
	t.tr.spans[t.stack[len(t.stack)-1]].Name = name
	return t.end()
}

// value adds v to the op's counter name.
func (t *tracer) value(name string, v float64) {
	if t.on {
		t.tr.values[name] += v
	}
}

// ms records a duration counter in milliseconds.
func (t *tracer) ms(name string, d time.Duration) { t.value(name, msOf(d)) }

// allocMark returns the process's cumulative allocation, for allocMB.
// Reading it stops the world briefly, so only traced ops read it.
func (t *tracer) allocMark() uint64 {
	if !t.on {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// allocMB records the megabytes allocated since mark under name.  It is
// exact only while one goroutine allocates, which holds for the
// single-client workloads that use it.
func (t *tracer) allocMB(name string, mark uint64) {
	if !t.on {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.value(name, float64(m.TotalAlloc-mark)/1e6)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder keeps the traces of every traced op in memory until the run
// ends.
type recorder struct {
	mu  sync.Mutex
	ops []opTrace
}

func (r *recorder) add(t *tracer) {
	if !t.on {
		return
	}
	r.mu.Lock()
	r.ops = append(r.ops, t.tr)
	r.mu.Unlock()
}

// selfTimes returns, per span name, the op's self time: each span's
// duration minus the part its direct children cover, summed over the
// op's spans of that name.
func (o *opTrace) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration, len(o.spans))
	child := make([]int64, len(o.spans))
	for _, sp := range o.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range o.spans {
		self[sp.Name] += time.Duration(sp.End - sp.Start - child[i])
	}
	return self
}

// layerMetrics aggregates the traced ops into the per-layer metrics:
// span self times as per-op medians, counters as per-op medians or means
// over the ops that recorded them.  Layers an op never called are absent
// from it; a layer no op called reads 0.
func (r *recorder) layerMetrics() map[string]float64 {
	spanMs := map[string][]float64{}
	vals := map[string][]float64{}
	for i := range r.ops {
		o := &r.ops[i]
		for name, d := range o.selfTimes() {
			spanMs[name] = append(spanMs[name], msOf(d))
		}
		for name, v := range o.values {
			vals[name] = append(vals[name], v)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		switch m.agg {
		case aggSpan:
			out[m.Name] = median(spanMs[m.source])
		case aggMedian:
			out[m.Name] = median(vals[m.source])
		case aggMean:
			out[m.Name] = mean(vals[m.source])
		}
	}
	return out
}

// selfTable lists every span name with its median self time, largest
// first, for the human-readable trace summary.
func (r *recorder) selfTable() []string {
	spanMs := map[string][]float64{}
	for i := range r.ops {
		for name, d := range r.ops[i].selfTimes() {
			spanMs[name] = append(spanMs[name], msOf(d))
		}
	}
	names := make([]string, 0, len(spanMs))
	for name := range spanMs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := median(spanMs[names[i]]), median(spanMs[names[j]])
		if a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	lines := make([]string, 0, len(names))
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("  self %-28s %10.4f ms  (median of %d ops)", name, median(spanMs[name]), len(spanMs[name])))
	}
	return lines
}

// writeSpans writes every recorded span as one JSON object per line,
// tagged with the workload.
func (r *recorder) writeSpans(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		span
	}
	for i := range r.ops {
		for _, sp := range r.ops[i].spans {
			if err := enc.Encode(line{Workload: workload, span: sp}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
