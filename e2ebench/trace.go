package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer's public functions; the program itself is not
// instrumented. A nil *tracer records nothing, which is the untraced
// path.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	values map[string][]float64
}

// span is one recorded interval. Its layer is the part of its name
// before the first dot ("core.Analyze" belongs to core).
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, or noSpan
	op         int           // the op the span belongs to
}

const noSpan = -1

func newTracer() *tracer {
	return &tracer{origin: time.Now(), values: map[string][]float64{}}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record notes one measurement taken at a layer boundary: a count
// (PSG nodes, dirty routines) or a stage time read from the layer's own
// statistics.
func (t *tracer) record(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// meanMs is the mean duration in ms of the closed spans named name.
func (t *tracer) meanMs(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			xs = append(xs, ms(s.end-s.start))
		}
	}
	return mean(xs)
}

// meanValue is the mean of the measurements recorded under name.
func (t *tracer) meanValue(name string) float64 { return mean(t.values[name]) }

// selfMs returns each layer's self time in ms: every span's duration
// minus the part of it that its child spans cover, summed by layer.
func (t *tracer) selfMs() map[string]float64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.end < 0 {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.start, s.start), min(cs.end, s.end)})
		}
		self[layerOf(s.name)] += ms(s.end - s.start - covered(iv))
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = 0, -1
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// addSelfTimes stores each layer's self time per op into m.
func (t *tracer) addSelfTimes(m map[string]float64, ops int) {
	for layer, v := range t.selfMs() {
		m[layer+".self_ms"] = v / float64(ops)
	}
}

// overheadPct is the traced phase's median op latency relative to the
// untraced phase's, as a percentage.
func overheadPct(untraced, traced []float64) float64 {
	u := quantile(append([]float64(nil), untraced...), 0.5)
	return 100 * (quantile(append([]float64(nil), traced...), 0.5) - u) / u
}
