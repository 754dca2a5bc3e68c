package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer's
// public API. Spans stay in memory and are written out once, when the run
// ends. A nil *tracer records nothing, so the untraced runs pay one nil
// check per call.
type tracer struct {
	t0    time.Duration // clock() at creation
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Layer is the name's prefix before the first dot
// ("core.step" → "core"); Parent is -1 for a root; Req groups the spans of
// one query or session.
type span struct {
	Name        string
	Start, End  time.Duration
	Parent, Req int
}

func newTracer() *tracer { return &tracer{t0: clock()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := clock() - t.t0
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := clock() - t.t0
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already timed span, from two clock() readings (for
// intervals that start in one call and end in another, such as the wait
// from Open to the first estimate).
func (t *tracer) record(name string, start, end time.Duration, parent, req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start - t.t0, End: end - t.t0, Parent: parent, Req: req})
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[layerOf(s.Name)] += s.End - s.Start - covered(t.spans, children[i], s.Start, s.End)
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi]. Children of one span may overlap (concurrent calls), so the
// union is taken rather than the sum.
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < 0 {
			continue
		}
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// durations returns the durations in milliseconds of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format (one
// complete event per span, one thread lane per request), readable by
// chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(bw, `{"traceEvents":[`)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Req, Args: map[string]int{"id": i, "parent": s.Parent, "req": s.Req},
		}); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}

// spanCostNs measures what recording one span costs, on a throwaway tracer.
func spanCostNs() float64 {
	const n = 100000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := clock()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.probe", -1, 0))
	}
	return float64((clock() - start).Nanoseconds()) / n
}
