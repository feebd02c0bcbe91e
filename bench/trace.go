package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bus"
)

// tracer keeps the spans of a traced run in memory; write saves them when
// the run ends. Spans are recorded by the benchmark around its calls into
// each layer's public functions. Handler-level time is not a span per port
// access: timedHandler accumulates it into the innermost open span as a
// (calls, ns) pair. A nil *tracer records nothing, so untraced rigs call
// the same methods at the cost of a nil check.
//
// A tracer belongs to the client goroutine; it is not safe for concurrent
// use.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	req   int64 // current request ID
	calls int64 // handler calls seen, for the timing stride

	cost timerCost // timedHandler overhead, set by calibrate
}

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`    // request ID, shared by every span of one request
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a request root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`   // handler calls made inside this span
	CallNS int64  `json:"call_ns,omitempty"` // their time, estimated from the timed sample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens a root span under a fresh request ID.
func (t *tracer) request(name string) int {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin(name)
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// sampleEvery is the handler-timing stride. Timing every handler call
// would cost more than the simulator work it measures, so one call in
// sampleEvery is timed and stands for its neighbours. The stride is prime,
// so it does not alias with the 256-word sector loop.
const sampleEvery = 17

// call counts one handler call into the innermost open span and reports
// whether this call is timed.
func (t *tracer) call() bool {
	t.calls++
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].Calls++
	}
	return t.calls%sampleEvery == 0
}

// addSample accumulates one timed handler call into the innermost open
// span, scaled to stand for the untimed calls around it.
func (t *tracer) addSample(d time.Duration) {
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].CallNS += int64(d) * sampleEvery
	}
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals (children may overlap) minus the handler time
// accumulated into it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered - s.CallNS
	}
	return self
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n      int
	dur    time.Duration
	self   time.Duration
	calls  int64
	callNS time.Duration
}

func aggregate(spans []span) map[string]*spanAgg {
	self := selfTimes(spans)
	out := map[string]*spanAgg{}
	for i, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.n++
		a.dur += time.Duration(s.End - s.Start)
		a.self += time.Duration(self[i])
		a.calls += s.Calls
		a.callNS += time.Duration(s.CallNS)
	}
	return out
}

// write saves every span to dir/spans-<workload>.jsonl, one JSON object
// per line, with its self time.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			span
			SelfNS int64 `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}

// timedHandler wraps a simulator's bus.Handler so its calls and the time
// spent inside it are accumulated into the tracer's innermost open span.
type timedHandler struct {
	inner bus.Handler
	tr    *tracer
}

func (h timedHandler) BusRead(off uint32, width int) uint32 {
	if !h.tr.call() {
		return h.inner.BusRead(off, width)
	}
	t0 := time.Now()
	v := h.inner.BusRead(off, width)
	h.tr.addSample(time.Since(t0))
	return v
}

func (h timedHandler) BusWrite(off uint32, width int, v uint32) {
	if !h.tr.call() {
		h.inner.BusWrite(off, width, v)
		return
	}
	t0 := time.Now()
	h.inner.BusWrite(off, width, v)
	h.tr.addSample(time.Since(t0))
}

// timed returns h itself when tr is nil, so untraced rigs map the bare
// simulator handlers.
func timed(h bus.Handler, tr *tracer) bus.Handler {
	if tr == nil {
		return h
	}
	return timedHandler{h, tr}
}

// timerCost is the measurement overhead of timedHandler in nanoseconds per
// handler call, subtracted from handler and driver self times: inside is
// the bias a timed call adds to its own measurement, wrap the wrapper's
// whole cost averaged over timed and untimed calls.
type timerCost struct{ inside, wrap float64 }

// calibrate measures timerCost against a no-op handler, taking the median
// of several batches.
func calibrate() timerCost {
	const n = 1 << 16
	var nop bus.FuncHandler
	tr := newTracer()
	root := tr.begin("calibrate")
	var plain, wrapped bus.Handler = nop, timedHandler{nop, tr}
	var insides, wraps []float64
	for b := 0; b < 7; b++ {
		var in time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			in += time.Since(t0)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			plain.BusRead(0, 8)
		}
		bare := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			wrapped.BusRead(0, 8)
		}
		insides = append(insides, float64(in)/n)
		wraps = append(wraps, float64(time.Since(t0)-bare)/n)
	}
	tr.end(root)
	return timerCost{median(insides), median(wraps)}
}
