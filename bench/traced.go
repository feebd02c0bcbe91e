package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// traceRun is the per-layer measurement. Every workload runs for a sixth
// of dur with spans recorded around each layer call, so one traced run
// reports every layer whichever workload it is run for. Each primary
// workload then runs untraced for the same time: trace.overhead_pct is its
// traced over its untraced median latency. The spans are written to out,
// one file per workload.
func traceRun(e env, primaries []*workload, dur time.Duration, out string) ([]*report, error) {
	slice := dur / 6
	t := &tally{log: e.log}
	cost := calibrate()
	consistent := true
	var layers []metric
	tracedP50 := map[string]time.Duration{}
	for i := range workloads {
		w := &workloads[i]
		tr := newTracer()
		tr.cost = cost
		r, err := w.build(e, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		p := loop(r, t, tr, w.name, slice, 1)
		consistent = consistent && p.consistent
		layers = append(layers, r.layers(p.requests, aggregate(tr.spans))...)
		tracedP50[w.name] = percentile(p.lat.s, 0.5)
		path, err := tr.write(out, w.name)
		if err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", w.name, err)
		}
		fmt.Fprintf(e.log, "bench: %d spans of %s written to %s\n", len(tr.spans), w.name, path)
	}
	events, err := eventSample(e, t)
	if err != nil {
		return nil, err
	}
	ms, err := micro(t, events)
	if err != nil {
		return nil, err
	}
	layers = append(layers, ms...)

	var reports []*report
	for _, w := range primaries {
		r, err := w.build(e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		p := loop(r, t, nil, w.name, slice, 1)
		consistent = consistent && p.consistent
		overhead := (float64(tracedP50[w.name])/float64(percentile(p.lat.s, 0.5)) - 1) * 100
		reports = append(reports, &report{
			workload: w.name,
			metrics:  append(layers[:len(layers):len(layers)], metric{"trace.overhead_pct", "%", overhead}),
		})
	}
	for _, r := range reports {
		r.attempted, r.failed = t.attempted, t.failed
		r.correct = t.failed == 0 && consistent
	}
	return reports, nil
}

// eventSample records the bus events of the first requests of disk-pio
// and gfx-fill through an obs.Observer: the event mix the obs.Metrics sink
// is timed on. The traced loops run without an observer, because attaching
// one switches on the stubs' span attribution.
func eventSample(e env, t *tally) ([]obs.Event, error) {
	const perRig = 1 << 15
	var events []obs.Event
	rec := obs.Func(func(ev obs.Event) { events = append(events, ev) })
	for _, build := range []func(env, *tracer) (rig, error){newDisk, newGfx} {
		r, err := build(e, nil)
		if err != nil {
			return nil, err
		}
		switch r := r.(type) {
		case *disk:
			r.space.SetObserver(rec)
		case *gfx:
			r.space.SetObserver(rec)
		}
		start := len(events)
		r.next()
		for i := 0; i < r.size() && len(events)-start < perRig; i++ {
			err := r.do(i)
			_, cerr := r.check(i)
			t.record(errors.Join(err, cerr))
		}
	}
	return events, nil
}
