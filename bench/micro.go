package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	genbm "repro/internal/gen/busmouse"
	"repro/internal/obs"
	simbm "repro/internal/sim/busmouse"
	"repro/internal/specs"
)

const mouseBase = 0x23c

// micro measures the single-access layers no workload isolates: the §4.3
// calibration (one busmouse SetConfig and one mouse_state read, done by the
// exec interpreter, the generated stubs and hand-written port I/O), bus
// dispatch against a no-op handler, and the obs.Metrics sink replaying the
// traced run's event sample. Each access is first checked against the
// simulated mouse.
func micro(t *tally, events []obs.Event) ([]metric, error) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	mouse := simbm.New()
	space.MustMap(mouseBase, 4, mouse)
	spec, err := core.Compile(specs.Busmouse)
	if err != nil {
		return nil, err
	}
	ex, err := core.Link(spec, space, map[string]uint32{"base": mouseBase}, core.Options{})
	if err != nil {
		return nil, err
	}
	stub := genbm.New(space, mouseBase)

	type way struct {
		name       string
		setConfig  func() error
		mouseState func() (dx, dy int8, err error)
	}
	ways := []way{
		{"exec", func() error { return ex.Set("config", 1) }, func() (int8, int8, error) {
			if err := ex.ReadStruct("mouse_state"); err != nil {
				return 0, 0, err
			}
			dx, err1 := ex.Get("dx")
			dy, err2 := ex.Get("dy")
			return int8(dx), int8(dy), errors.Join(err1, err2)
		}},
		{"gen", func() error { stub.SetConfig(genbm.ConfigCONFIGURATION); return nil }, func() (int8, int8, error) {
			stub.ReadMouseState()
			return stub.Dx(), stub.Dy(), nil
		}},
		{"hand", func() error { handSetConfig(space, mouseBase); return nil }, func() (int8, int8, error) {
			dx, dy := handMouseState(space, mouseBase)
			return dx, dy, nil
		}},
	}
	var ms []metric
	for _, w := range ways {
		err := w.setConfig()
		if c := mouse.Config(); err == nil && c != 0x91 {
			err = fmt.Errorf("%s SetConfig wrote %#x, want 0x91", w.name, c)
		}
		t.record(err)
		stub.SetInterrupt(genbm.InterruptENABLE) // releases the counter hold
		mouse.Move(5, -3)
		dx, dy, err := w.mouseState()
		if err == nil && (dx != 5 || dy != -3) {
			err = fmt.Errorf("%s mouse_state read (%d,%d), want (5,-3)", w.name, dx, dy)
		}
		t.record(err)
		ms = append(ms,
			metric{w.name + ".setconfig_ns", "ns", nsPerOp(func() { _ = w.setConfig() })},
			metric{w.name + ".mousestate_ns", "ns", nsPerOp(func() { _, _, _ = w.mouseState() })})
	}

	nop := bus.NewSpace("io", &bus.Clock{}, bus.DefaultPortCosts())
	nop.MustMap(0x1000, 4, bus.FuncHandler{})
	ms = append(ms, metric{"bus.dispatch_ns", "ns", nsPerOp(func() { busDispatch(nop, 0x1000) }) / 2})

	var perEvent []float64
	for b := 0; b < 7 && len(events) > 0; b++ {
		m := obs.NewMetrics()
		t0 := time.Now()
		for _, e := range events {
			m.Observe(e)
		}
		perEvent = append(perEvent, float64(time.Since(t0))/float64(len(events)))
	}
	if len(perEvent) == 0 {
		return nil, errors.New("traced run recorded no bus events")
	}
	return append(ms, metric{"obs.metrics_ns_per_event", "ns", median(perEvent)}), nil
}

// nsPerOp times f in batches of about 10 ms and returns the median
// nanoseconds per call.
func nsPerOp(f func()) float64 {
	n := 1000
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) > 10*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}
