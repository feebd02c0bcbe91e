package obs

import "sync/atomic"

// Span attribution: a per-host stack of names pushed by the exec
// interpreter, the codegen-emitted stubs, and driver phase annotations.
//
// Each simulated host owns one Spans value (reachable through its virtual
// clock, see bus.Clock.Spans), so attribution state is structurally
// isolated: enabling observation on one host costs every other host
// nothing, and two hosts can never mix their stacks. This replaces the
// original process-global map keyed by goroutine ID, which (a) turned on
// a runtime.Stack parse and a contended global lock for every goroutine
// in the process as soon as any host attached an observer, and (b)
// parsed the goroutine ID from a 32-byte buffer, truncating — and
// colliding — once IDs grew past seven digits in long-running fleets.
//
// The stack is refcount-gated: with no observers attached to the host,
// Span costs one nil-check plus one atomic load and returns a shared
// no-op closure, so the generated stubs stay near zero-cost when the
// pipeline is disabled.

// Spans is one host's attribution stack. The zero value is ready to use.
// A nil *Spans is valid and permanently disabled, so producers without a
// host (a stub bound to a bare test bus) pay only the nil check.
//
// The stack is per-host state under the bus package's single-owner
// contract: one goroutine at a time uses it, so it takes no lock.
type Spans struct {
	enabled atomic.Int32
	stack   []string
}

// Enable turns span tracking on for this host. Calls nest: tracking stays
// on until a matching number of Disable calls. bus.Space.SetObserver, the
// one attach point of a host, enables and disables automatically; call
// this directly only when recording spans without an observer (e.g. a
// handler that reads Current itself in a unit test).
func (s *Spans) Enable() {
	if s == nil {
		panic("obs: Enable on nil Spans")
	}
	s.enabled.Add(1)
}

// Disable undoes one Enable.
func (s *Spans) Disable() {
	if s == nil {
		panic("obs: Disable on nil Spans")
	}
	if s.enabled.Add(-1) < 0 {
		s.enabled.Add(1)
		panic("obs: Disable without matching Enable")
	}
}

// Enabled reports whether span tracking is on for this host.
func (s *Spans) Enabled() bool { return s != nil && s.enabled.Load() > 0 }

var nop = func() {}

// Span pushes name onto the host's attribution stack and returns the pop.
// Nested spans join with "/": code running under Span("play.isr") then
// Span("cs4236.pfmt.set") is attributed "play.isr/cs4236.pfmt.set". When
// tracking is disabled the call is a nil check and an atomic load.
//
//	defer spans.Span("cs4236.pfmt.set")()
func (s *Spans) Span(name string) func() {
	if s == nil || s.enabled.Load() == 0 {
		return nop
	}
	joined := name
	if n := len(s.stack); n > 0 {
		joined = s.stack[n-1] + "/" + name
	}
	s.stack = append(s.stack, joined)
	return func() {
		if n := len(s.stack); n > 0 {
			s.stack = s.stack[:n-1]
		}
	}
}

// With runs fn under name. Sugar for Span when a closure is more natural
// than a defer.
func (s *Spans) With(name string, fn func()) {
	defer s.Span(name)()
	fn()
}

// Current returns the host's full attribution ("phase/dev.var.op"), or ""
// when the stack is empty or tracking is disabled. Producers stamp it
// into Event.Span.
func (s *Spans) Current() string {
	if s == nil || s.enabled.Load() == 0 {
		return ""
	}
	if n := len(s.stack); n > 0 {
		return s.stack[n-1]
	}
	return ""
}

// Spanner is implemented by buses that carry a host attribution stack
// (*bus.Space does). Generated stubs and the exec interpreter discover
// their host's Spans through it at bind time.
type Spanner interface {
	Spans() *Spans
}
