// Package obs is the unified observation layer: typed, virtually
// timestamped event streams attributed back to Devil specification
// variables and driver phases.
//
// The paper's whole evaluation (Tables 2-5) counts and attributes I/O
// operations. obs turns that counting into a first-class pipeline:
//
//   - Producers (bus.Space, bus.IRQLine, the simulator engines) emit
//     Events through their host's bus.Clock, which holds the host's one
//     Observer; they pay nothing but a nil check when none is attached.
//   - The exec interpreter and codegen-emitted stubs annotate the host's
//     span stack (Span("cs4236.pfmt.set")) so every bus op in
//     a trace names the .dil variable — and, one level up, the driver
//     phase (init/ISR/transfer) — that caused it.
//   - Sinks (Ring, Metrics) buffer and aggregate; chrome.go exports the
//     virtual-clock timeline as Perfetto-loadable trace-event JSON.
//
// The package depends only on the standard library and is imported by
// internal/bus, so it must never import repo packages.
package obs

import "fmt"

// Kind classifies an event.
type Kind uint8

// The event vocabulary. The first four kinds are port-level I/O
// operations — the unit the paper's tables count.
const (
	KindPortRead Kind = iota
	KindPortWrite
	KindBlockIn
	KindBlockOut
	KindFault
	KindClockAdvance
	KindIRQRaise
	KindIRQConsume
	KindDMATC
	KindSeek
	KindMark
)

var kindNames = [...]string{
	KindPortRead:     "port-read",
	KindPortWrite:    "port-write",
	KindBlockIn:      "block-in",
	KindBlockOut:     "block-out",
	KindFault:        "fault",
	KindClockAdvance: "clock",
	KindIRQRaise:     "irq-raise",
	KindIRQConsume:   "irq-consume",
	KindDMATC:        "dma-tc",
	KindSeek:         "seek",
	KindMark:         "mark",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsOp reports whether the kind is a port-level I/O operation (single
// access or block transfer) — the unit Tables 2-5 count.
func (k Kind) IsOp() bool { return k <= KindBlockOut }

// Event is one observation. TS is the virtual-clock reading in
// nanoseconds after the event's cost was charged; Cost is the virtual
// time the event itself consumed, so [TS-Cost, TS] is its interval on
// the timeline. Source names the emitting chip or region, Span the
// attribution stack active on the emitting host ("phase/dev.var.op").
type Event struct {
	TS     uint64 // virtual ns at completion
	Kind   Kind
	Source string // chip / mapped region / space name
	Span   string // the host's attribution, "" when tracking is off
	Addr   uint32 // port address (port and block kinds, faults)
	Width  int    // access width in bits (port and block kinds)
	Value  uint64 // datum read or written (single accesses)
	Units  int    // elements moved (block kinds)
	Cost   uint64 // virtual ns consumed by this event
	Detail string // free-form annotation (faults, seeks, marks)
}

// Bytes is the payload size of an I/O operation, zero for other kinds.
func (e Event) Bytes() uint64 {
	switch e.Kind {
	case KindPortRead, KindPortWrite:
		return uint64(e.Width / 8)
	case KindBlockIn, KindBlockOut:
		return uint64(e.Units) * uint64(e.Width/8)
	}
	return 0
}

// String renders the event in the repo's canonical trace syntax. The
// port access format ("out8[2]=0x40") is pinned by the differential
// tests and the examples.
func (e Event) String() string {
	switch e.Kind {
	case KindPortRead:
		return fmt.Sprintf("in%d[%d]=%#x", e.Width, e.Addr, e.Value)
	case KindPortWrite:
		return fmt.Sprintf("out%d[%d]=%#x", e.Width, e.Addr, e.Value)
	case KindBlockIn:
		return fmt.Sprintf("inblock%d[%d]x%d", e.Width, e.Addr, e.Units)
	case KindBlockOut:
		return fmt.Sprintf("outblock%d[%d]x%d", e.Width, e.Addr, e.Units)
	case KindFault:
		return fmt.Sprintf("fault%d[%d] %s", e.Width, e.Addr, e.Detail)
	case KindClockAdvance:
		return fmt.Sprintf("clock+%dns", e.Cost)
	case KindIRQRaise, KindIRQConsume, KindDMATC, KindSeek, KindMark:
		if e.Detail != "" {
			return e.Kind.String() + " " + e.Detail
		}
		return e.Kind.String()
	}
	return e.Kind.String()
}

// Observer receives events. Implementations must tolerate concurrent
// Observe calls: one sink may observe several hosts, each running on its
// own goroutine.
type Observer interface {
	Observe(Event)
}

// Multi fans one event stream out to several observers in order.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Func adapts a function to the Observer interface.
type Func func(Event)

// Observe calls f.
func (f Func) Observe(e Event) { f(e) }
