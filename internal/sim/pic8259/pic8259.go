// Package pic8259 simulates the Intel 8259A programmable interrupt
// controller — the control-flow-serialization example of the paper's §2.2.
//
// The device occupies two 8-bit ports:
//
//	base+0  ICW1 / OCW2 / OCW3 (write), IRR or ISR (read, selected by the
//	        last OCW3)
//	base+1  ICW2..ICW4 during initialization, OCW1 (the interrupt mask)
//	        afterwards
//
// The quirk the Devil specification captures with guarded serialization is
// the initialization automaton: writing ICW1 (port 0, bit 4 set) arms a
// sequence of one to three writes through port 1 — ICW2 always, ICW3 only
// when ICW1 announced cascaded mode, ICW4 only when ICW1 set IC4. Only
// after the announced words have arrived do port-1 writes reach the
// interrupt mask.
package pic8259

import (
	"repro/internal/bus"
	"repro/internal/obs"
)

// Port offsets relative to the device base.
const (
	PortCmd  = 0 // ICW1/OCW2/OCW3 writes, IRR/ISR reads
	PortData = 1 // ICW2..4 during init, OCW1 (mask) in operation
)

// ICW1 bits.
const (
	ICW1Select = 0x10 // distinguishes ICW1 from OCW2/OCW3 on port 0
	ICW1LTIM   = 0x08 // level-triggered mode
	ICW1Single = 0x02 // 1 = single, 0 = cascaded (ICW3 follows)
	ICW1IC4    = 0x01 // ICW4 follows
)

// OCW2/OCW3 selector and command bits.
const (
	OCW3Select  = 0x08 // D4=0, D3=1 on port 0
	OCW3RR      = 0x02 // read-register command enable
	OCW3RIS     = 0x01 // 1 = read ISR, 0 = read IRR
	OCW2EOIMask = 0xe0 // D7..D5 carry the EOI command
	EOINonspec  = 0x20 // 001: non-specific EOI
	EOISpecific = 0x60 // 011: specific EOI (level in D2..D0)
	EOIRotate   = 0xa0 // 101: rotate on non-specific EOI
)

// initState tracks the position inside the ICW sequence.
type initState int

const (
	operational initState = iota
	wantICW2
	wantICW3
	wantICW4
)

// Sim is a simulated 8259A. It implements bus.Handler over a 2-port
// window. The zero value is an uninitialized controller awaiting ICW1.
type Sim struct {
	state initState
	icw1  uint8
	icw2  uint8 // vector base in the top five bits
	icw3  uint8 // slave mask (cascaded mode)
	icw4  uint8

	irr     uint8 // interrupt request register
	isr     uint8 // in-service register
	imr     uint8 // interrupt mask register (OCW1)
	readSel uint8 // 0 = IRR, 1 = ISR on the next port-0 read
	lowest  uint8 // lowest-priority level, for rotation (7 = standard)

	// INT, when non-nil, is invoked whenever an unmasked request is
	// pending and not yet in service — the INT line to the CPU.
	INT func()

	// Clock is the host clock Raise and Ack emit irq-raise/irq-consume
	// events through; set before traffic, never changed mid-experiment.
	Clock *bus.Clock
}

var irqNames = [8]string{"irq0", "irq1", "irq2", "irq3", "irq4", "irq5", "irq6", "irq7"}

// emit sends a controller event through the clock.
func (s *Sim) emit(kind obs.Kind, irq int) {
	s.Clock.Emit(obs.Event{Kind: kind, Source: "pic8259", Detail: irqNames[irq&7]})
}

// New returns an uninitialized controller (all requests masked out until
// the ICW sequence completes, as after hardware reset).
func New() *Sim { return &Sim{state: wantICW2, icw1: ICW1Select, imr: 0xff, lowest: 7} }

// Operational reports whether the ICW sequence has completed.
func (s *Sim) Operational() bool { return s.state == operational }

// Raise latches interrupt request line irq (0..7). The line stays latched
// until acknowledged.
func (s *Sim) Raise(irq int) {
	s.irr |= 1 << uint(irq&7)
	s.emit(obs.KindIRQRaise, irq&7)
	if s.pending() && s.INT != nil {
		s.INT()
	}
}

// pending reports whether an unmasked request is awaiting service.
func (s *Sim) pending() bool {
	return s.state == operational && s.irr&^s.imr != 0
}

// Ack models the CPU's interrupt acknowledge cycle: the highest-priority
// unmasked request moves from IRR to ISR and its vector (ICW2 base plus
// the level) is returned. ok is false when nothing is pending.
func (s *Sim) Ack() (vector uint8, ok bool) {
	irq, ok := s.highest(s.irr &^ s.imr)
	if !ok {
		return 0, false
	}
	s.irr &^= 1 << irq
	s.isr |= 1 << irq
	s.emit(obs.KindIRQConsume, int(irq))
	return s.icw2&0xf8 | uint8(irq), true
}

// highest returns the highest-priority set bit of bits, honouring
// the rotation pointer (priority order starts just below lowest).
func (s *Sim) highest(bits uint8) (uint, bool) {
	for i := 1; i <= 8; i++ {
		irq := uint(s.lowest+uint8(i)) & 7
		if bits&(1<<irq) != 0 {
			return irq, true
		}
	}
	return 0, false
}

// IRR returns the interrupt request register.
func (s *Sim) IRR() uint8 { return s.irr }

// ISR returns the in-service register.
func (s *Sim) ISR() uint8 { return s.isr }

// IMR returns the interrupt mask register.
func (s *Sim) IMR() uint8 { return s.imr }

// VectorBase returns the ICW2-programmed vector base.
func (s *Sim) VectorBase() uint8 { return s.icw2 & 0xf8 }

// Slaves returns the ICW3-programmed slave mask.
func (s *Sim) Slaves() uint8 { return s.icw3 }

// AutoEOI reports whether ICW4 selected automatic end-of-interrupt.
func (s *Sim) AutoEOI() bool { return s.icw4&0x02 != 0 }

// BusRead implements bus.Handler.
func (s *Sim) BusRead(offset uint32, width int) uint32 {
	switch offset {
	case PortCmd:
		if s.readSel != 0 {
			return uint32(s.isr)
		}
		return uint32(s.irr)
	case PortData:
		return uint32(s.imr)
	}
	return 0xff
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(offset uint32, width int, v uint32) {
	b := uint8(v)
	switch offset {
	case PortCmd:
		switch {
		case b&ICW1Select != 0:
			// ICW1 restarts the initialization automaton and, as after
			// reset, clears the mask, the in-service bits, and the read
			// selector (datasheet §initialization).
			s.icw1 = b
			s.state = wantICW2
			s.imr = 0
			s.isr = 0
			s.irr = 0
			s.readSel = 0
			s.lowest = 7
			s.icw3 = 0
			s.icw4 = 0
		case b&OCW3Select != 0:
			if b&OCW3RR != 0 {
				s.readSel = b & OCW3RIS
			}
		default:
			s.ocw2(b)
		}
	case PortData:
		switch s.state {
		case wantICW2:
			s.icw2 = b
			switch {
			case s.icw1&ICW1Single == 0:
				s.state = wantICW3
			case s.icw1&ICW1IC4 != 0:
				s.state = wantICW4
			default:
				s.state = operational
			}
		case wantICW3:
			s.icw3 = b
			if s.icw1&ICW1IC4 != 0 {
				s.state = wantICW4
			} else {
				s.state = operational
			}
		case wantICW4:
			s.icw4 = b
			s.state = operational
		default:
			s.imr = b // OCW1
		}
	}
}

// ocw2 executes an end-of-interrupt command.
func (s *Sim) ocw2(b uint8) {
	switch b & OCW2EOIMask {
	case EOINonspec:
		if irq, ok := s.highest(s.isr); ok {
			s.isr &^= 1 << irq
		}
	case EOISpecific:
		s.isr &^= 1 << uint(b&7)
	case EOIRotate:
		if irq, ok := s.highest(s.isr); ok {
			s.isr &^= 1 << irq
			s.lowest = uint8(irq)
		}
	}
}
