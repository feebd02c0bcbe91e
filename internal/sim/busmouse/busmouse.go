// Package busmouse simulates the Logitech bus mouse controller of the
// paper's running example (Figure 1).
//
// The device occupies four 8-bit ports:
//
//	base+0  data port (read): one nibble of the movement counters, selected
//	        by the index bits of the control port; the button state rides in
//	        the top three bits of the y-high nibble.
//	base+1  signature register (read/write scratch byte, used for probing).
//	base+2  control port (write): bit 7 holds/latches the counters, bits 6-5
//	        select the nibble (0 x-low, 1 x-high, 2 y-low, 3 y-high), bit 4
//	        disables interrupts.
//	base+3  configuration port (write).
//
// Writing the control port with bit 7 set latches the movement counters and
// clears the accumulators (the hardware "hold" handshake); writing it with
// bit 7 clear releases the hold. This matches both the original Linux
// driver's command constants (MSE_READ_X_LOW = 0x80 ... MSE_INT_ON = 0x00)
// and the Devil specification's forced mask bits.
package busmouse

// Port offsets relative to the device base.
const (
	PortData    = 0
	PortSig     = 1
	PortControl = 2
	PortConfig  = 3
)

// Control port bits.
const (
	CtlHold        = 0x80 // latch counters while set
	CtlIndexShift  = 5    // bits 6-5: nibble index
	CtlIntrDisable = 0x10 // 1 disables interrupts
	idxXLow        = 0
	idxXHigh       = 1
	idxYLow        = 2
	idxYHigh       = 3
)

// Sim is a simulated Logitech bus mouse. It implements bus.Handler over a
// 4-port window. The zero value is a mouse with no pending movement.
type Sim struct {
	// Accumulated (unread) movement and live button state.
	accX, accY int8
	buttons    uint8 // 3 bits, device convention: 1 = released

	// Latched snapshot while the hold bit is set.
	held       bool
	latX, latY int8
	latButtons uint8

	index        uint8
	intrDisabled bool
	signature    uint8
	config       uint8

	// IRQ, when non-nil, is invoked on Move/Press while interrupts are
	// enabled — the simulator's interrupt line.
	IRQ func()
}

// New returns a mouse with all buttons released.
func New() *Sim { return &Sim{buttons: 0x7} }

// Move accumulates mouse movement, as the hardware would between polls.
func (s *Sim) Move(dx, dy int) {
	s.accX = int8(int(s.accX) + dx)
	s.accY = int8(int(s.accY) + dy)
	s.interrupt()
}

// SetButtons sets the raw 3-bit button state (device convention: a set bit
// means released).
func (s *Sim) SetButtons(b uint8) {
	s.buttons = b & 0x7
	s.interrupt()
}

// interrupt signals IRQ if one is wired and interrupts are enabled.
func (s *Sim) interrupt() {
	if s.IRQ != nil && !s.intrDisabled {
		s.IRQ()
	}
}

// Pending reports whether unread movement has accumulated.
func (s *Sim) Pending() bool {
	return s.accX != 0 || s.accY != 0
}

// Config returns the last value written to the configuration port.
func (s *Sim) Config() uint8 {
	return s.config
}

// InterruptsEnabled reports the state of the interrupt enable bit.
func (s *Sim) InterruptsEnabled() bool {
	return !s.intrDisabled
}

// BusRead implements bus.Handler.
func (s *Sim) BusRead(offset uint32, width int) uint32 {
	switch offset {
	case PortData:
		x, y, b := s.accX, s.accY, s.buttons
		if s.held {
			x, y, b = s.latX, s.latY, s.latButtons
		}
		switch s.index {
		case idxXLow:
			return uint32(uint8(x) & 0x0f)
		case idxXHigh:
			return uint32(uint8(x) >> 4)
		case idxYLow:
			return uint32(uint8(y) & 0x0f)
		case idxYHigh:
			return uint32(b)<<5 | uint32(uint8(y)>>4)
		}
	case PortSig:
		return uint32(s.signature)
	}
	return 0xff
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(offset uint32, width int, v uint32) {
	b := uint8(v)
	switch offset {
	case PortSig:
		s.signature = b
	case PortControl:
		if b&CtlHold != 0 {
			if !s.held {
				s.held = true
				s.latX, s.latY, s.latButtons = s.accX, s.accY, s.buttons
				s.accX, s.accY = 0, 0
			}
		} else {
			s.held = false
		}
		s.index = (b >> CtlIndexShift) & 0x3
		s.intrDisabled = b&CtlIntrDisable != 0
	case PortConfig:
		s.config = b
	}
}
