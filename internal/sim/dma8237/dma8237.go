// Package dma8237 simulates the Intel 8237A DMA controller — the
// register-serialization example of the paper's §2.2.
//
// The simulated ports (offsets within the device's sparse port set):
//
//	+0   channel 0 base/current address (read/write, two bytes)
//	+1   channel 0 base/current word count (read/write, two bytes)
//	+8   status register (read): TC-reached and request flags
//	+10  single mask register (write)
//	+11  mode register (write)
//	+12  clear first/last flip-flop (write, any value)
//
// The quirk the Devil specification captures with "serialized as" is the
// first/last flip-flop: the 16-bit address and count move through 8-bit
// ports one byte at a time, low byte first, and ONE flip-flop orders the
// bytes for all four data ports. Interleaving an address write into a
// count pair without clearing the flip-flop lands the next byte in the
// wrong half — which is exactly the bug class the generated stubs make
// impossible.
package dma8237

import (
	"repro/internal/bus"
	"repro/internal/obs"
)

// Port offsets relative to the device's io parameter.
const (
	PortAddr0    = 0  // channel 0 address, low byte then high byte
	PortCount0   = 1  // channel 0 word count, low byte then high byte
	PortStatus   = 8  // read: TC flags (3..0) and requests (7..4)
	PortMask     = 10 // write: single mask bit
	PortMode     = 11 // write: per-channel mode
	PortClearFF  = 12 // write: clear the first/last flip-flop
	maskChanBits = 0x03
	maskSetBit   = 0x04
)

// Mode register fields.
const (
	ModeXferVerify = 0x00
	ModeXferWrite  = 0x04 // write transfer (memory <- device)
	ModeXferRead   = 0x08 // read transfer (memory -> device)
	ModeAutoInit   = 0x10
	ModeDown       = 0x20
)

// Sim is a simulated 8237A (channel 0 plus the shared control registers).
// It implements bus.Handler over the sparse 13-port window. The zero value
// has the flip-flop cleared and all channels masked off hardware-style.
//
// The data-movement fields wire channel 0 into a machine: Mem is the
// simulated main memory the channel addresses (Page supplying the address
// bits above the controller's 16, like the ISA page register), Sink and
// Source are the device ends of the channel (one byte per DMA cycle), and
// OnTC is the terminal-count pulse (the EOP line) — the sound pipeline
// routes it into pic8259.Raise. All are optional; left nil, Transfer only
// steps the address/count registers as before.
type Sim struct {
	flipflop bool // false: next data-port byte is the low byte

	baseAddr, curAddr   uint16
	baseCount, curCount uint16

	status uint8    // 3..0 TC reached, 7..4 request
	mask   uint8    // 4 mask bits
	mode   [4]uint8 // last mode word per channel

	// Wiring; set before traffic, never changed mid-experiment.
	Mem    *bus.RAM     // simulated main memory the channel reads/writes
	Page   uint32       // address bits 16+ (the ISA page register)
	Sink   func(uint8)  // device end of a read transfer (memory -> device)
	Source func() uint8 // device end of a write transfer (device -> memory)
	OnTC   func()       // terminal-count pulse (EOP)
	Clock  *bus.Clock   // host clock the terminal-count event is emitted through
}

// New returns a controller with all channels masked, as after reset.
func New() *Sim { return &Sim{mask: 0xf} }

// FlipFlop reports the first/last flip-flop state (false = next byte is
// the low byte). Exposed for the serialization quirk tests.
func (s *Sim) FlipFlop() bool { return s.flipflop }

// BaseAddr0 returns channel 0's programmed base address.
func (s *Sim) BaseAddr0() uint16 { return s.baseAddr }

// BaseCount0 returns channel 0's programmed base word count.
func (s *Sim) BaseCount0() uint16 { return s.baseCount }

// CurAddr0 returns channel 0's live current address without touching the
// flip-flop (a test backdoor; the port readout toggles it).
func (s *Sim) CurAddr0() uint16 { return s.curAddr }

// CurCount0 returns channel 0's live current word count without touching
// the flip-flop.
func (s *Sim) CurCount0() uint16 { return s.curCount }

// Mode returns the last mode word written for channel ch.
func (s *Sim) Mode(ch int) uint8 { return s.mode[ch&3] }

// Masked reports whether channel ch is masked off.
func (s *Sim) Masked(ch int) bool { return s.mask&(1<<uint(ch&3)) != 0 }

// Request raises (or drops) the request flag of channel ch, as a device
// driving DREQ would.
func (s *Sim) Request(ch int, on bool) {
	bit := uint8(0x10) << uint(ch&3)
	if on {
		s.status |= bit
	} else {
		s.status &^= bit
	}
}

// Transfer runs up to units transfer cycles on channel 0. Each cycle moves
// one byte between Mem and the device end (Sink for read transfers,
// Source for write transfers, when wired), steps the current address (down
// in decrement mode), and decrements the word count; counting past zero
// raises terminal count (the datasheet's N+1 cycles for a programmed count
// of N). At TC the status TC flag is set and OnTC pulses; in auto-init
// mode the current address and count reload from the base registers and
// the channel stays unmasked, otherwise the channel masks itself. The
// request flag is the device's DREQ image and is left untouched — hardware
// does not clear it at TC (the pre-pipeline simulator did; that divergence
// starved auto-init rings after their first revolution).
//
// Transfer returns the number of cycles actually run. It stops at TC even
// with cycles remaining, so callers observe the ring boundary (EOP); a
// masked channel runs none. Callbacks run after the cycle has stepped the
// registers, so sinks may re-enter the bus or other simulators freely.
func (s *Sim) Transfer(units int) int {
	done := 0
	for ; units > 0; units-- {
		if s.mask&1 != 0 {
			break
		}
		mode := s.mode[0]
		phys := s.Page<<16 | uint32(s.curAddr)
		if mode&ModeDown != 0 {
			s.curAddr--
		} else {
			s.curAddr++
		}
		tc := s.curCount == 0
		s.curCount--
		if tc {
			s.status |= 0x01
			if mode&ModeAutoInit != 0 {
				s.curAddr = s.baseAddr
				s.curCount = s.baseCount
			} else {
				s.mask |= 1 // hardware masks the channel at terminal count
			}
		}

		switch mode & (ModeXferRead | ModeXferWrite) {
		case ModeXferRead: // memory -> device
			if s.Mem != nil && s.Sink != nil {
				s.Sink(s.Mem.At(int(phys)))
			}
		case ModeXferWrite: // device -> memory
			if s.Mem != nil && s.Source != nil {
				s.Mem.Set(int(phys), s.Source())
			}
		}
		done++
		if tc {
			s.Clock.Emit(obs.Event{Kind: obs.KindDMATC, Source: "dma8237", Detail: "ch0"})
			if s.OnTC != nil {
				s.OnTC()
			}
			break
		}
	}
	return done
}

// BusRead implements bus.Handler.
func (s *Sim) BusRead(offset uint32, width int) uint32 {
	switch offset {
	case PortAddr0:
		return uint32(s.byteOf(s.curAddr))
	case PortCount0:
		return uint32(s.byteOf(s.curCount))
	case PortStatus:
		// Reading the status register clears the TC flags (datasheet).
		v := s.status
		s.status &= 0xf0
		return uint32(v)
	}
	return 0xff
}

// byteOf returns the flip-flop-selected byte of a 16-bit register and
// toggles the flip-flop.
func (s *Sim) byteOf(v uint16) uint8 {
	if s.flipflop {
		s.flipflop = false
		return uint8(v >> 8)
	}
	s.flipflop = true
	return uint8(v)
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(offset uint32, width int, v uint32) {
	b := uint8(v)
	switch offset {
	case PortAddr0:
		s.baseAddr = s.splice(s.baseAddr, b)
		s.curAddr = s.baseAddr
	case PortCount0:
		s.baseCount = s.splice(s.baseCount, b)
		s.curCount = s.baseCount
	case PortMask:
		bit := uint8(1) << (b & maskChanBits)
		if b&maskSetBit != 0 {
			s.mask |= bit
		} else {
			s.mask &^= bit
		}
	case PortMode:
		s.mode[b&3] = b
	case PortClearFF:
		s.flipflop = false
	}
}

// splice merges one byte into a 16-bit register at the flip-flop-selected
// position and toggles the flip-flop. The address and count ports SHARE
// the flip-flop — that is the serialization hazard.
func (s *Sim) splice(reg uint16, b uint8) uint16 {
	if s.flipflop {
		s.flipflop = false
		return reg&0x00ff | uint16(b)<<8
	}
	s.flipflop = true
	return reg&0xff00 | uint16(b)
}
