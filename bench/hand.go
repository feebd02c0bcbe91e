// The hand-written side of the §4.3 calibration: the raw port accesses a C
// driver makes for the busmouse, with the datasheet constants inline, and
// the bus dispatch loop the traced run times against a no-op handler. Raw
// port I/O is this file's whole point; everything else in the benchmark
// goes through the generated stubs, the exec interpreter or handler
// wrappers.
//
//devil:rawport
package main

import "repro/internal/bus"

// handSetConfig selects configuration mode: the fixed '1001000' pattern
// plus the CONFIGURATION bit.
func handSetConfig(s *bus.Space, base uint32) { s.Out8(base+3, 0x91) }

// handMouseState latches the counters and reads the four nibbles: x high,
// x low, y high, y low (hold bit 0x80, nibble index in bits 6..5).
func handMouseState(s *bus.Space, base uint32) (dx, dy int8) {
	s.Out8(base+2, 0xa0)
	xh := s.In8(base)
	s.Out8(base+2, 0x80)
	xl := s.In8(base)
	s.Out8(base+2, 0xe0)
	yh := s.In8(base)
	s.Out8(base+2, 0xc0)
	yl := s.In8(base)
	return int8(xh&0xf<<4 | xl&0xf), int8(yh&0xf<<4 | yl&0xf)
}

// busDispatch issues one In16 and one Out32 to port.
func busDispatch(s *bus.Space, port uint32) { s.Out32(port, uint32(s.In16(port))) }
