package cs4236

import (
	"bytes"
	"testing"

	"repro/internal/bus"
)

// TestIndexedRegisterWindow is the base automaton: the index written to R0
// selects which register the data port addresses, and the selection holds
// until R0 is rewritten.
func TestIndexedRegisterWindow(t *testing.T) {
	s := New()
	s.BusWrite(PortIndex, 8, 5)
	s.BusWrite(PortData, 8, 0x3c)
	s.BusWrite(PortIndex, 8, 7)
	s.BusWrite(PortData, 8, 0x99)
	if got := s.Indexed(5); got != 0x3c {
		t.Errorf("I5 = %#x, want 0x3c", got)
	}
	if got := s.Indexed(7); got != 0x99 {
		t.Errorf("I7 = %#x, want 0x99", got)
	}
	// Re-select and read back through the window.
	s.BusWrite(PortIndex, 8, 5)
	if got := s.BusRead(PortData, 8); got != 0x3c {
		t.Errorf("window read = %#x, want 0x3c", got)
	}
	// Consecutive data accesses hit the same register (no auto-increment).
	if got := s.BusRead(PortData, 8); got != 0x3c {
		t.Errorf("second window read = %#x, want 0x3c", got)
	}
}

// TestExtendedRegisterAutomaton is the §2.2 three-step automaton: writing
// I23 with XRAE set turns the data port into a window onto extended
// register XA; writing R0 drops back to indexed addressing.
func TestExtendedRegisterAutomaton(t *testing.T) {
	s := New()
	// Program I23: XA = 5 (bits 7..4 carry XA3..0, bit 2 carries XA4),
	// XRAE set.
	s.BusWrite(PortIndex, 8, ExtIndex)
	s.BusWrite(PortData, 8, 5<<4|I23XRAE)
	if !s.Extended() {
		t.Fatal("XRAE write must arm the extended window")
	}
	s.BusWrite(PortData, 8, 0x77) // extended data
	if got := s.Ext(5); got != 0x77 {
		t.Errorf("X5 = %#x, want 0x77", got)
	}
	if got := s.Indexed(5); got != 0 {
		t.Errorf("I5 = %#x, the extended write must not touch indexed space", got)
	}
	// An index write drops the mode: the data port is indexed again.
	s.BusWrite(PortIndex, 8, 5)
	if s.Extended() {
		t.Fatal("index write must drop the extended mode")
	}
	s.BusWrite(PortData, 8, 0x11)
	if got, want := s.Indexed(5), uint8(0x11); got != want {
		t.Errorf("I5 = %#x, want %#x", got, want)
	}
	if got := s.Ext(5); got != 0x77 {
		t.Errorf("X5 = %#x, want 0x77 untouched", got)
	}
}

func TestExtendedAddressBit4(t *testing.T) {
	s := New()
	// XA = 17 = 0b10001: bit 4 travels in I23 bit 2.
	s.BusWrite(PortIndex, 8, ExtIndex)
	s.BusWrite(PortData, 8, (17&0xf)<<4|I23XA4|I23XRAE)
	s.BusWrite(PortData, 8, 0x42)
	if got := s.Ext(17); got != 0x42 {
		t.Errorf("X17 = %#x, want 0x42", got)
	}
}

func TestI23ReservedBitForcedZero(t *testing.T) {
	s := New()
	s.BusWrite(PortIndex, 8, ExtIndex)
	s.BusWrite(PortData, 8, 0xff) // reserved bit 1 set by a buggy driver
	if got := s.Indexed(ExtIndex) & I23Reserved; got != 0 {
		t.Errorf("reserved bit reads back as %#x, want 0", got)
	}
}

func TestWithoutXRAEDataPortStaysIndexed(t *testing.T) {
	s := New()
	s.BusWrite(PortIndex, 8, ExtIndex)
	s.BusWrite(PortData, 8, 5<<4) // XA latched, XRAE clear
	if s.Extended() {
		t.Fatal("extended mode armed without XRAE")
	}
	// The data port still addresses I23 itself.
	s.BusWrite(PortData, 8, 6<<4)
	if got := s.Indexed(ExtIndex); got != 6<<4 {
		t.Errorf("I23 = %#x, want %#x", got, 6<<4)
	}
}

func TestBackdoorExt(t *testing.T) {
	s := New()
	s.SetExt(25, 0x5a)
	s.BusWrite(PortIndex, 8, ExtIndex)
	s.BusWrite(PortData, 8, (25&0xf)<<4|I23XA4|I23XRAE)
	if got := s.BusRead(PortData, 8); got != 0x5a {
		t.Errorf("X25 through the window = %#x, want 0x5a", got)
	}
}

// ---------------------------------------------------------------------------
// Playback engine

// program writes indexed register i through the front door.
func program(s *Sim, i, v uint8) {
	s.BusWrite(PortIndex, 8, uint32(i))
	s.BusWrite(PortData, 8, uint32(v))
}

func TestPumpConsumesAtProgrammedRate(t *testing.T) {
	var clk bus.Clock
	s := New()
	s.Clock = &clk
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	pos := 0
	s.DREQ = func(n int) int {
		moved := 0
		for ; n > 0 && pos < len(src); n-- {
			s.FIFOPush(src[pos])
			pos++
			moved++
		}
		return moved
	}
	// 16-bit stereo at 48 kHz: 4-byte frames, 20833ns periods.
	program(s, RegPfmt, 0x0c|PfmtStereo|Pfmt16Bit)
	program(s, RegIface, IfacePEN)

	if got := s.Pump(10); got != 10 {
		t.Fatalf("pumped %d frames, want 10", got)
	}
	if got := clk.Now(); got != 10*(uint64(1e9)/48000) {
		t.Errorf("clock = %d ns, want 10 sample periods", got)
	}
	// Drain the rest: 64 bytes = 16 frames total, then a clean stop
	// (empty FIFO over a dry channel is not an underrun).
	if got := s.Pump(1000); got != 6 {
		t.Errorf("pumped %d more frames, want 6", got)
	}
	if s.Underrun() {
		t.Error("clean end of data flagged as underrun")
	}
	if !bytes.Equal(s.Played(), src) {
		t.Errorf("played % x,\nwant % x", s.Played(), src)
	}
}

func TestPumpHonoursPENHaltAndUnderrun(t *testing.T) {
	s := New()
	s.DREQ = func(n int) int { return 0 }
	program(s, RegPfmt, 0x00) // 8 kHz mono 8-bit
	if got := s.Pump(5); got != 0 {
		t.Fatalf("pumped %d frames with PEN clear, want 0", got)
	}

	program(s, RegIface, IfacePEN)
	halt := true
	s.Halt = func() bool { return halt }
	if got := s.Pump(5); got != 0 {
		t.Fatalf("pumped %d frames against the barrier, want 0", got)
	}
	halt = false

	// A partial frame stuck over a dry channel IS an underrun: 16-bit
	// frames with one byte queued.
	program(s, RegPfmt, 0x0c|Pfmt16Bit)
	s.FIFOPush(0xaa)
	if got := s.Pump(5); got != 0 {
		t.Fatalf("pumped %d frames from a starved FIFO, want 0", got)
	}
	if !s.Underrun() {
		t.Error("mid-frame starvation not flagged as underrun")
	}

	// Reserved divider encodings give no sample clock.
	s.ResetPlayback()
	program(s, RegPfmt, 0x08)
	s.FIFOPush(0x11)
	if got := s.Pump(5); got != 0 {
		t.Errorf("pumped %d frames with no sample clock, want 0", got)
	}
}

// TestAFSWriteAcksAllFlags: a host write to I24 acknowledges every pending
// interrupt flag regardless of the written value, so the two driver
// variants' ack styles (write-back-as-zero vs masked read-modify-write)
// cannot diverge about a concurrently pending capture/timer interrupt.
func TestAFSWriteAcksAllFlags(t *testing.T) {
	s := New()
	s.RaisePI()
	s.indexed[RegAFS] |= AFSCI | AFSTI
	// The devil-style ack: everything but PI written as zero.
	program(s, RegAFS, 0x00)
	if got := s.Indexed(RegAFS) & afsFlags; got != 0 {
		t.Errorf("flags = %#x after zero ack, want all clear", got)
	}

	s.RaisePI()
	s.indexed[RegAFS] |= AFSCI
	// The hand-style ack: read-modify-write preserving the other flags in
	// the written value — the hardware still clears them all.
	program(s, RegAFS, AFSCI)
	if got := s.Indexed(RegAFS) & afsFlags; got != 0 {
		t.Errorf("flags = %#x after read-modify-write ack, want all clear", got)
	}
}
