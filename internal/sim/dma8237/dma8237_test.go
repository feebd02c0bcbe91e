package dma8237

import (
	"bytes"
	"testing"

	"repro/internal/bus"
)

func write16(s *Sim, port uint32, v uint16) {
	s.BusWrite(PortClearFF, 8, 0)
	s.BusWrite(port, 8, uint32(v&0xff))
	s.BusWrite(port, 8, uint32(v>>8))
}

// TestFlipFlopBytePairing is the §2.2 quirk: ONE flip-flop orders the
// low/high bytes for both 16-bit data ports, so interleaving an address
// byte into a count pair scrambles both registers unless the flip-flop is
// cleared first.
func TestFlipFlopBytePairing(t *testing.T) {
	s := New()
	write16(s, PortAddr0, 0x1234)
	if got := s.BaseAddr0(); got != 0x1234 {
		t.Fatalf("addr = %#x, want 0x1234", got)
	}
	write16(s, PortCount0, 0xbeef)
	if got := s.BaseCount0(); got != 0xbeef {
		t.Fatalf("count = %#x, want 0xbeef", got)
	}

	// The hazard: write the address low byte, then (without clearing the
	// flip-flop) a count byte — it lands in the count HIGH half, because
	// the flip-flop is shared.
	s = New()
	s.BusWrite(PortClearFF, 8, 0)
	s.BusWrite(PortAddr0, 8, 0x11) // low byte; flip-flop now points high
	s.BusWrite(PortCount0, 8, 0x22)
	if got := s.BaseCount0(); got != 0x2200 {
		t.Errorf("interleaved count = %#x, want 0x2200 (shared flip-flop)", got)
	}
}

func TestClearFlipFlopResyncs(t *testing.T) {
	s := New()
	s.BusWrite(PortClearFF, 8, 0)
	s.BusWrite(PortAddr0, 8, 0xaa) // leave the flip-flop pointing high
	if !s.FlipFlop() {
		t.Fatal("flip-flop should point at the high byte")
	}
	// Any write to the clear port — the value is ignored — resyncs.
	s.BusWrite(PortClearFF, 8, 0x5a)
	if s.FlipFlop() {
		t.Fatal("flip-flop not cleared")
	}
	write16(s, PortAddr0, 0x4000)
	if got := s.BaseAddr0(); got != 0x4000 {
		t.Errorf("addr = %#x after resync", got)
	}
}

func TestReadbackUsesFlipFlop(t *testing.T) {
	s := New()
	write16(s, PortAddr0, 0xcafe)
	s.BusWrite(PortClearFF, 8, 0)
	lo := s.BusRead(PortAddr0, 8)
	hi := s.BusRead(PortAddr0, 8)
	if lo != 0xfe || hi != 0xca {
		t.Errorf("readback = %#x,%#x, want 0xfe,0xca", lo, hi)
	}
}

func TestMaskModeAndTransfer(t *testing.T) {
	s := New()
	if !s.Masked(0) {
		t.Fatal("channels must come up masked")
	}
	write16(s, PortAddr0, 0x100)
	write16(s, PortCount0, 3) // N+1 = 4 words
	s.BusWrite(PortMode, 8, ModeXferRead|0)
	s.BusWrite(PortMask, 8, 0) // clear channel 0 mask
	if s.Masked(0) {
		t.Fatal("mask clear ignored")
	}
	if got := s.Transfer(10); got != 4 {
		t.Errorf("transferred %d words, want 4 (count+1)", got)
	}
	// Terminal count: status bit 0 set, channel masked again.
	if got := s.BusRead(PortStatus, 8); got&0x0f != 0x01 {
		t.Errorf("status = %#x, want TC on channel 0", got)
	}
	// Reading the status cleared the TC flags.
	if got := s.BusRead(PortStatus, 8); got&0x0f != 0 {
		t.Errorf("status = %#x, want TC cleared by read", got)
	}
	if !s.Masked(0) {
		t.Error("channel must mask itself at terminal count")
	}
}

func TestAutoInitReloads(t *testing.T) {
	s := New()
	write16(s, PortAddr0, 0x2000)
	write16(s, PortCount0, 1)
	s.BusWrite(PortMode, 8, ModeXferWrite|ModeAutoInit|0)
	s.BusWrite(PortMask, 8, 0)
	s.Transfer(2)
	if s.Masked(0) {
		t.Error("auto-init channel must stay unmasked at TC")
	}
	// The current registers reloaded: another full run is possible.
	if got := s.Transfer(2); got != 2 {
		t.Errorf("second run transferred %d, want 2", got)
	}
}

// TestAutoInitDatasheetSemantics round-trips the sound pipeline's
// auto-init mode against the 8237A datasheet: at terminal count the
// current address AND current count reload from the base registers, the
// TC status flag is set on every revolution, the channel stays unmasked,
// and the request flag (the DREQ image) is NOT cleared — the pre-pipeline
// simulator dropped it at TC, which would starve an auto-init ring after
// its first revolution.
func TestAutoInitDatasheetSemantics(t *testing.T) {
	s := New()
	s.Request(0, true) // device holds DREQ for the whole stream
	write16(s, PortAddr0, 0x2000)
	write16(s, PortCount0, 7) // 8-cycle revolutions
	s.BusWrite(PortMode, 8, ModeXferRead|ModeAutoInit|0)
	s.BusWrite(PortMask, 8, 0)

	for rev := 0; rev < 3; rev++ {
		if got := s.Transfer(100); got != 8 {
			t.Fatalf("revolution %d: %d cycles, want 8 (count+1, stop at TC)", rev, got)
		}
		if s.CurAddr0() != 0x2000 || s.CurCount0() != 7 {
			t.Fatalf("revolution %d: current regs = %#x/%d, want reload to base 0x2000/7",
				rev, s.CurAddr0(), s.CurCount0())
		}
		if s.Masked(0) {
			t.Fatalf("revolution %d: auto-init channel masked itself", rev)
		}
		st := s.BusRead(PortStatus, 8)
		if st&0x01 == 0 {
			t.Fatalf("revolution %d: TC flag not set, status %#x", rev, st)
		}
		if st>>4&0x1 == 0 {
			t.Fatalf("revolution %d: request flag cleared at TC, status %#x", rev, st)
		}
	}
}

// TestFlipFlopSurvivesTransfer: terminal count and auto-init reload are
// DMA-cycle machinery; they must not disturb the program-I/O byte pointer.
// Reprogramming the count mid-transfer with a stale flip-flop still lands
// the byte in the high half — the serialization hazard is observable across
// a running transfer exactly as on an idle controller.
func TestFlipFlopSurvivesTransfer(t *testing.T) {
	s := New()
	write16(s, PortAddr0, 0x100)
	write16(s, PortCount0, 63)
	s.BusWrite(PortMode, 8, ModeXferRead|ModeAutoInit|0)
	s.BusWrite(PortMask, 8, 0)

	// Leave the flip-flop pointing at the high byte, then run through TC.
	s.BusWrite(PortClearFF, 8, 0)
	s.BusWrite(PortAddr0, 8, 0x34) // low byte only
	if !s.FlipFlop() {
		t.Fatal("flip-flop should point high after a single byte")
	}
	s.Transfer(64)
	if !s.FlipFlop() {
		t.Error("Transfer must not touch the first/last flip-flop")
	}
	// The next count byte lands in the HIGH half: the shared flip-flop
	// hazard across reprogramming mid-stream.
	s.BusWrite(PortCount0, 8, 0x02)
	if got := s.BaseCount0(); got != 0x023f {
		t.Errorf("count = %#x, want the high-byte splice 0x023f", got)
	}
}

// TestTransferMovesBytes: a read transfer carries bytes from the page-
// adjusted memory address into the device sink, one per cycle, in address
// order; a write transfer fills memory from the source.
func TestTransferMovesBytes(t *testing.T) {
	mem := bus.NewRAM(0x30010)
	want := make([]byte, 16)
	for i := range want {
		want[i] = byte(0xa0 + i)
	}
	mem.Store(0x20000, want)
	var got []byte
	tcs := 0
	s := New()
	s.Mem = mem
	s.Page = 2 // physical = 0x20000 | addr16
	s.Sink = func(b uint8) { got = append(got, b) }
	s.OnTC = func() { tcs++ }
	write16(s, PortAddr0, 0x0000)
	write16(s, PortCount0, 15)
	s.BusWrite(PortMode, 8, ModeXferRead|0)
	s.BusWrite(PortMask, 8, 0)

	if n := s.Transfer(9); n != 9 {
		t.Fatalf("first burst = %d cycles, want 9", n)
	}
	if n := s.Transfer(100); n != 7 {
		t.Fatalf("second burst = %d cycles, want the 7 remaining", n)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sink saw % x, want % x", got, want)
	}
	if tcs != 1 {
		t.Errorf("OnTC pulsed %d times, want 1", tcs)
	}
	if !s.Masked(0) {
		t.Error("single-shot channel must mask itself at TC")
	}

	// Write transfer: device -> memory.
	s = New()
	s.Mem = mem
	s.Page = 3
	next := byte(0)
	s.Source = func() uint8 { next++; return next }
	write16(s, PortAddr0, 0x0004)
	write16(s, PortCount0, 3)
	s.BusWrite(PortMode, 8, ModeXferWrite|0)
	s.BusWrite(PortMask, 8, 0)
	s.Transfer(8)
	stored := make([]byte, 4)
	if mem.Load(0x30004, stored); !bytes.Equal(stored, []byte{1, 2, 3, 4}) {
		t.Errorf("memory = % x, want 01 02 03 04", stored)
	}
}

func TestRequestFlags(t *testing.T) {
	s := New()
	s.Request(2, true)
	if got := s.BusRead(PortStatus, 8); got>>4 != 1<<2 {
		t.Errorf("requests = %#x", got>>4)
	}
	s.Request(2, false)
	if got := s.BusRead(PortStatus, 8); got>>4 != 0 {
		t.Errorf("requests = %#x after drop", got>>4)
	}
}
