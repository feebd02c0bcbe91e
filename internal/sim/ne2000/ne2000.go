// Package ne2000 simulates an NE2000 Ethernet controller (DP8390 core):
// the page-switched register file, the remote-DMA engine over the 16 KiB
// on-board SRAM, the receive ring protocol (CURR/BNRY, 256-byte pages,
// 4-byte packet headers), and a transmit path that loops frames back into
// the receive ring — enough substrate for a full driver bring-up,
// transmit, and receive cycle without a network.
//
// The device occupies a 32-byte window: offsets 0x00-0x0f are the
// DP8390 registers (bank selected by the command-register page bits),
// 0x10 is the 16-bit remote-DMA data port, and 0x1f is the reset port.
package ne2000

// Register offsets (page-dependent where noted).
const (
	RegCmd   = 0x00
	RegData  = 0x10
	RegReset = 0x1f
	sramSize = 16 * 1024
	sramBase = 0x4000 // SRAM window in remote-DMA address space
	PageSize = 256
)

// Command register bits.
const (
	CmdSTP   = 0x01
	CmdSTA   = 0x02
	CmdTXP   = 0x04
	CmdRD0   = 0x08
	CmdRD1   = 0x10
	CmdRD2   = 0x20
	CmdPage0 = 0x00
	CmdPage1 = 0x40
)

// Interrupt status register bits.
const (
	IsrPRX = 0x01
	IsrPTX = 0x02
	IsrRXE = 0x04
	IsrTXE = 0x08
	IsrOVW = 0x10
	IsrCNT = 0x20
	IsrRDC = 0x40
	IsrRST = 0x80
)

// Sim is a simulated NE2000. Map it over a 32-byte window.
type Sim struct {
	sram [sramSize]byte

	cmd uint8
	// running is the latched start/stop state: the CR st field value 00 is
	// a no-op (the Devil spec's NEUTRAL), 01 stops, 10 starts.
	running                    bool
	pstart, pstop, bnry, curr  uint8
	tpsr                       uint8
	tbcr0, tbcr1               uint8
	rsar0, rsar1, rbcr0, rbcr1 uint8
	isr, imr, dcr, rcr, tcr    uint8
	par                        [6]uint8
	mar                        [8]uint8

	remoteAddr  int
	remoteCount int
	remoteWrite bool

	// IRQ, when non-nil, fires on unmasked interrupt status transitions.
	IRQ func()

	// TxFrames counts transmitted frames (each is also looped back).
	TxFrames uint64
}

// New returns a stopped controller.
func New() *Sim { return &Sim{cmd: CmdSTP | CmdRD2} }

func (s *Sim) raise(bits uint8) {
	s.isr |= bits
	if s.IRQ != nil && s.isr&s.imr != 0 {
		s.IRQ()
	}
}

// SRAM returns a copy of the on-board memory for test inspection.
func (s *Sim) SRAM() []byte {
	return append([]byte(nil), s.sram[:]...)
}

// InjectFrame delivers a received frame into the ring, as the wire would.
func (s *Sim) InjectFrame(frame []byte) bool { return s.deliver(frame) }

// deliver writes a frame into the receive ring at CURR. It requires the
// receiver to be started and the ring configured.
func (s *Sim) deliver(frame []byte) bool {
	if !s.running || s.pstop <= s.pstart {
		return false
	}
	total := len(frame) + 4
	pages := (total + PageSize - 1) / PageSize
	ringPages := int(s.pstop - s.pstart)
	if pages >= ringPages {
		s.raise(IsrRXE)
		return false
	}
	// Check for ring overflow against BNRY.
	next := s.curr
	for i := 0; i < pages; i++ {
		p := next + 1
		if p >= s.pstop {
			p = s.pstart
		}
		if p == s.bnry {
			s.raise(IsrOVW)
			return false
		}
		next = p
	}
	nextPkt := s.curr + uint8(pages)
	if nextPkt >= s.pstop {
		nextPkt = s.pstart + (nextPkt - s.pstop)
	}
	// 4-byte header: receive status, next packet page, length lo/hi.
	addr := int(s.curr) * PageSize
	hdr := []byte{0x01, nextPkt, byte(total), byte(total >> 8)}
	s.ringWrite(addr, hdr)
	s.ringWrite(addr+4, frame)
	s.curr = nextPkt
	s.raise(IsrPRX)
	return true
}

// ringWrite writes into the ring with page wraparound.
func (s *Sim) ringWrite(addr int, data []byte) {
	stop := int(s.pstop) * PageSize
	start := int(s.pstart) * PageSize
	for _, b := range data {
		if addr >= stop {
			addr = start + (addr - stop)
		}
		if addr >= sramBase && addr < sramBase+sramSize {
			s.sram[addr-sramBase] = b
		}
		addr++
	}
}

func (s *Sim) page() int { return int(s.cmd >> 6 & 0x3) }

// BusRead implements bus.Handler.
func (s *Sim) BusRead(off uint32, width int) uint32 {
	switch {
	case off == RegCmd:
		return uint32(s.cmd)
	case off >= RegData && off < RegReset:
		return s.dataRead(width)
	case off == RegReset:
		s.cmd = CmdSTP | CmdRD2
		s.running = false
		s.raise(IsrRST)
		return 0
	}
	if s.page() == 1 {
		switch off {
		case 1, 2, 3, 4, 5, 6:
			return uint32(s.par[off-1])
		case 7:
			return uint32(s.curr)
		default:
			return uint32(s.mar[off-8])
		}
	}
	switch off {
	case 3:
		return uint32(s.bnry)
	case 7:
		return uint32(s.isr)
	default:
		return 0
	}
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(off uint32, width int, v uint32) {
	b := uint8(v)
	switch {
	case off == RegCmd:
		s.writeCmd(b)
		return
	case off >= RegData && off < RegReset:
		s.dataWrite(width, v)
		return
	case off == RegReset:
		return
	}
	if s.page() == 1 {
		switch off {
		case 1, 2, 3, 4, 5, 6:
			s.par[off-1] = b
		case 7:
			s.curr = b
		default:
			s.mar[off-8] = b
		}
		return
	}
	switch off {
	case 1:
		s.pstart = b
	case 2:
		s.pstop = b
	case 3:
		s.bnry = b
	case 4:
		s.tpsr = b
	case 5:
		s.tbcr0 = b
	case 6:
		s.tbcr1 = b
	case 7:
		s.isr &^= b // write-1-to-clear
	case 8:
		s.rsar0 = b
	case 9:
		s.rsar1 = b
	case 10:
		s.rbcr0 = b
	case 11:
		s.rbcr1 = b
	case 12:
		s.rcr = b
	case 13:
		s.tcr = b
	case 14:
		s.dcr = b
	case 15:
		s.imr = b
	}
}

func (s *Sim) writeCmd(b uint8) {
	s.cmd = b
	if b&CmdSTP != 0 {
		s.running = false
	} else if b&CmdSTA != 0 {
		s.running = true
	}
	rd := b >> 3 & 0x7
	switch rd {
	case 1, 2: // remote read / remote write
		s.remoteAddr = int(s.rsar0) | int(s.rsar1)<<8
		s.remoteCount = int(s.rbcr0) | int(s.rbcr1)<<8
		s.remoteWrite = rd == 2
		if s.remoteCount == 0 {
			s.raise(IsrRDC)
		}
	case 4, 5, 6, 7: // abort/complete
		s.remoteCount = 0
	}
	if b&CmdTXP != 0 && s.running {
		s.transmit()
	}
}

// transmit loops the queued frame back into the receive ring.
func (s *Sim) transmit() {
	length := int(s.tbcr0) | int(s.tbcr1)<<8
	addr := int(s.tpsr) * PageSize
	frame := make([]byte, length)
	for i := range frame {
		a := addr + i
		if a >= sramBase && a < sramBase+sramSize {
			frame[i] = s.sram[a-sramBase]
		}
	}
	s.TxFrames++
	s.cmd &^= CmdTXP
	s.raise(IsrPTX)
	s.deliver(frame)
}

func (s *Sim) dataRead(width int) uint32 {
	if s.remoteWrite || s.remoteCount <= 0 {
		return 0xffff
	}
	var v uint32
	n := width / 8
	for i := 0; i < n; i++ {
		a := s.remoteAddr
		if a >= sramBase && a < sramBase+sramSize {
			v |= uint32(s.sram[a-sramBase]) << uint(8*i)
		}
		s.remoteAddr++
		s.remoteCount--
	}
	if s.remoteCount <= 0 {
		s.raise(IsrRDC)
	}
	return v
}

func (s *Sim) dataWrite(width int, v uint32) {
	if !s.remoteWrite || s.remoteCount <= 0 {
		return
	}
	n := width / 8
	for i := 0; i < n; i++ {
		a := s.remoteAddr
		if a >= sramBase && a < sramBase+sramSize {
			s.sram[a-sramBase] = byte(v >> uint(8*i))
		}
		s.remoteAddr++
		s.remoteCount--
	}
	if s.remoteCount <= 0 {
		s.raise(IsrRDC)
	}
}
