// Package permedia2 simulates the 2D engine of a 3Dlabs Permedia2 graphics
// controller, the device of Tables 3 and 4.
//
// Registers are memory-mapped 32-bit words behind an input FIFO. The free-
// entry count is readable at offset 0; drivers must check it before bursting
// command writes (the wait loops of the paper's #w column). A render command
// occupies the engine for a time proportional to pixels × bytes-per-pixel,
// during which further writes queue in the FIFO; when the FIFO fills the
// write stalls the bus until the engine drains, exactly like the hardware.
//
// The framebuffer is kept in memory so tests can verify fills and copies
// pixel by pixel. It is stored in 64 KiB pages, each allocated on its first
// non-zero write, so a chip that draws on a corner of the screen holds a
// page or two rather than the whole framebuffer.
package permedia2

import (
	"encoding/binary"

	"repro/internal/bus"
)

// Register byte offsets (32-bit registers).
const (
	RegInFIFOSpace   = 0
	RegFBWindowBase  = 8
	RegLogicalOpMode = 16
	RegFBWriteConfig = 24
	RegConstantColor = 32
	RegStartXDom     = 40
	RegStartXSub     = 48
	RegStartY        = 56
	RegDY            = 64
	RegCount         = 72
	RegRectOrigin    = 80
	RegRectSize      = 88
	RegScissorMin    = 96
	RegScissorMax    = 104
	RegFBReadMode    = 112
	RegFBSourceOff   = 120
	RegRender        = 128
)

// Render command bits.
const (
	RenderFill = 0x01
	RenderCopy = 0x81
)

// FIFODepth is the number of input FIFO entries.
const FIFODepth = 32

// Engine timing: fixed per-command setup plus per-byte fill/copy cost.
const (
	setupNS    = 200
	fillByteNS = 2
	copyByteNS = 4
)

// Sim is the simulated controller. Map it over 0x88 bytes of a
// memory-mapped space created with bus.DefaultMemCosts.
type Sim struct {
	clock *bus.Clock

	Width, Height int
	fb            pages // Width*Height*4 bytes, stride fixed at 32bpp max

	// Register state.
	windowBase, logicalOp, writeConfig, color    uint32
	startXDom, startXSub, startY, dY, count      uint32
	rectOrigin, rectSize, scissorMin, scissorMax uint32
	readMode, sourceOff                          uint32

	busyUntil uint64
	// FIFO bookkeeping: writes accumulate in an open batch; a render closes
	// the batch, which drains when the engine finishes that primitive.
	openEntries int
	batches     []pendingBatch

	// Counters for tests.
	Fills, Copies uint64
	Stalls        uint64
}

// pendingBatch is one queued primitive's worth of FIFO entries, draining at
// the virtual time the engine completes it.
type pendingBatch struct {
	done    uint64
	entries int
}

// New creates a controller with a Width×Height framebuffer.
func New(clock *bus.Clock, width, height int) *Sim {
	return &Sim{clock: clock, Width: width, Height: height, fb: newPages(width * height * 4)}
}

// BytesPerPixel decodes the framebuffer write configuration depth field.
func (s *Sim) BytesPerPixel() int {
	switch s.writeConfig & 0x3 {
	case 0:
		return 1
	case 1:
		return 2
	case 3:
		return 3
	default:
		return 4
	}
}

// Pixel returns the stored pixel value at (x, y) for verification.
func (s *Sim) Pixel(x, y int) uint32 {
	bpp := s.BytesPerPixel()
	var px [4]byte
	s.fb.read(px[:bpp], (y*s.Width+x)*bpp)
	return binary.LittleEndian.Uint32(px[:])
}

// free returns the current free FIFO entries after draining the batches the
// engine has completed by now.
func (s *Sim) free() int {
	now := s.clock.Now()
	for len(s.batches) > 0 && s.batches[0].done <= now {
		s.batches = s.batches[1:]
	}
	queued := s.openEntries
	for _, b := range s.batches {
		queued += b.entries
	}
	if queued > FIFODepth {
		queued = FIFODepth
	}
	return FIFODepth - queued
}

// BusRead implements bus.Handler.
func (s *Sim) BusRead(off uint32, width int) uint32 {
	if off == RegInFIFOSpace {
		return uint32(s.free())
	}
	return 0
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(off uint32, width int, v uint32) {
	// FIFO admission: a write into a full FIFO stalls the bus until the
	// engine completes the oldest queued primitive.
	for s.free() == 0 {
		s.Stalls++
		if len(s.batches) == 0 {
			break // bookkeeping overflow without pending work: drop through
		}
		if next := s.batches[0].done; next > s.clock.Now() {
			s.clock.Advance(next - s.clock.Now())
		} else {
			s.batches = s.batches[1:]
		}
	}
	if s.clock.Now() < s.busyUntil {
		s.openEntries++
	}

	switch off {
	case RegFBWindowBase:
		s.windowBase = v
	case RegLogicalOpMode:
		s.logicalOp = v
	case RegFBWriteConfig:
		s.writeConfig = v
	case RegConstantColor:
		s.color = v
	case RegStartXDom:
		s.startXDom = v
	case RegStartXSub:
		s.startXSub = v
	case RegStartY:
		s.startY = v
	case RegDY:
		s.dY = v
	case RegCount:
		s.count = v
	case RegRectOrigin:
		s.rectOrigin = v
	case RegRectSize:
		s.rectSize = v
	case RegScissorMin:
		s.scissorMin = v
	case RegScissorMax:
		s.scissorMax = v
	case RegFBReadMode:
		s.readMode = v
	case RegFBSourceOff:
		s.sourceOff = v
	case RegRender:
		s.render(v)
	}
}

func (s *Sim) render(cmd uint32) {
	x := int(int16(s.rectOrigin & 0xffff))
	y := int(int16(s.rectOrigin >> 16))
	w := int(s.rectSize & 0xffff)
	h := int(s.rectSize >> 16)
	bpp := s.BytesPerPixel()

	if cmd&0x01 == 0 {
		return // not a rectangle primitive
	}
	var perByte uint64 = fillByteNS
	if cmd&0x80 != 0 { // framebuffer source enabled: screen copy
		perByte = copyByteNS
		s.copyRect(x, y, w, h, bpp)
		s.Copies++
	} else {
		s.fillRect(x, y, w, h, bpp)
		s.Fills++
	}
	busy := setupNS + uint64(w*h*bpp)*perByte
	start := s.busyUntil
	if now := s.clock.Now(); now > start {
		start = now
	}
	s.busyUntil = start + busy
	// Close the open batch: its entries drain when this primitive is done.
	s.batches = append(s.batches, pendingBatch{done: s.busyUntil, entries: s.openEntries})
	s.openEntries = 0
}

func (s *Sim) fillRect(x, y, w, h, bpp int) {
	x0, x1 := clip(x, w, s.Width)
	y0, y1 := clip(y, h, s.Height)
	var pat [4]byte
	binary.LittleEndian.PutUint32(pat[:], s.color)
	for yy := y0; yy < y1; yy++ {
		s.fb.fill((yy*s.Width+x0)*bpp, (x1-x0)*bpp, pat[:bpp])
	}
}

// copyRect moves a w×h block; the source origin is the destination origin
// displaced by the packed signed 16-bit deltas in fb_source_offset. The
// destination is clipped to the framebuffer first, and destination pixels
// whose source lies off the framebuffer are cleared. Rows move through a
// one-row buffer, walked away from the source so an overlapping copy
// reads every row before overwriting it.
func (s *Sim) copyRect(x, y, w, h, bpp int) {
	dx := int(int16(s.sourceOff & 0xffff))
	dy := int(int16(s.sourceOff >> 16))
	x0, x1 := clip(x, w, s.Width)
	y0, y1 := clip(y, h, s.Height)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	sx0, sx1 := clip(x0+dx, x1-x0, s.Width) // the source columns on the framebuffer
	row := make([]byte, (x1-x0)*bpp)
	ty, end, step := y0, y1, 1
	if dy < 0 {
		ty, end, step = y1-1, y0-1, -1
	}
	for ; ty != end; ty += step {
		clear(row)
		if sy := ty + dy; sy >= 0 && sy < s.Height && sx0 < sx1 {
			s.fb.read(row[(sx0-dx-x0)*bpp:(sx1-dx-x0)*bpp], (sy*s.Width+sx0)*bpp)
		}
		s.fb.write((ty*s.Width+x0)*bpp, row)
	}
}

// clip returns the part [lo, hi) of the span [at, at+n) that lies in
// [0, limit); lo >= hi when none does.
func clip(at, n, limit int) (lo, hi int) {
	return max(at, 0), min(at+n, limit)
}
