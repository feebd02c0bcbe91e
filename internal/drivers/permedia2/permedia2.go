// Package permedia2 contains the two accelerated-X11-style drivers compared
// in Tables 3 and 4 of the paper: a hand-crafted driver using raw
// memory-mapped writes and magic offsets, and a Devil-based driver built on
// the stubs generated from permedia2.dil.
//
// Both implement the fill-rectangle and screen-copy primitives — the only
// two the Xfree86 server accelerates on this chip — with the per-primitive
// I/O shapes the paper reports:
//
//	fill, 8/16/32 bpp: 3 wait loops + 15 writes (Devil: 17)
//	fill, 24 bpp:      2 wait loops + 10 writes (Devil: 10)
//	copy, 8/16 bpp:    3 wait loops + 15 writes (Devil: 17)
//	copy, 24/32 bpp:   2 wait loops +  9 writes (Devil:  9)
//
// The Devil surplus at 8/16/32 bpp comes from the logical-op-mode and
// write-config registers, whose independent fields are separate device
// variables and therefore separate stub calls (§4.3 micro-analysis).
package permedia2

import (
	"fmt"

	"repro/internal/bus"
	sim "repro/internal/sim/permedia2"
	"repro/internal/snap"
)

// Driver is the common surface of the two implementations.
type Driver interface {
	Name() string
	// Init programs the mode registers for the pixel depth.
	Init(bpp int) error
	// FillRect fills a w×h rectangle at (x, y) with color.
	FillRect(x, y, w, h int, color uint32)
	// CopyRect copies a w×h block from (sx, sy) to (dx, dy).
	CopyRect(sx, sy, dx, dy, w, h int)
	// WaitIdle spins until the engine has drained its input FIFO, so a
	// caller can wait for issued primitives to be drawn. Harness code
	// (experiments, farm) must use this instead of polling the FIFO
	// register raw — driver-internal port knowledge stays in the drivers.
	WaitIdle()
	// Drivers snapshot alongside the chip they program (see internal/farm
	// and internal/snap): the configured depth, plus the stub driver
	// state for the Devil variant.
	snap.Snapshotter
}

// fifoDepth is the chip's input-FIFO capacity in entries: the FIFOSpace
// register reads this value exactly when the engine is idle.
const fifoDepth = 32

// depthCode converts bits-per-pixel to the fb_write_config depth field.
func depthCode(bpp int) (uint32, error) {
	switch bpp {
	case 8:
		return 0, nil
	case 16:
		return 1, nil
	case 24:
		return 3, nil
	case 32:
		return 2, nil
	}
	return 0, fmt.Errorf("permedia2: unsupported depth %d", bpp)
}

func pack(lo, hi int) uint32 {
	return uint32(uint16(lo)) | uint32(uint16(hi))<<16
}

// Ports is the wiring shared by both drivers.
type Ports struct {
	Space *bus.Space // memory-mapped register window space
	Base  uint32     // window base address
}

// span pushes a driver phase onto the host's attribution stack (the one
// anchored on the register window's clock) and returns the pop.
func (p *Ports) span(name string) func() { return p.Space.Spans().Span(name) }

// ---------------------------------------------------------------------------
// Rig: the graphics machine

// mmioBase is the conventional address of the chip's register window.
const mmioBase = 0xf000_0000

// Rig wires one 1024x768 Permedia2 model into a memory-mapped register
// space on its own virtual clock.
type Rig struct {
	Clock *bus.Clock
	Space *bus.Space
	Chip  *sim.Sim
}

// NewRig builds the machine with the register window at mmioBase.
func NewRig() Rig {
	clk := &bus.Clock{}
	space := bus.NewSpace("mmio", clk, bus.DefaultMemCosts())
	chip := sim.New(clk, 1024, 768)
	space.MustMap(mmioBase, 0x100, chip)
	return Rig{Clock: clk, Space: space, Chip: chip}
}

// Ports returns the driver-facing wiring of the rig.
func (r Rig) Ports() Ports { return Ports{Space: r.Space, Base: mmioBase} }
