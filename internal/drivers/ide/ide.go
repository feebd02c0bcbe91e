// Package ide contains the two IDE drivers compared in Table 2 of the
// paper: a hand-crafted driver programmed with raw port I/O and magic
// constants (the "standard" Linux-style driver), and a Devil-based driver
// built exclusively on the stubs generated from the ide_disk and
// piix4_busmaster specifications.
//
// Both drivers implement the same Driver interface and are functionally
// interchangeable; the experiments measure their I/O-operation counts and
// virtual-time throughput across the paper's transfer modes.
package ide

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim/ide"
	"repro/internal/snap"
)

// IRQLatencyNS is the simulated cost of taking one interrupt (context
// switch + dispatch), charged when a driver consumes a pending IRQ.
const IRQLatencyNS = 11200

// Mode selects the transfer engine.
type Mode int

// Transfer modes.
const (
	PIO Mode = iota
	DMA
)

// Config selects one row of Table 2.
type Config struct {
	Mode          Mode
	Width         int  // PIO I/O size in bits: 16 or 32
	SectorsPerIRQ int  // 1 (READ SECTORS) or N (READ MULTIPLE)
	Block         bool // use block-transfer (rep) data moves instead of a C loop
}

// String renders the configuration like the paper's table rows.
func (c Config) String() string {
	if c.Mode == DMA {
		return "DMA"
	}
	style := "loop"
	if c.Block {
		style = "block"
	}
	return fmt.Sprintf("PIO %d-bit, %d sect/irq, %s", c.Width, c.SectorsPerIRQ, style)
}

// Driver is the common surface of the two implementations.
type Driver interface {
	Name() string
	// Init prepares the drive for the configured mode (reset, SET MULTIPLE).
	Init() error
	// ReadSectors reads len(dst)/512 sectors starting at lba into dst.
	ReadSectors(lba int, dst []byte) error
	// WriteSectors writes len(src)/512 sectors starting at lba from src.
	WriteSectors(lba int, src []byte) error
	// Drivers snapshot alongside the drive they program (see internal/farm
	// and internal/snap): the Devil variant serializes its two stubs'
	// driver state, the hand variant has none.
	snap.Snapshotter
}

// Ports groups the bus wiring shared by both drivers.
type Ports struct {
	Space   *bus.Space
	Clock   *bus.Clock
	Mem     *bus.RAM     // simulated main memory (DMA target)
	IRQ     *bus.IRQLine // drive interrupt line
	CmdBase uint32       // task file base (data port at +0)
	CtlBase uint32       // device control port
	BMBase  uint32       // busmaster window base
	DMAAddr uint32       // physical address of the DMA bounce buffer in Mem
}

// span pushes a driver phase onto the host's attribution stack (the one
// anchored on the port space's clock) and returns the pop.
func (p *Ports) span(name string) func() { return p.Space.Spans().Span(name) }

// waitIRQ consumes one pending interrupt and charges its latency. The
// simulator raises interrupts synchronously during port accesses, so a
// missing interrupt indicates a protocol bug, not a timing race.
func (p *Ports) waitIRQ() error {
	if !p.IRQ.Consume() {
		return fmt.Errorf("ide: lost interrupt")
	}
	p.Clock.Advance(IRQLatencyNS)
	return nil
}

const sectorSize = ide.SectorSize

// maxPerCommand is the ATA limit of sectors per command (nsect = 0).
const maxPerCommand = 256

// protocol is what each driver variant implements its own way: the PIO
// loops and one busmaster transfer of the bounce buffer.
type protocol interface {
	readPIO(lba int, dst []byte) error
	writePIO(lba int, src []byte) error
	dma(lba, count int, read bool) error
}

// transfer moves buf from (read) or to the disk from sector lba on, one
// command of at most maxPerCommand sectors at a time, each through drv's
// PIO loop or, in DMA mode, a busmaster transfer through the bounce
// buffer at p.DMAAddr.
func (p *Ports) transfer(drv protocol, mode Mode, lba int, buf []byte, read bool) error {
	if len(buf)%sectorSize != 0 {
		return fmt.Errorf("ide: buffer not sector aligned")
	}
	for off := 0; off < len(buf); {
		n := min((len(buf)-off)/sectorSize, maxPerCommand)
		chunk := buf[off : off+n*sectorSize]
		var err error
		switch {
		case mode == DMA && read:
			if err = drv.dma(lba, n, true); err == nil {
				p.Mem.Load(int(p.DMAAddr), chunk)
			}
		case mode == DMA:
			p.Mem.Store(int(p.DMAAddr), chunk[:min(len(chunk), p.Mem.Len()-int(p.DMAAddr))])
			err = drv.dma(lba, n, false)
		case read:
			err = drv.readPIO(lba, chunk)
		default:
			err = drv.writePIO(lba, chunk)
		}
		if err != nil {
			return err
		}
		lba += n
		off += n * sectorSize
	}
	return nil
}

// ---------------------------------------------------------------------------
// Rig: the disk machine

// Conventional legacy wiring of the primary channel (the Rig uses these;
// drivers take whatever their Ports carry).
const (
	cmdBase = 0x1f0   // task file
	ctlBase = 0x3f6   // device control
	bmBase  = 0xc000  // PIIX4 busmaster window
	dmaAddr = 0x10000 // physical address of the DMA bounce buffer
)

// Rig wires one disk model to a port space and virtual clock: the drive's
// task file, control port and busmaster window at the legacy addresses,
// its interrupt output latching the CPU line the drivers consume, and main
// memory holding the DMA bounce buffer.
type Rig struct {
	Clock *bus.Clock
	Space *bus.Space
	Mem   *bus.RAM
	IRQ   *bus.IRQLine
	Disk  *ide.Disk
}

// NewRig builds a machine with a disk of diskSectors sectors and room for
// a bounce buffer of bufSectors sectors at the DMA address.
func NewRig(diskSectors, bufSectors int) Rig {
	clk := &bus.Clock{}
	space := bus.NewSpace("io", clk, bus.DefaultPortCosts())
	mem := bus.NewRAM(dmaAddr + bufSectors*sectorSize)
	disk := ide.New(clk, diskSectors, mem)
	irq := &bus.IRQLine{Name: "irq14", Clock: clk}
	disk.IRQ = irq.Raise
	disk.Attach(space, cmdBase, ctlBase, bmBase)
	return Rig{Clock: clk, Space: space, Mem: mem, IRQ: irq, Disk: disk}
}

// Ports returns the driver-facing wiring of the rig.
func (r Rig) Ports() Ports {
	return Ports{
		Space: r.Space, Clock: r.Clock, Mem: r.Mem, IRQ: r.IRQ,
		CmdBase: cmdBase, CtlBase: ctlBase, BMBase: bmBase, DMAAddr: dmaAddr,
	}
}
