// Package ide contains the two IDE drivers compared in Table 2 of the
// paper: a hand-crafted driver programmed with raw port I/O and magic
// constants (the "standard" Linux-style driver), and a Devil-based driver
// built exclusively on the stubs generated from the ide_disk and
// piix4_busmaster specifications.
//
// Both drivers implement the same Driver interface and are functionally
// interchangeable; the experiments measure their I/O-operation counts and
// virtual-time throughput across the paper's transfer modes. The protocol
// lives once, in this file's engine; hand.go and devil.go hold only the
// register layer the comparison is about (see regs).
package ide

import (
	"encoding/binary"
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

// command is an ATA command the protocol chooses; each variant encodes it
// its own way (a magic byte, or a symbol of the ide_disk specification).
type command uint8

// The commands the drivers issue.
const (
	cmdRead          command = iota // READ SECTORS
	cmdWrite                        // WRITE SECTORS
	cmdReadMultiple                 // READ MULTIPLE
	cmdWriteMultiple                // WRITE MULTIPLE
	cmdReadDMA                      // READ DMA
	cmdWriteDMA                     // WRITE DMA
)

// regs is a variant's register layer: how it touches the task file, the
// data port and the busmaster — the only part of a driver the paper's
// comparison is about. The engine runs the protocol over it.
type regs interface {
	// issue programs the task file and the command.
	issue(lba, count int, cmd command)
	// irq takes the interrupt that announces a DRQ block on a read or
	// completes one on a write, with the variant's status bookkeeping.
	irq() error
	// ready checks that the drive asserts DRQ before a block moves.
	ready(read bool) error
	// move16 and move32 move one DRQ block of words through the data
	// port, as one block operation or a per-unit loop.
	move16(w []uint16, read bool)
	move32(w []uint32, read bool)
	// dma runs one busmaster command over the bounce buffer.
	dma(lba, count int, read bool) error
}

// engine is the IDE protocol, written once for both variants: command
// splitting, the DMA bounce buffer, the choice between single-sector and
// MULTIPLE commands, the DRQ-block loop and the word staging. Each variant
// embeds it, so ReadSectors and WriteSectors are the engine's.
type engine struct {
	p   Ports
	cfg Config
	r   regs

	// Staging words for one DRQ block, allocated on first use and reused;
	// scratch, never part of a snapshot.
	w16 []uint16
	w32 []uint32
}

// verb names a transfer direction in errors.
func verb(read bool) string {
	if read {
		return "read"
	}
	return "write"
}

// ReadSectors implements Driver.
func (e *engine) ReadSectors(lba int, dst []byte) error { return e.transfer(lba, dst, true) }

// WriteSectors implements Driver.
func (e *engine) WriteSectors(lba int, src []byte) error { return e.transfer(lba, src, false) }

// transfer moves buf from (read) or to the disk from sector lba on, one
// command of at most maxPerCommand sectors at a time — and in DMA mode at
// most what the bounce buffer at p.DMAAddr holds — each through the PIO
// loop or a busmaster transfer through the bounce buffer.
func (e *engine) transfer(lba int, buf []byte, read bool) error {
	if len(buf)%sectorSize != 0 {
		return fmt.Errorf("ide: buffer not sector aligned")
	}
	limit := maxPerCommand
	if e.cfg.Mode == DMA {
		room := 0
		if e.p.Mem != nil {
			room = (e.p.Mem.Len() - int(e.p.DMAAddr)) / sectorSize
		}
		if room <= 0 {
			return fmt.Errorf("ide: no room for a DMA bounce buffer at %#x", e.p.DMAAddr)
		}
		limit = min(limit, room)
	}
	for off := 0; off < len(buf); {
		n := min((len(buf)-off)/sectorSize, limit)
		chunk := buf[off : off+n*sectorSize]
		var err error
		switch {
		case e.cfg.Mode == DMA && read:
			if err = e.r.dma(lba, n, true); err == nil {
				e.p.Mem.Load(int(e.p.DMAAddr), chunk)
			}
		case e.cfg.Mode == DMA:
			e.p.Mem.Store(int(e.p.DMAAddr), chunk)
			err = e.r.dma(lba, n, false)
		default:
			err = e.pio(lba, chunk, read)
		}
		if err != nil {
			return err
		}
		lba += n
		off += n * sectorSize
	}
	return nil
}

// pio runs one PIO command over buf: READ/WRITE SECTORS, or the MULTIPLE
// form when the drive was set up for several sectors per interrupt, then
// one DRQ block per interrupt. A read's interrupt announces its block; a
// write polls for DRQ and its interrupt completes the block.
func (e *engine) pio(lba int, buf []byte, read bool) error {
	phase, cmd, multiple := "write.pio", cmdWrite, cmdWriteMultiple
	if read {
		phase, cmd, multiple = "read.pio", cmdRead, cmdReadMultiple
	}
	defer e.p.span(phase)()
	per := 1
	if e.cfg.SectorsPerIRQ > 1 {
		cmd, per = multiple, e.cfg.SectorsPerIRQ
	}
	e.r.issue(lba, len(buf)/sectorSize, cmd)

	for off := 0; off < len(buf); {
		if read {
			if err := e.r.irq(); err != nil {
				return err
			}
		}
		if err := e.r.ready(read); err != nil {
			return err
		}
		block := buf[off:min(off+per*sectorSize, len(buf))]
		e.move(block, read)
		off += len(block)
		if !read {
			if err := e.r.irq(); err != nil {
				return err
			}
		}
	}
	return nil
}

// move carries one DRQ block between block and the data port through the
// staging words, which hold the block's bytes as little-endian words.
func (e *engine) move(block []byte, read bool) {
	le := binary.LittleEndian
	if e.cfg.Width == 32 {
		if len(e.w32) < len(block)/4 {
			e.w32 = make([]uint32, len(block)/4)
		}
		w := e.w32[:len(block)/4]
		if !read {
			for i := range w {
				w[i] = le.Uint32(block[4*i:])
			}
		}
		e.r.move32(w, read)
		if read {
			for i, v := range w {
				le.PutUint32(block[4*i:], v)
			}
		}
		return
	}
	if len(e.w16) < len(block)/2 {
		e.w16 = make([]uint16, len(block)/2)
	}
	w := e.w16[:len(block)/2]
	if !read {
		for i := range w {
			w[i] = le.Uint16(block[2*i:])
		}
	}
	e.r.move16(w, read)
	if read {
		for i, v := range w {
			le.PutUint16(block[2*i:], v)
		}
	}
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
