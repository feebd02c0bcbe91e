// Package ide simulates an ATA/IDE disk with an Intel PIIX4-style PCI
// busmaster DMA engine — the testbed of the paper's Table 2.
//
// The task file lives at eight port offsets (data, error/features, sector
// count, LBA low/mid/high, device/head, status/command) plus a device
// control port. PIO transfers move 16- or 32-bit units through the data
// port; READ/WRITE MULTIPLE transfers several sectors per DRQ phase, so the
// interrupt rate drops (the "sectors per interrupt" axis of Table 2).
//
// The busmaster engine is simplified relative to real PIIX4 hardware: the
// descriptor-table pointer is treated as the physical address of one
// contiguous buffer in the simulated memory space rather than a scatter/
// gather PRD list (DESIGN.md documents the substitution). DMA transfers
// advance the shared virtual clock at the disk's media rate, which is what
// caps DMA-mode throughput at the media speed in Table 2.
package ide

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/obs"
)

// SectorSize is the ATA sector size in bytes.
const SectorSize = 512

// Task file offsets relative to the command block base. Offset 0 is the
// data port; it accepts 16- and 32-bit accesses.
const (
	RegData    = 0
	RegError   = 1 // read: error; write: features
	RegNSect   = 2
	RegLBALow  = 3
	RegLBAMid  = 4
	RegLBAHigh = 5
	RegDevHead = 6
	RegStatus  = 7 // read: status; write: command
)

// Status register bits.
const (
	StBSY  = 0x80
	StDRDY = 0x40
	StDF   = 0x20
	StDSC  = 0x10
	StDRQ  = 0x08
	StCORR = 0x04
	StIDX  = 0x02
	StERR  = 0x01
)

// Error register bits.
const (
	ErrABRT = 0x04 // command aborted
	ErrIDNF = 0x10 // sector not found
)

// ATA command opcodes understood by the simulator.
const (
	CmdRecalibrate   = 0x10
	CmdReadSectors   = 0x20
	CmdWriteSectors  = 0x30
	CmdReadDMA       = 0xc8
	CmdWriteDMA      = 0xca
	CmdReadMultiple  = 0xc4
	CmdWriteMultiple = 0xc5
	CmdSetMultiple   = 0xc6
	CmdIdentify      = 0xec
)

// Busmaster register offsets (primary channel).
const (
	BMCommand = 0
	BMStatus  = 2
)

// Busmaster command/status bits.
const (
	BMStart    = 0x01
	BMReadDir  = 0x08 // transfer toward memory
	BMStActive = 0x01
	BMStError  = 0x02
	BMStIRQ    = 0x04
)

// MediaByteNS is the simulated media transfer cost per byte (≈14.25 MB/s,
// the UDMA-2 plateau of Table 2).
const MediaByteNS = 70

// Disk is the simulated drive plus busmaster function. Map its three
// handlers with Attach.
type Disk struct {
	clock *bus.Clock

	image []byte

	// Task file.
	feat, nsect, lbaLow, lbaMid, lbaHigh, devHead uint8
	status, errreg                                uint8
	ctl                                           uint8

	multiple     int  // sectors per DRQ block for READ/WRITE MULTIPLE
	xferIsSingle bool // active command is READ/WRITE SECTORS (one per DRQ)

	// Active PIO transfer.
	xfer struct {
		active    bool
		write     bool
		lba       int // next sector index
		remaining int // sectors still to move
		buf       []byte
		pos       int
	}

	// Busmaster state.
	bmCmd, bmStatus uint8
	prd             uint32
	dmaPending      bool // a READ/WRITE DMA command armed the engine
	dmaWrite        bool
	dmaLBA          int
	dmaCount        int
	mem             *bus.RAM

	// IRQ, when non-nil, is invoked when the drive raises its interrupt
	// (unless nIEN gates it). IRQCount counts raised interrupts either way.
	IRQ      func()
	IRQCount uint64
}

// New creates a disk of the given size in sectors, filled with a
// deterministic pattern, wired to the clock and (for DMA) the memory RAM.
func New(clock *bus.Clock, sectors int, mem *bus.RAM) *Disk {
	d := &Disk{clock: clock, image: make([]byte, sectors*SectorSize), mem: mem, multiple: 1}
	for i := range d.image {
		sector := i / SectorSize
		d.image[i] = byte(sector ^ (i * 7))
	}
	d.status = StDRDY | StDSC
	return d
}

// Sectors returns the drive capacity in sectors.
func (d *Disk) Sectors() int { return len(d.image) / SectorSize }

// ReadImage copies sector data out of the drive image (for verification).
func (d *Disk) ReadImage(lba, n int) []byte {
	out := make([]byte, n*SectorSize)
	copy(out, d.image[lba*SectorSize:])
	return out
}

// TaskFile returns the bus handler for the 8-port command block.
func (d *Disk) TaskFile() bus.Handler { return taskFile{d} }

// Control returns the bus handler for the device control port.
func (d *Disk) Control() bus.Handler { return control{d} }

// Busmaster returns the bus handler for the PIIX4 busmaster window
// (offsets 0-7: command at 0, status at 2, PRD pointer at 4).
func (d *Disk) Busmaster() bus.Handler { return busmaster{d} }

// Attach maps the three handlers at the conventional legacy addresses:
// task file at cmdBase (data port at cmdBase+0), control port at ctlBase,
// busmaster window at bmBase.
func (d *Disk) Attach(space *bus.Space, cmdBase, ctlBase, bmBase uint32) {
	space.MustMap(cmdBase, 8, d.TaskFile())
	space.MustMap(ctlBase, 1, d.Control())
	space.MustMap(bmBase, 8, d.Busmaster())
}

func (d *Disk) raiseIRQ() {
	d.IRQCount++
	d.clock.Emit(obs.Event{Kind: obs.KindIRQRaise, Source: "ide", Detail: "ide"})
	if d.ctl&0x02 != 0 { // nIEN set: interrupt gated off
		return
	}
	if d.IRQ != nil {
		d.IRQ()
	}
}

func (d *Disk) lba28() int {
	return int(d.lbaLow) | int(d.lbaMid)<<8 | int(d.lbaHigh)<<16 | int(d.devHead&0x0f)<<24
}

func (d *Disk) count() int {
	if d.nsect == 0 {
		return 256
	}
	return int(d.nsect)
}

func (d *Disk) abort() {
	d.errreg = ErrABRT
	d.status = StDRDY | StDSC | StERR
	d.xfer.active = false
	d.raiseIRQ()
}

// loadReadBlock fills the PIO buffer with the next DRQ block of a read.
func (d *Disk) loadReadBlock() {
	per := d.multiple
	if d.xferIsSingle {
		per = 1
	}
	if per > d.xfer.remaining {
		per = d.xfer.remaining
	}
	off := d.xfer.lba * SectorSize
	n := per * SectorSize
	d.xfer.buf = append(d.xfer.buf[:0], d.image[off:off+n]...)
	d.xfer.pos = 0
	d.xfer.lba += per
	d.xfer.remaining -= per
	d.status = StDRDY | StDSC | StDRQ
	d.raiseIRQ()
}

func (d *Disk) command(cmd uint8) {
	switch cmd {
	case CmdRecalibrate:
		d.status = StDRDY | StDSC
		d.errreg = 0
		d.raiseIRQ()
	case CmdSetMultiple:
		n := int(d.nsect)
		if n == 0 || n > 128 {
			d.abort()
			return
		}
		d.multiple = n
		d.status = StDRDY | StDSC
		d.raiseIRQ()
	case CmdReadSectors, CmdReadMultiple:
		lba, n := d.lba28(), d.count()
		if lba+n > d.Sectors() {
			d.errreg = ErrIDNF
			d.status = StDRDY | StDSC | StERR
			d.raiseIRQ()
			return
		}
		d.xfer.active = true
		d.xfer.write = false
		d.xfer.lba = lba
		d.xfer.remaining = n
		d.xferIsSingle = cmd == CmdReadSectors
		d.errreg = 0
		d.loadReadBlock()
	case CmdWriteSectors, CmdWriteMultiple:
		lba, n := d.lba28(), d.count()
		if lba+n > d.Sectors() {
			d.errreg = ErrIDNF
			d.status = StDRDY | StDSC | StERR
			d.raiseIRQ()
			return
		}
		d.xfer.active = true
		d.xfer.write = true
		d.xfer.lba = lba
		d.xfer.remaining = n
		d.xferIsSingle = cmd == CmdWriteSectors
		per := d.writeBlockSize()
		d.xfer.buf = d.xfer.buf[:0]
		d.xfer.pos = per * SectorSize
		d.xfer.buf = append(d.xfer.buf, make([]byte, per*SectorSize)...)
		d.xfer.pos = 0
		d.errreg = 0
		// Writes assert DRQ without an interrupt for the first block.
		d.status = StDRDY | StDSC | StDRQ
	case CmdReadDMA, CmdWriteDMA:
		lba, n := d.lba28(), d.count()
		if lba+n > d.Sectors() {
			d.errreg = ErrIDNF
			d.status = StDRDY | StDSC | StERR
			d.raiseIRQ()
			return
		}
		d.dmaPending = true
		d.dmaWrite = cmd == CmdWriteDMA
		d.dmaLBA = lba
		d.dmaCount = n
		d.errreg = 0
		d.status = StDRDY | StDSC // engine idle until the busmaster starts
	case CmdIdentify:
		// Serve a 256-word identity block through the PIO path.
		d.xfer.active = true
		d.xfer.write = false
		d.xfer.lba = 0
		d.xfer.remaining = 0
		d.xfer.buf = d.identify()
		d.xfer.pos = 0
		d.status = StDRDY | StDSC | StDRQ
		d.raiseIRQ()
	default:
		d.abort()
	}
}

func (d *Disk) writeBlockSize() int {
	per := 1
	if !d.xferIsSingle {
		per = d.multiple
	}
	if per > d.xfer.remaining {
		per = d.xfer.remaining
	}
	return per
}

func (d *Disk) identify() []byte {
	buf := make([]byte, SectorSize)
	copy(buf[54:], []byte("DEVIL SIMULATED ATA DISK")) // model name area
	sect := d.Sectors()
	buf[120] = byte(sect)
	buf[121] = byte(sect >> 8)
	buf[122] = byte(sect >> 16)
	buf[123] = byte(sect >> 24)
	return buf
}

// dataRead serves width/8 bytes from the PIO buffer.
func (d *Disk) dataRead(width int) uint32 {
	if d.status&StDRQ == 0 || d.xfer.write {
		return 0xffff
	}
	var v uint32
	for i := 0; i < width/8; i++ {
		if d.xfer.pos < len(d.xfer.buf) {
			v |= uint32(d.xfer.buf[d.xfer.pos]) << uint(8*i)
			d.xfer.pos++
		}
	}
	if d.xfer.pos >= len(d.xfer.buf) {
		if d.xfer.active && d.xfer.remaining > 0 {
			d.loadReadBlock()
		} else {
			d.xfer.active = false
			d.status = StDRDY | StDSC
		}
	}
	return v
}

// dataWrite consumes width/8 bytes into the PIO buffer.
func (d *Disk) dataWrite(width int, v uint32) {
	if d.status&StDRQ == 0 || !d.xfer.write {
		return
	}
	for i := 0; i < width/8; i++ {
		if d.xfer.pos < len(d.xfer.buf) {
			d.xfer.buf[d.xfer.pos] = byte(v >> uint(8*i))
			d.xfer.pos++
		}
	}
	if d.xfer.pos >= len(d.xfer.buf) {
		// Commit the block and arm the next one.
		n := len(d.xfer.buf)
		copy(d.image[d.xfer.lba*SectorSize:], d.xfer.buf)
		sectors := n / SectorSize
		d.xfer.lba += sectors
		d.xfer.remaining -= sectors
		if d.xfer.remaining > 0 {
			per := d.writeBlockSize()
			d.xfer.buf = d.xfer.buf[:0]
			d.xfer.buf = append(d.xfer.buf, make([]byte, per*SectorSize)...)
			d.xfer.pos = 0
			d.status = StDRDY | StDSC | StDRQ
			d.raiseIRQ()
		} else {
			d.xfer.active = false
			d.status = StDRDY | StDSC
			d.raiseIRQ()
		}
	}
}

// startDMA runs the armed DMA transfer to completion, charging media time.
func (d *Disk) startDMA() {
	if !d.dmaPending || d.mem == nil {
		d.bmStatus |= BMStError
		return
	}
	d.dmaPending = false
	d.bmStatus |= BMStActive
	bytes := d.dmaCount * SectorSize
	addr := int(d.prd)
	if addr+bytes > d.mem.Len() {
		d.bmStatus |= BMStError
		d.bmStatus &^= BMStActive
		return
	}
	media := d.image[d.dmaLBA*SectorSize : d.dmaLBA*SectorSize+bytes]
	if d.dmaWrite {
		d.mem.Load(addr, media)
	} else {
		d.mem.Store(addr, media)
	}
	d.clock.Charge(obs.Event{Kind: obs.KindSeek, Source: "ide", Detail: "dma-media", Units: bytes, Cost: uint64(bytes) * MediaByteNS})
	d.bmStatus &^= BMStActive
	d.bmStatus |= BMStIRQ
	d.status = StDRDY | StDSC
	d.raiseIRQ()
}

// ---------------------------------------------------------------------------
// Handlers

type taskFile struct{ d *Disk }

func (t taskFile) BusRead(off uint32, width int) uint32 {
	d := t.d
	switch off {
	case RegData:
		return d.dataRead(width)
	case RegError:
		return uint32(d.errreg)
	case RegNSect:
		if d.xfer.active {
			return uint32(uint8(d.xfer.remaining))
		}
		return uint32(d.nsect)
	case RegLBALow:
		return uint32(d.lbaLow)
	case RegLBAMid:
		return uint32(d.lbaMid)
	case RegLBAHigh:
		return uint32(d.lbaHigh)
	case RegDevHead:
		return uint32(d.devHead)
	case RegStatus:
		return uint32(d.status)
	}
	return 0xff
}

func (t taskFile) BusWrite(off uint32, width int, v uint32) {
	d := t.d
	b := uint8(v)
	switch off {
	case RegData:
		d.dataWrite(width, v)
	case RegError:
		d.feat = b
	case RegNSect:
		d.nsect = b
	case RegLBALow:
		d.lbaLow = b
	case RegLBAMid:
		d.lbaMid = b
	case RegLBAHigh:
		d.lbaHigh = b
	case RegDevHead:
		d.devHead = b
	case RegStatus:
		d.command(b)
	}
}

type control struct{ d *Disk }

func (c control) BusRead(off uint32, width int) uint32 {
	return uint32(c.d.status) // alternate status
}

func (c control) BusWrite(off uint32, width int, v uint32) {
	d := c.d
	prev := d.ctl
	d.ctl = uint8(v)
	if d.ctl&0x04 != 0 && prev&0x04 == 0 { // SRST rising edge
		d.status = StDRDY | StDSC
		d.errreg = 0
		d.xfer.active = false
		d.dmaPending = false
		d.multiple = 1
	}
}

type busmaster struct{ d *Disk }

func (b busmaster) BusRead(off uint32, width int) uint32 {
	d := b.d
	switch off {
	case BMCommand:
		return uint32(d.bmCmd)
	case BMStatus:
		return uint32(d.bmStatus)
	case 4:
		return d.prd
	}
	return 0
}

func (b busmaster) BusWrite(off uint32, width int, v uint32) {
	d := b.d
	switch off {
	case BMCommand:
		prev := d.bmCmd
		d.bmCmd = uint8(v)
		if d.bmCmd&BMStart != 0 && prev&BMStart == 0 {
			d.startDMA()
		}
	case BMStatus:
		// Write-1-to-clear for the IRQ and error bits.
		d.bmStatus &^= uint8(v) & (BMStIRQ | BMStError)
	case 4:
		d.prd = v
	}
}

func (d *Disk) String() string {
	return fmt.Sprintf("ide.Disk(%d sectors)", d.Sectors())
}
