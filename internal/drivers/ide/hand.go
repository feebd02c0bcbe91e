// The hand-crafted baseline driver: raw port I/O with magic offsets is
// this file's whole point — it is the interface the paper's generated
// stubs replace, kept for the Tables' comparisons.
//
//devil:rawport
package ide

import (
	"encoding/binary"
	"fmt"

	"repro/internal/snap"
)

// The magic constants a hand-crafted driver carries around — offsets and
// bit values transcribed from the datasheet, exactly the error-prone layer
// Devil replaces (compare Figure 2 of the paper).
const (
	hwData    = 0 // 16/32-bit data port
	hwFeat    = 1
	hwNSect   = 2
	hwLBA0    = 3
	hwLBA1    = 4
	hwLBA2    = 5
	hwDevHead = 6
	hwCmdStat = 7

	hwStBSY = 0x80
	hwStDRQ = 0x08
	hwStERR = 0x01

	hwCmdRead      = 0x20
	hwCmdWrite     = 0x30
	hwCmdReadMul   = 0xc4
	hwCmdWriteMul  = 0xc5
	hwCmdSetMul    = 0xc6
	hwCmdReadDMA   = 0xc8
	hwCmdWriteDMA  = 0xca
	hwDevLBA       = 0xe0 // 1110 0000: fixed bits + LBA mode, drive 0
	hwCtlIntEnable = 0x00
	hwBMStart      = 0x01
	hwBMRead       = 0x08
	hwBMStIRQ      = 0x04
	hwBMStErr      = 0x02
)

// Hand is the standard driver: raw inb/outb with hand-computed masks.
type Hand struct {
	p   Ports
	cfg Config
}

// NewHand builds the hand-crafted driver.
func NewHand(p Ports, cfg Config) *Hand { return &Hand{p: p, cfg: cfg} }

// Name implements Driver.
func (d *Hand) Name() string { return "standard" }

// MarshalState implements snap.Snapshotter. The hand driver keeps no
// device state in host memory, so its blob is a named empty payload.
func (d *Hand) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "ide-hand")
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (d *Hand) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "ide-hand")
	if err != nil {
		return err
	}
	return c.Close()
}

// Init implements Driver.
func (d *Hand) Init() error {
	defer d.p.span("init")()
	io := d.p.Space
	if d.cfg.Mode == PIO && d.cfg.SectorsPerIRQ > 1 {
		io.Out8(d.p.CmdBase+hwNSect, uint8(d.cfg.SectorsPerIRQ))
		io.Out8(d.p.CmdBase+hwCmdStat, hwCmdSetMul)
		if err := d.p.waitIRQ(); err != nil {
			return err
		}
		if st := io.In8(d.p.CmdBase + hwCmdStat); st&hwStERR != 0 {
			return fmt.Errorf("ide: SET MULTIPLE rejected")
		}
	}
	return nil
}

// issue programs the task file and command: 7 I/O operations, the paper's
// per-command constant for the standard driver.
func (d *Hand) issue(lba, count int, cmd uint8) {
	io := d.p.Space
	io.Out8(d.p.CtlBase, hwCtlIntEnable)
	io.Out8(d.p.CmdBase+hwNSect, uint8(count)) // 256 encodes as 0
	io.Out8(d.p.CmdBase+hwLBA0, uint8(lba))
	io.Out8(d.p.CmdBase+hwLBA1, uint8(lba>>8))
	io.Out8(d.p.CmdBase+hwLBA2, uint8(lba>>16))
	io.Out8(d.p.CmdBase+hwDevHead, hwDevLBA|uint8(lba>>24)&0x0f)
	io.Out8(d.p.CmdBase+hwCmdStat, cmd)
}

// ReadSectors implements Driver.
func (d *Hand) ReadSectors(lba int, dst []byte) error {
	return d.p.transfer(d, d.cfg.Mode, lba, dst, true)
}

func (d *Hand) readPIO(lba int, dst []byte) error {
	defer d.p.span("read.pio")()
	io := d.p.Space
	count := len(dst) / sectorSize
	cmd := uint8(hwCmdRead)
	per := 1
	if d.cfg.SectorsPerIRQ > 1 {
		cmd = hwCmdReadMul
		per = d.cfg.SectorsPerIRQ
	}
	d.issue(lba, count, cmd)

	for off := 0; off < len(dst); {
		if err := d.p.waitIRQ(); err != nil {
			return err
		}
		// One status read per interrupt: the paper's "+1".
		st := io.In8(d.p.CmdBase + hwCmdStat)
		if st&hwStERR != 0 {
			return fmt.Errorf("ide: read error, status %#x", st)
		}
		if st&hwStDRQ == 0 {
			return fmt.Errorf("ide: DRQ not asserted, status %#x", st)
		}
		block := per * sectorSize
		if off+block > len(dst) {
			block = len(dst) - off
		}
		d.xferIn(dst[off : off+block])
		off += block
	}
	return nil
}

// xferIn moves one DRQ block from the data port, with either a block (rep)
// operation or a per-unit loop.
func (d *Hand) xferIn(dst []byte) {
	io := d.p.Space
	if d.cfg.Width == 32 {
		n := len(dst) / 4
		if d.cfg.Block {
			buf := make([]uint32, n)
			io.InBlock32(d.p.CmdBase+hwData, buf)
			for i, v := range buf {
				binary.LittleEndian.PutUint32(dst[4*i:], v)
			}
			return
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(dst[4*i:], io.In32(d.p.CmdBase+hwData))
		}
		return
	}
	n := len(dst) / 2
	if d.cfg.Block {
		buf := make([]uint16, n)
		io.InBlock16(d.p.CmdBase+hwData, buf)
		for i, v := range buf {
			binary.LittleEndian.PutUint16(dst[2*i:], v)
		}
		return
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(dst[2*i:], io.In16(d.p.CmdBase+hwData))
	}
}

// xferOut moves one DRQ block to the data port.
func (d *Hand) xferOut(src []byte) {
	io := d.p.Space
	if d.cfg.Width == 32 {
		n := len(src) / 4
		if d.cfg.Block {
			buf := make([]uint32, n)
			for i := range buf {
				buf[i] = binary.LittleEndian.Uint32(src[4*i:])
			}
			io.OutBlock32(d.p.CmdBase+hwData, buf)
			return
		}
		for i := 0; i < n; i++ {
			io.Out32(d.p.CmdBase+hwData, binary.LittleEndian.Uint32(src[4*i:]))
		}
		return
	}
	n := len(src) / 2
	if d.cfg.Block {
		buf := make([]uint16, n)
		for i := range buf {
			buf[i] = binary.LittleEndian.Uint16(src[2*i:])
		}
		io.OutBlock16(d.p.CmdBase+hwData, buf)
		return
	}
	for i := 0; i < n; i++ {
		io.Out16(d.p.CmdBase+hwData, binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// WriteSectors implements Driver.
func (d *Hand) WriteSectors(lba int, src []byte) error {
	return d.p.transfer(d, d.cfg.Mode, lba, src, false)
}

func (d *Hand) writePIO(lba int, src []byte) error {
	defer d.p.span("write.pio")()
	io := d.p.Space
	count := len(src) / sectorSize
	cmd := uint8(hwCmdWrite)
	per := 1
	if d.cfg.SectorsPerIRQ > 1 {
		cmd = hwCmdWriteMul
		per = d.cfg.SectorsPerIRQ
	}
	d.issue(lba, count, cmd)

	for off := 0; off < len(src); {
		// Writes assert DRQ without a first interrupt: poll status.
		st := io.In8(d.p.CmdBase + hwCmdStat)
		if st&hwStERR != 0 {
			return fmt.Errorf("ide: write error, status %#x", st)
		}
		if st&hwStDRQ == 0 {
			return fmt.Errorf("ide: DRQ not asserted for write, status %#x", st)
		}
		block := per * sectorSize
		if off+block > len(src) {
			block = len(src) - off
		}
		d.xferOut(src[off : off+block])
		off += block
		if err := d.p.waitIRQ(); err != nil {
			return err
		}
	}
	return nil
}

// dma runs one busmaster transfer: 11 setup operations + 3 completion
// operations (the paper's 14 for the standard driver).
func (d *Hand) dma(lba, count int, read bool) error {
	io := d.p.Space
	dir := uint8(0)
	cmd := uint8(hwCmdWriteDMA)
	phase := "write.dma"
	if read {
		dir = hwBMRead
		cmd = hwCmdReadDMA
		phase = "read.dma"
	}
	defer d.p.span(phase)()
	io.Out8(d.p.BMBase+2, hwBMStIRQ|hwBMStErr) // ack stale status
	io.Out32(d.p.BMBase+4, d.p.DMAAddr)
	io.Out8(d.p.BMBase+0, dir)
	d.issue(lba, count, cmd)
	io.Out8(d.p.BMBase+0, dir|hwBMStart)

	if err := d.p.waitIRQ(); err != nil {
		return err
	}
	bst := io.In8(d.p.BMBase + 2)
	io.Out8(d.p.BMBase+0, dir) // stop the engine
	st := io.In8(d.p.CmdBase + hwCmdStat)
	if bst&hwBMStErr != 0 || st&hwStERR != 0 {
		return fmt.Errorf("ide: DMA error, bm %#x status %#x", bst, st)
	}
	return nil
}
