package ide

import (
	"encoding/binary"
	"fmt"

	genide "repro/internal/gen/ide"
	genpiix4 "repro/internal/gen/piix4"
	"repro/internal/snap"
)

// Devil is the Devil-based driver: every device access goes through the
// stubs generated from ide.dil and piix4.dil. No magic constant appears in
// this file — offsets, masks, and command encodings live in the
// specifications.
type Devil struct {
	p   Ports
	cfg Config
	dev *genide.Device
	bm  *genpiix4.Device
}

// NewDevil builds the Devil-based driver on the generated stub packages.
func NewDevil(p Ports, cfg Config) *Devil {
	return &Devil{
		p:   p,
		cfg: cfg,
		dev: genide.New(p.Space, p.CmdBase, p.CmdBase, p.CmdBase, p.CtlBase),
		bm:  genpiix4.New(p.Space, p.BMBase, p.BMBase+4),
	}
}

// Name implements Driver.
func (d *Devil) Name() string { return "devil" }

// MarshalState implements snap.Snapshotter: the driver state of the task
// file and busmaster stubs, in wiring order.
func (d *Devil) MarshalState(dst []byte) ([]byte, error) {
	return snap.MarshalParts(dst, "ide-devil", d.dev, d.bm)
}

// UnmarshalState implements snap.Snapshotter.
func (d *Devil) UnmarshalState(data []byte) error {
	return snap.UnmarshalParts(data, "ide-devil", d.dev, d.bm)
}

// Init implements Driver.
func (d *Devil) Init() error {
	defer d.p.span("init")()
	if d.cfg.Mode == PIO && d.cfg.SectorsPerIRQ > 1 {
		d.dev.SetNsect(uint8(d.cfg.SectorsPerIRQ))
		d.dev.SetCommand(genide.CommandSETMULTIPLE)
		if err := d.p.waitIRQ(); err != nil {
			return err
		}
		d.dev.ReadIdeStatus()
		if d.dev.Err() {
			return fmt.Errorf("ide: SET MULTIPLE rejected")
		}
	}
	return nil
}

// issue programs the task file through the generated stubs: 10 I/O
// operations, the paper's per-command constant for the Devil driver (the
// device/head register decomposes into three independent device variables,
// and the ready check reads the status structure).
func (d *Devil) issue(lba, count int, cmd genide.CommandVal) {
	d.dev.SetNien(genide.NienINTRENABLE)
	d.dev.SetNsect(uint8(count))
	d.dev.SetLbaLow(uint8(lba))
	d.dev.SetLbaMid(uint8(lba >> 8))
	d.dev.SetLbaHigh(uint8(lba >> 16))
	d.dev.SetLbaMode(genide.LbaModeLBA)
	d.dev.SetDrive(0)
	d.dev.SetHead(uint8(lba>>24) & 0x0f)
	d.dev.ReadIdeStatus() // ready check before issuing
	d.dev.SetCommand(cmd)
}

// handleIRQ performs the Devil driver's interrupt bookkeeping: the status
// snapshot, the error register, and the remaining-sector count — 3 I/O
// operations per interrupt versus the standard driver's 1 (the paper's
// "+2 for each interrupt").
func (d *Devil) handleIRQ() error {
	if err := d.p.waitIRQ(); err != nil {
		return err
	}
	d.dev.ReadIdeStatus()
	errBits := d.dev.Error()
	_ = d.dev.Nsect()
	if d.dev.Err() {
		return fmt.Errorf("ide: error %#x", errBits)
	}
	return nil
}

// ReadSectors implements Driver.
func (d *Devil) ReadSectors(lba int, dst []byte) error {
	return d.p.transfer(d, d.cfg.Mode, lba, dst, true)
}

func (d *Devil) readPIO(lba int, dst []byte) error {
	defer d.p.span("read.pio")()
	count := len(dst) / sectorSize
	cmd := genide.CommandREADSECTORS
	per := 1
	if d.cfg.SectorsPerIRQ > 1 {
		cmd = genide.CommandREADMULTIPLE
		per = d.cfg.SectorsPerIRQ
	}
	d.issue(lba, count, cmd)

	for off := 0; off < len(dst); {
		if err := d.handleIRQ(); err != nil {
			return err
		}
		if !d.dev.Drq() {
			return fmt.Errorf("ide: DRQ not asserted")
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

// xferIn moves one DRQ block through the generated data stubs: the block
// variants compile to one rep-style bus operation; the loop variants call
// the single-value stub per unit (the paper's "C loop over a variable
// read", the source of the ~10% PIO penalty).
func (d *Devil) xferIn(dst []byte) {
	if d.cfg.Width == 32 {
		n := len(dst) / 4
		buf := make([]uint32, n)
		if d.cfg.Block {
			d.dev.ReadIdeData32Block(buf)
		} else {
			for i := range buf {
				buf[i] = d.dev.IdeData32()
			}
		}
		for i, v := range buf {
			binary.LittleEndian.PutUint32(dst[4*i:], v)
		}
		return
	}
	n := len(dst) / 2
	buf := make([]uint16, n)
	if d.cfg.Block {
		d.dev.ReadIdeDataBlock(buf)
	} else {
		for i := range buf {
			buf[i] = d.dev.IdeData()
		}
	}
	for i, v := range buf {
		binary.LittleEndian.PutUint16(dst[2*i:], v)
	}
}

func (d *Devil) xferOut(src []byte) {
	if d.cfg.Width == 32 {
		n := len(src) / 4
		buf := make([]uint32, n)
		for i := range buf {
			buf[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
		if d.cfg.Block {
			d.dev.WriteIdeData32Block(buf)
		} else {
			for _, v := range buf {
				d.dev.SetIdeData32(v)
			}
		}
		return
	}
	n := len(src) / 2
	buf := make([]uint16, n)
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
	if d.cfg.Block {
		d.dev.WriteIdeDataBlock(buf)
	} else {
		for _, v := range buf {
			d.dev.SetIdeData(v)
		}
	}
}

// WriteSectors implements Driver.
func (d *Devil) WriteSectors(lba int, src []byte) error {
	return d.p.transfer(d, d.cfg.Mode, lba, src, false)
}

func (d *Devil) writePIO(lba int, src []byte) error {
	defer d.p.span("write.pio")()
	count := len(src) / sectorSize
	cmd := genide.CommandWRITESECTORS
	per := 1
	if d.cfg.SectorsPerIRQ > 1 {
		cmd = genide.CommandWRITEMULTIPLE
		per = d.cfg.SectorsPerIRQ
	}
	d.issue(lba, count, cmd)

	for off := 0; off < len(src); {
		d.dev.ReadIdeStatus()
		if d.dev.Err() {
			return fmt.Errorf("ide: write error %#x", d.dev.Error())
		}
		if !d.dev.Drq() {
			return fmt.Errorf("ide: DRQ not asserted for write")
		}
		block := per * sectorSize
		if off+block > len(src) {
			block = len(src) - off
		}
		d.xferOut(src[off : off+block])
		off += block
		if err := d.handleIRQ(); err != nil {
			return err
		}
	}
	return nil
}

// dma runs one busmaster transfer: 15 setup operations + 5 completion
// operations (the paper reports 20 versus the standard driver's 14; "in
// DMA mode, Devil induces 6 additional I/O operations to prepare the
// command", with no throughput impact because the transfer dominates).
func (d *Devil) dma(lba, count int, read bool) error {
	dir := genpiix4.BmDirBMWRITE
	cmd := genide.CommandWRITEDMA
	phase := "write.dma"
	if read {
		dir = genpiix4.BmDirBMREAD
		cmd = genide.CommandREADDMA
		phase = "read.dma"
	}
	defer d.p.span(phase)()
	d.bm.SetBmAckIrq(true)
	d.bm.SetBmAckErr(true)
	d.bm.SetPrdAddr(d.p.DMAAddr)
	d.bm.SetBmDir(dir)
	d.issue(lba, count, cmd)
	d.bm.SetBmStart(genpiix4.BmStartSTART)

	if err := d.handleIRQ(); err != nil {
		return err
	}
	d.bm.ReadBmStatus()
	d.bm.SetBmStart(genpiix4.BmStartSTOP)
	if d.bm.BmErr() {
		return fmt.Errorf("ide: busmaster error")
	}
	return nil
}
