package ide

import (
	"fmt"

	genide "repro/internal/gen/ide"
	genpiix4 "repro/internal/gen/piix4"
	"repro/internal/snap"
)

// devilCmd names the protocol's commands in the specification.
var devilCmd = [...]genide.CommandVal{
	cmdRead: genide.CommandREADSECTORS, cmdWrite: genide.CommandWRITESECTORS,
	cmdReadMultiple: genide.CommandREADMULTIPLE, cmdWriteMultiple: genide.CommandWRITEMULTIPLE,
	cmdReadDMA: genide.CommandREADDMA, cmdWriteDMA: genide.CommandWRITEDMA,
}

// Devil is the Devil-based driver: every device access goes through the
// stubs generated from ide.dil and piix4.dil. No magic constant appears in
// this file — offsets, masks, and command encodings live in the
// specifications.
type Devil struct {
	engine
	dev *genide.Device
	bm  *genpiix4.Device
}

// NewDevil builds the Devil-based driver on the generated stub packages.
func NewDevil(p Ports, cfg Config) *Devil {
	d := &Devil{
		engine: engine{p: p, cfg: cfg},
		dev:    genide.New(p.Space, p.CmdBase, p.CmdBase, p.CmdBase, p.CtlBase),
		bm:     genpiix4.New(p.Space, p.BMBase, p.BMBase+4),
	}
	d.r = d
	return d
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
func (d *Devil) issue(lba, count int, cmd command) {
	d.dev.SetNien(genide.NienINTRENABLE)
	d.dev.SetNsect(uint8(count))
	d.dev.SetLbaLow(uint8(lba))
	d.dev.SetLbaMid(uint8(lba >> 8))
	d.dev.SetLbaHigh(uint8(lba >> 16))
	d.dev.SetLbaMode(genide.LbaModeLBA)
	d.dev.SetDrive(0)
	d.dev.SetHead(uint8(lba>>24) & 0x0f)
	d.dev.ReadIdeStatus() // ready check before issuing
	d.dev.SetCommand(devilCmd[cmd])
}

// irq performs the Devil driver's interrupt bookkeeping: the status
// snapshot, the error register, and the remaining-sector count — 3 I/O
// operations per interrupt versus the standard driver's 1 (the paper's
// "+2 for each interrupt").
func (d *Devil) irq() error {
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

// ready checks DRQ in the status snapshot: a read's was taken by irq, a
// write polls it first.
func (d *Devil) ready(read bool) error {
	if !read {
		d.dev.ReadIdeStatus()
		if d.dev.Err() {
			return fmt.Errorf("ide: write error %#x", d.dev.Error())
		}
	}
	if !d.dev.Drq() {
		return fmt.Errorf("ide: DRQ not asserted for %s", verb(read))
	}
	return nil
}

// move16 moves one DRQ block through the generated data stubs: the block
// variants compile to one rep-style bus operation; the loop variants call
// the single-value stub per unit (the paper's "C loop over a variable
// read", the source of the ~10% PIO penalty).
func (d *Devil) move16(w []uint16, read bool) {
	switch {
	case d.cfg.Block && read:
		d.dev.ReadIdeDataBlock(w)
	case d.cfg.Block:
		d.dev.WriteIdeDataBlock(w)
	case read:
		for i := range w {
			w[i] = d.dev.IdeData()
		}
	default:
		for _, v := range w {
			d.dev.SetIdeData(v)
		}
	}
}

// move32 is move16 through the 32-bit data stubs.
func (d *Devil) move32(w []uint32, read bool) {
	switch {
	case d.cfg.Block && read:
		d.dev.ReadIdeData32Block(w)
	case d.cfg.Block:
		d.dev.WriteIdeData32Block(w)
	case read:
		for i := range w {
			w[i] = d.dev.IdeData32()
		}
	default:
		for _, v := range w {
			d.dev.SetIdeData32(v)
		}
	}
}

// dma runs one busmaster transfer: 15 setup operations + 5 completion
// operations (the paper reports 20 versus the standard driver's 14; "in
// DMA mode, Devil induces 6 additional I/O operations to prepare the
// command", with no throughput impact because the transfer dominates).
func (d *Devil) dma(lba, count int, read bool) error {
	dir := genpiix4.BmDirBMWRITE
	cmd := cmdWriteDMA
	phase := "write.dma"
	if read {
		dir = genpiix4.BmDirBMREAD
		cmd = cmdReadDMA
		phase = "read.dma"
	}
	defer d.p.span(phase)()
	d.bm.SetBmAckIrq(true)
	d.bm.SetBmAckErr(true)
	d.bm.SetPrdAddr(d.p.DMAAddr)
	d.bm.SetBmDir(dir)
	d.issue(lba, count, cmd)
	d.bm.SetBmStart(genpiix4.BmStartSTART)

	if err := d.irq(); err != nil {
		return err
	}
	d.bm.ReadBmStatus()
	d.bm.SetBmStart(genpiix4.BmStartSTOP)
	if d.bm.BmErr() {
		return fmt.Errorf("ide: busmaster error")
	}
	return nil
}
