// The hand-crafted baseline driver: raw port I/O with magic offsets is
// this file's whole point — it is the interface the paper's generated
// stubs replace, kept for the Tables' comparisons.
//
//devil:rawport
package ide

import (
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

// hwCmd encodes the protocol's commands.
var hwCmd = [...]uint8{
	cmdRead: hwCmdRead, cmdWrite: hwCmdWrite,
	cmdReadMultiple: hwCmdReadMul, cmdWriteMultiple: hwCmdWriteMul,
	cmdReadDMA: hwCmdReadDMA, cmdWriteDMA: hwCmdWriteDMA,
}

// Hand is the standard driver: raw inb/outb with hand-computed masks.
type Hand struct{ engine }

// NewHand builds the hand-crafted driver.
func NewHand(p Ports, cfg Config) *Hand {
	d := &Hand{engine{p: p, cfg: cfg}}
	d.r = d
	return d
}

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
func (d *Hand) issue(lba, count int, cmd command) {
	io := d.p.Space
	io.Out8(d.p.CtlBase, hwCtlIntEnable)
	io.Out8(d.p.CmdBase+hwNSect, uint8(count)) // 256 encodes as 0
	io.Out8(d.p.CmdBase+hwLBA0, uint8(lba))
	io.Out8(d.p.CmdBase+hwLBA1, uint8(lba>>8))
	io.Out8(d.p.CmdBase+hwLBA2, uint8(lba>>16))
	io.Out8(d.p.CmdBase+hwDevHead, hwDevLBA|uint8(lba>>24)&0x0f)
	io.Out8(d.p.CmdBase+hwCmdStat, hwCmd[cmd])
}

// irq takes the interrupt; the status is read by ready.
func (d *Hand) irq() error { return d.p.waitIRQ() }

// ready reads the status once per DRQ block: the paper's "+1" per
// interrupt.
func (d *Hand) ready(read bool) error {
	st := d.p.Space.In8(d.p.CmdBase + hwCmdStat)
	if st&hwStERR != 0 {
		return fmt.Errorf("ide: %s error, status %#x", verb(read), st)
	}
	if st&hwStDRQ == 0 {
		return fmt.Errorf("ide: DRQ not asserted for %s, status %#x", verb(read), st)
	}
	return nil
}

// move16 moves one DRQ block through the data port, with either a block
// (rep) operation or a per-unit loop.
func (d *Hand) move16(w []uint16, read bool) {
	io, port := d.p.Space, d.p.CmdBase+hwData
	switch {
	case d.cfg.Block && read:
		io.InBlock16(port, w)
	case d.cfg.Block:
		io.OutBlock16(port, w)
	case read:
		for i := range w {
			w[i] = io.In16(port)
		}
	default:
		for _, v := range w {
			io.Out16(port, v)
		}
	}
}

// move32 is move16 with 32-bit accesses.
func (d *Hand) move32(w []uint32, read bool) {
	io, port := d.p.Space, d.p.CmdBase+hwData
	switch {
	case d.cfg.Block && read:
		io.InBlock32(port, w)
	case d.cfg.Block:
		io.OutBlock32(port, w)
	case read:
		for i := range w {
			w[i] = io.In32(port)
		}
	default:
		for _, v := range w {
			io.Out32(port, v)
		}
	}
}

// dma runs one busmaster transfer: 11 setup operations + 3 completion
// operations (the paper's 14 for the standard driver).
func (d *Hand) dma(lba, count int, read bool) error {
	io := d.p.Space
	dir := uint8(0)
	cmd := cmdWriteDMA
	phase := "write.dma"
	if read {
		dir = hwBMRead
		cmd = cmdReadDMA
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
