package ide

import (
	"bytes"
	"testing"

	"repro/internal/bus"
)

func newDisk(sectors int) (*Disk, *bus.Clock) {
	var clk bus.Clock
	mem := bus.NewRAM(1 << 20)
	return New(&clk, sectors, mem), &clk
}

func TestImagePattern(t *testing.T) {
	d, _ := newDisk(16)
	a := d.ReadImage(3, 1)
	b := d.ReadImage(4, 1)
	if bytes.Equal(a, b) {
		t.Error("adjacent sectors should differ (deterministic pattern)")
	}
	if !bytes.Equal(a, d.ReadImage(3, 1)) {
		t.Error("image read not stable")
	}
}

func TestPIOReadStateMachine(t *testing.T) {
	d, _ := newDisk(16)
	tf := d.TaskFile()

	// Program a 2-sector read at LBA 5.
	tf.BusWrite(RegNSect, 8, 2)
	tf.BusWrite(RegLBALow, 8, 5)
	tf.BusWrite(RegLBAMid, 8, 0)
	tf.BusWrite(RegLBAHigh, 8, 0)
	tf.BusWrite(RegDevHead, 8, 0xe0)
	tf.BusWrite(RegStatus, 8, CmdReadSectors)

	if st := tf.BusRead(RegStatus, 8); st&StDRQ == 0 {
		t.Fatalf("DRQ not set, status %#x", st)
	}
	if d.IRQCount != 1 {
		t.Errorf("irqs = %d, want 1 (first sector ready)", d.IRQCount)
	}
	// Drain sector 1: 256 words; the next sector loads and raises an IRQ.
	var got []byte
	for i := 0; i < 256; i++ {
		w := tf.BusRead(RegData, 16)
		got = append(got, byte(w), byte(w>>8))
	}
	if d.IRQCount != 2 {
		t.Errorf("irqs = %d, want 2", d.IRQCount)
	}
	if !bytes.Equal(got, d.ReadImage(5, 1)) {
		t.Error("sector 5 data mismatch")
	}
	for i := 0; i < 256; i++ {
		tf.BusRead(RegData, 16)
	}
	if st := tf.BusRead(RegStatus, 8); st&StDRQ != 0 {
		t.Errorf("DRQ still set after transfer, status %#x", st)
	}
}

func TestOutOfRangeAborts(t *testing.T) {
	d, _ := newDisk(8)
	tf := d.TaskFile()
	tf.BusWrite(RegNSect, 8, 4)
	tf.BusWrite(RegLBALow, 8, 6) // 6+4 > 8
	tf.BusWrite(RegDevHead, 8, 0xe0)
	tf.BusWrite(RegStatus, 8, CmdReadSectors)
	if st := tf.BusRead(RegStatus, 8); st&StERR == 0 {
		t.Errorf("status %#x, want ERR", st)
	}
	if e := tf.BusRead(RegError, 8); e&ErrIDNF == 0 {
		t.Errorf("error %#x, want IDNF", e)
	}
}

func TestUnknownCommandAborts(t *testing.T) {
	d, _ := newDisk(8)
	tf := d.TaskFile()
	tf.BusWrite(RegStatus, 8, 0x99)
	if st := tf.BusRead(RegStatus, 8); st&StERR == 0 {
		t.Errorf("status %#x, want ERR", st)
	}
}

func TestSetMultipleValidation(t *testing.T) {
	d, _ := newDisk(8)
	tf := d.TaskFile()
	tf.BusWrite(RegNSect, 8, 200) // > 128
	tf.BusWrite(RegStatus, 8, CmdSetMultiple)
	if st := tf.BusRead(RegStatus, 8); st&StERR == 0 {
		t.Error("SET MULTIPLE 200 should abort")
	}
	tf.BusWrite(RegStatus, 8, CmdRecalibrate) // clears error
	tf.BusWrite(RegNSect, 8, 16)
	tf.BusWrite(RegStatus, 8, CmdSetMultiple)
	if st := tf.BusRead(RegStatus, 8); st&StERR != 0 {
		t.Error("SET MULTIPLE 16 should succeed")
	}
}

func TestSoftReset(t *testing.T) {
	d, _ := newDisk(8)
	tf := d.TaskFile()
	ctl := d.Control()
	tf.BusWrite(RegNSect, 8, 1)
	tf.BusWrite(RegDevHead, 8, 0xe0)
	tf.BusWrite(RegStatus, 8, CmdReadSectors)
	ctl.BusWrite(0, 8, 0x04) // SRST
	if st := tf.BusRead(RegStatus, 8); st&StDRQ != 0 || st&StDRDY == 0 {
		t.Errorf("status after reset = %#x", st)
	}
}

func TestDMATransferAdvancesClock(t *testing.T) {
	d, clk := newDisk(64)
	tf := d.TaskFile()
	bm := d.Busmaster()

	tf.BusWrite(RegNSect, 8, 8)
	tf.BusWrite(RegLBALow, 8, 0)
	tf.BusWrite(RegDevHead, 8, 0xe0)
	tf.BusWrite(RegStatus, 8, CmdReadDMA)

	bm.BusWrite(4, 32, 0x1000) // PRD/buffer address
	bm.BusWrite(BMCommand, 8, BMReadDir)
	before := clk.Now()
	bm.BusWrite(BMCommand, 8, BMReadDir|BMStart)
	elapsed := clk.Now() - before
	want := uint64(8 * SectorSize * MediaByteNS)
	if elapsed < want {
		t.Errorf("DMA advanced clock by %d ns, want >= %d", elapsed, want)
	}
	if st := bm.BusRead(BMStatus, 8); st&BMStIRQ == 0 {
		t.Errorf("busmaster status %#x, want IRQ", st)
	}
	got := make([]byte, 8*SectorSize)
	if d.mem.Load(0x1000, got); !bytes.Equal(got, d.ReadImage(0, 8)) {
		t.Error("DMA data mismatch")
	}
	// Write-1-to-clear acknowledgement.
	bm.BusWrite(BMStatus, 8, BMStIRQ)
	if st := bm.BusRead(BMStatus, 8); st&BMStIRQ != 0 {
		t.Error("IRQ bit not cleared")
	}
}

func TestIdentify(t *testing.T) {
	d, _ := newDisk(32)
	tf := d.TaskFile()
	tf.BusWrite(RegStatus, 8, CmdIdentify)
	var buf []byte
	for i := 0; i < 256; i++ {
		w := tf.BusRead(RegData, 16)
		buf = append(buf, byte(w), byte(w>>8))
	}
	if !bytes.Contains(buf, []byte("DEVIL SIMULATED ATA DISK")) {
		t.Error("identity block missing model name")
	}
	if got := int(buf[120]) | int(buf[121])<<8; got != 32 {
		t.Errorf("capacity = %d", got)
	}
}
