package ide

import "repro/internal/snap"

// snapName identifies this simulator's blobs. One blob carries the whole
// Disk — task file, PIO transfer engine, media image, and the PIIX4
// busmaster function (the "ide" and "piix4" stubs program two register
// windows of this one simulator).
const snapName = "ide-sim"

// snapState walks the snapshot fields in wire order. The media image
// travels in the blob (writes mutate it), as does the in-flight PIO
// buffer, so a snapshot taken mid-DRQ-phase restores with the transfer
// exactly where it was. The receiver must have been constructed with the
// capacity the blob was taken at, and the PIO and DMA cursors must lie
// inside the image: the transfer engines index it without further checks.
func (d *Disk) snapState(c *snap.Codec) {
	c.Buffer(d.image)
	for _, p := range []*uint8{
		&d.feat, &d.nsect, &d.lbaLow, &d.lbaMid, &d.lbaHigh, &d.devHead,
		&d.status, &d.errreg, &d.ctl,
	} {
		c.U8(p)
	}
	c.Int(&d.multiple)
	c.Bool(&d.xferIsSingle)
	c.Bool(&d.xfer.active)
	c.Bool(&d.xfer.write)
	c.Int(&d.xfer.lba)
	c.Int(&d.xfer.remaining)
	c.Bytes(&d.xfer.buf)
	c.Int(&d.xfer.pos)
	c.U8(&d.bmCmd)
	c.U8(&d.bmStatus)
	c.U32(&d.prd)
	c.Bool(&d.dmaPending)
	c.Bool(&d.dmaWrite)
	c.Int(&d.dmaLBA)
	c.Int(&d.dmaCount)
	c.U64(&d.IRQCount)
	if n := d.Sectors(); d.dmaLBA+d.dmaCount > n || d.xfer.lba+d.xfer.remaining > n {
		c.Failf("transfer cursor beyond the %d-sector image (DMA %d+%d, PIO %d+%d)",
			n, d.dmaLBA, d.dmaCount, d.xfer.lba, d.xfer.remaining)
	}
	if d.xfer.pos > len(d.xfer.buf) {
		c.Failf("PIO cursor %d beyond its %d-byte buffer", d.xfer.pos, len(d.xfer.buf))
	}
}

// MarshalState implements snap.Snapshotter.
func (d *Disk) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, snapName)
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (d *Disk) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, snapName)
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}
