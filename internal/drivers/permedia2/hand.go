// The hand-crafted baseline driver: raw port I/O with magic offsets is
// this file's whole point — it is the interface the paper's generated
// stubs replace, kept for the Tables' comparisons.
//
//devil:rawport
package permedia2

import "repro/internal/snap"

// Magic register offsets and encodings, transcribed from the datasheet —
// the layer the Devil specification replaces.
const (
	hwFIFOSpace   = 0x00
	hwWindowBase  = 0x08
	hwLogicalOp   = 0x10
	hwWriteConfig = 0x18
	hwColor       = 0x20
	hwStartXDom   = 0x28
	hwStartXSub   = 0x30
	hwStartY      = 0x38
	hwDY          = 0x40
	hwCount       = 0x48
	hwRectOrigin  = 0x50
	hwRectSize    = 0x58
	hwScissorMin  = 0x60
	hwScissorMax  = 0x68
	hwReadMode    = 0x70
	hwSourceOff   = 0x78
	hwRender      = 0x80

	hwRenderFill = 0x01
	hwRenderCopy = 0x81

	hwOpCopyEnabled = 0x07 // logic op GXcopy (3<<1) | enable
	hwDitherOn      = 0x20
)

// Hand is the standard driver: raw 32-bit memory-mapped stores.
type Hand struct {
	p   Ports
	bpp int
}

// NewHand builds the hand-crafted driver.
func NewHand(p Ports) *Hand { return &Hand{p: p} }

// Name implements Driver.
func (d *Hand) Name() string { return "standard" }

// snapState walks the configured pixel depth, the hand driver's only
// host-side state.
func (d *Hand) snapState(c *snap.Codec) { c.Int(&d.bpp) }

// MarshalState implements snap.Snapshotter.
func (d *Hand) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "permedia2-hand")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (d *Hand) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "permedia2-hand")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// Init implements Driver.
func (d *Hand) Init(bpp int) error {
	defer d.p.span("init")()
	code, err := depthCode(bpp)
	if err != nil {
		return err
	}
	d.bpp = bpp
	d.waitFIFO(2)
	d.p.Space.Out32(d.p.Base+hwWriteConfig, code|hwDitherOn)
	d.p.Space.Out32(d.p.Base+hwLogicalOp, hwOpCopyEnabled)
	return nil
}

// waitFIFO spins until n FIFO entries are free — one I/O read per
// iteration, the #w of Tables 3 and 4.
func (d *Hand) waitFIFO(n int) {
	for int(d.p.Space.In32(d.p.Base+hwFIFOSpace)&0x3f) < n {
	}
}

// WaitIdle implements Driver: spin until every FIFO entry is free.
func (d *Hand) WaitIdle() {
	for d.p.Space.In32(d.p.Base+hwFIFOSpace)&0x3f != fifoDepth {
	}
}

// FillRect implements Driver. The 8/16/32 bpp path issues 3 wait loops and
// 15 writes; the packed 24 bpp path 2 wait loops and 10 writes.
func (d *Hand) FillRect(x, y, w, h int, color uint32) {
	defer d.p.span("fillrect")()
	io := d.p.Space
	base := d.p.Base
	if d.bpp == 24 {
		d.waitFIFO(5)
		io.Out32(base+hwWindowBase, 0)
		io.Out32(base+hwColor, color)
		io.Out32(base+hwStartXDom, uint32(x))
		io.Out32(base+hwStartXSub, uint32(x+w))
		io.Out32(base+hwStartY, uint32(y))
		d.waitFIFO(5)
		io.Out32(base+hwDY, 1)
		io.Out32(base+hwCount, uint32(h))
		io.Out32(base+hwRectOrigin, pack(x, y))
		io.Out32(base+hwRectSize, pack(w, h))
		io.Out32(base+hwRender, hwRenderFill)
		return
	}
	code, _ := depthCode(d.bpp)
	d.waitFIFO(5)
	io.Out32(base+hwWindowBase, 0)
	io.Out32(base+hwLogicalOp, hwOpCopyEnabled)
	io.Out32(base+hwWriteConfig, code|hwDitherOn)
	io.Out32(base+hwColor, color)
	io.Out32(base+hwScissorMin, pack(0, 0))
	d.waitFIFO(5)
	io.Out32(base+hwScissorMax, pack(0x7fff, 0x7fff))
	io.Out32(base+hwReadMode, 0)
	io.Out32(base+hwStartXDom, uint32(x))
	io.Out32(base+hwStartXSub, uint32(x+w))
	io.Out32(base+hwStartY, uint32(y))
	d.waitFIFO(5)
	io.Out32(base+hwDY, 1)
	io.Out32(base+hwCount, uint32(h))
	io.Out32(base+hwRectOrigin, pack(x, y))
	io.Out32(base+hwRectSize, pack(w, h))
	io.Out32(base+hwRender, hwRenderFill)
}

// CopyRect implements Driver. 8/16 bpp: 3 waits + 15 writes; 24/32 bpp:
// 2 waits + 9 writes.
func (d *Hand) CopyRect(sx, sy, dx, dy, w, h int) {
	defer d.p.span("copyrect")()
	io := d.p.Space
	base := d.p.Base
	if d.bpp == 24 || d.bpp == 32 {
		d.waitFIFO(5)
		io.Out32(base+hwWindowBase, 0)
		io.Out32(base+hwSourceOff, pack(sx-dx, sy-dy))
		io.Out32(base+hwStartXDom, uint32(dx))
		io.Out32(base+hwStartY, uint32(dy))
		d.waitFIFO(5)
		io.Out32(base+hwDY, 1)
		io.Out32(base+hwCount, uint32(h))
		io.Out32(base+hwRectOrigin, pack(dx, dy))
		io.Out32(base+hwRectSize, pack(w, h))
		io.Out32(base+hwRender, hwRenderCopy)
		return
	}
	code, _ := depthCode(d.bpp)
	d.waitFIFO(5)
	io.Out32(base+hwWindowBase, 0)
	io.Out32(base+hwLogicalOp, hwOpCopyEnabled)
	io.Out32(base+hwWriteConfig, code|hwDitherOn)
	io.Out32(base+hwReadMode, 1)
	io.Out32(base+hwSourceOff, pack(sx-dx, sy-dy))
	d.waitFIFO(5)
	io.Out32(base+hwScissorMin, pack(0, 0))
	io.Out32(base+hwScissorMax, pack(0x7fff, 0x7fff))
	io.Out32(base+hwStartXDom, uint32(dx))
	io.Out32(base+hwStartXSub, uint32(dx+w))
	io.Out32(base+hwStartY, uint32(dy))
	d.waitFIFO(5)
	io.Out32(base+hwDY, 1)
	io.Out32(base+hwCount, uint32(h))
	io.Out32(base+hwRectOrigin, pack(dx, dy))
	io.Out32(base+hwRectSize, pack(w, h))
	io.Out32(base+hwRender, hwRenderCopy)
}
