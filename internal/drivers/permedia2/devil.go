package permedia2

import (
	gen "repro/internal/gen/permedia2"
	"repro/internal/snap"
)

// Devil is the Devil-based driver: all accesses go through the stubs
// generated from permedia2.dil. The independent fields of the logical-op
// and write-config registers are distinct device variables, so programming
// them costs one stub call each — the +2 I/O of Tables 3 and 4.
type Devil struct {
	p   Ports
	dev *gen.Device
	bpp int
}

// NewDevil builds the Devil-based driver on the generated stubs.
func NewDevil(p Ports) *Devil {
	return &Devil{p: p, dev: gen.New(p.Space, p.Base)}
}

// Name implements Driver.
func (d *Devil) Name() string { return "devil" }

// MarshalState implements snap.Snapshotter: the stub's driver state plus
// the configured pixel depth, as container parts.
func (d *Devil) MarshalState(dst []byte) ([]byte, error) {
	return snap.MarshalParts(dst, "permedia2-devil", d.dev, bppState{d})
}

// UnmarshalState implements snap.Snapshotter.
func (d *Devil) UnmarshalState(data []byte) error {
	return snap.UnmarshalParts(data, "permedia2-devil", d.dev, bppState{d})
}

// bppState frames the driver's pixel depth as its own snapshot part, so
// the container decodes through snap.UnmarshalParts instead of indexing
// raw tail bytes (the shape mismatch is then caught by the part framing).
type bppState struct{ d *Devil }

func (b bppState) snapState(c *snap.Codec) { c.Int(&b.d.bpp) }

// MarshalState implements snap.Snapshotter.
func (b bppState) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "permedia2-devil-bpp")
	b.snapState(&c)
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (b bppState) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "permedia2-devil-bpp")
	if err != nil {
		return err
	}
	b.snapState(&c)
	return c.Close()
}

// Init implements Driver.
func (d *Devil) Init(bpp int) error {
	defer d.p.span("init")()
	if _, err := depthCode(bpp); err != nil {
		return err
	}
	d.bpp = bpp
	d.waitFIFO(4)
	d.dev.SetFbDepth(depthVal(bpp))
	d.dev.SetDither(true)
	d.dev.SetLogicOp(3) // GXcopy
	d.dev.SetLogicOpEnable(true)
	return nil
}

func depthVal(bpp int) gen.FbDepthVal {
	switch bpp {
	case 8:
		return gen.FbDepthBPP8
	case 16:
		return gen.FbDepthBPP16
	case 24:
		return gen.FbDepthBPP24
	default:
		return gen.FbDepthBPP32
	}
}

func (d *Devil) waitFIFO(n int) {
	for int(d.dev.FifoSpace()) < n {
	}
}

// WaitIdle implements Driver: spin until every FIFO entry is free. The
// poll goes through the generated FifoSpace stub, not a raw port read.
func (d *Devil) WaitIdle() {
	for int(d.dev.FifoSpace()) != fifoDepth {
	}
}

// FillRect implements Driver: 3 waits + 17 writes at 8/16/32 bpp,
// 2 waits + 10 writes at 24 bpp.
func (d *Devil) FillRect(x, y, w, h int, color uint32) {
	defer d.p.span("fillrect")()
	dev := d.dev
	if d.bpp == 24 {
		d.waitFIFO(5)
		dev.SetWindowBase(0)
		dev.SetColor(color)
		dev.SetStartXDom(uint32(x))
		dev.SetStartXSub(uint32(x + w))
		dev.SetStartY(uint32(y))
		d.waitFIFO(5)
		dev.SetDY(1)
		dev.SetCount(uint32(h))
		dev.SetRectOrigin(pack(x, y))
		dev.SetRectSize(pack(w, h))
		dev.SetRender(gen.RenderFILL)
		return
	}
	d.waitFIFO(7)
	dev.SetWindowBase(0)
	dev.SetLogicOp(3)
	dev.SetLogicOpEnable(true)
	dev.SetFbDepth(depthVal(d.bpp))
	dev.SetDither(true)
	dev.SetColor(color)
	dev.SetScissorMin(pack(0, 0))
	d.waitFIFO(5)
	dev.SetScissorMax(pack(0x7fff, 0x7fff))
	dev.SetFbReadMode(0)
	dev.SetStartXDom(uint32(x))
	dev.SetStartXSub(uint32(x + w))
	dev.SetStartY(uint32(y))
	d.waitFIFO(5)
	dev.SetDY(1)
	dev.SetCount(uint32(h))
	dev.SetRectOrigin(pack(x, y))
	dev.SetRectSize(pack(w, h))
	dev.SetRender(gen.RenderFILL)
}

// CopyRect implements Driver: 3 waits + 17 writes at 8/16 bpp,
// 2 waits + 9 writes at 24/32 bpp.
func (d *Devil) CopyRect(sx, sy, dx, dy, w, h int) {
	defer d.p.span("copyrect")()
	dev := d.dev
	if d.bpp == 24 || d.bpp == 32 {
		d.waitFIFO(4)
		dev.SetWindowBase(0)
		dev.SetSourceOffset(pack(sx-dx, sy-dy))
		dev.SetStartXDom(uint32(dx))
		dev.SetStartY(uint32(dy))
		d.waitFIFO(5)
		dev.SetDY(1)
		dev.SetCount(uint32(h))
		dev.SetRectOrigin(pack(dx, dy))
		dev.SetRectSize(pack(w, h))
		dev.SetRender(gen.RenderCOPY)
		return
	}
	d.waitFIFO(7)
	dev.SetWindowBase(0)
	dev.SetLogicOp(3)
	dev.SetLogicOpEnable(true)
	dev.SetFbDepth(depthVal(d.bpp))
	dev.SetDither(true)
	dev.SetFbReadMode(1)
	dev.SetSourceOffset(pack(sx-dx, sy-dy))
	d.waitFIFO(5)
	dev.SetScissorMin(pack(0, 0))
	dev.SetScissorMax(pack(0x7fff, 0x7fff))
	dev.SetStartXDom(uint32(dx))
	dev.SetStartXSub(uint32(dx + w))
	dev.SetStartY(uint32(dy))
	d.waitFIFO(5)
	dev.SetDY(1)
	dev.SetCount(uint32(h))
	dev.SetRectOrigin(pack(dx, dy))
	dev.SetRectSize(pack(w, h))
	dev.SetRender(gen.RenderCOPY)
}
