// Code generated by devilc from the Devil specification of permedia2. DO NOT EDIT.

// Package permedia2 provides compiled Devil stubs for the permedia2 controller.
package permedia2

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/snap"
)

// debug enables the specification-derived runtime checks (§3.2).
const debug = false

func b32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// FbDepthVal is the enumerated type of the fb_depth variable.
type FbDepthVal uint8

// Symbols of FbDepthVal.
const (
	FbDepthBPP8  FbDepthVal = 0x0
	FbDepthBPP16 FbDepthVal = 0x1
	FbDepthBPP32 FbDepthVal = 0x2
	FbDepthBPP24 FbDepthVal = 0x3
)

// String names the symbol matching the value, wildcards included.
func (v FbDepthVal) String() string {
	switch {
	case uint64(v)&0x3 == 0x0:
		return "BPP8"
	case uint64(v)&0x3 == 0x1:
		return "BPP16"
	case uint64(v)&0x3 == 0x2:
		return "BPP32"
	case uint64(v)&0x3 == 0x3:
		return "BPP24"
	}
	return fmt.Sprintf("FbDepthVal(%#x)", uint64(v))
}

// RenderVal is the enumerated type of the render variable.
type RenderVal uint8

// Symbols of RenderVal.
const (
	RenderFILL RenderVal = 0x1
	RenderCOPY RenderVal = 0x81
)

// String names the symbol matching the value, wildcards included.
func (v RenderVal) String() string {
	switch {
	case uint64(v)&0xff == 0x1:
		return "FILL"
	case uint64(v)&0xff == 0x81:
		return "COPY"
	}
	return fmt.Sprintf("RenderVal(%#x)", uint64(v))
}

// Device provides typed access to the permedia2 functional interface.
type Device struct {
	bus                 bus.Bus
	spans               *obs.Spans // host attribution stack, discovered from the bus
	portReg             uint32
	shadowFbWriteConfig uint32 // last written value, for read-modify-write
	shadowLogicalOpMode uint32 // last written value, for read-modify-write
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, reg uint32) *Device {
	d := &Device{bus: b, portReg: reg}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// FifoSpace reads the fifo_space device variable.
func (d *Device) FifoSpace() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.fifo_space.get")()
	}
	r0 := uint32(d.bus.In32(d.portReg + 0))
	raw := (r0 & 0x3f)
	return uint8(raw)
}

// SetWindowBase writes the window_base device variable.
func (d *Device) SetWindowBase(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.window_base.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+8, uint32(out))
}

// SetLogicOp writes the logic_op device variable.
func (d *Device) SetLogicOp(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.logic_op.set")()
	}
	raw := uint32(v) & 0xf
	if debug && !(int64(v) >= 0 && int64(v) <= 15) {
		panic("devil: logic_op: written value out of range for int(4)")
	}
	out := (raw&0xf)<<1 | d.shadowLogicalOpMode&0x1
	out = out&0x1f | 0x0
	d.bus.Out32(d.portReg+16, uint32(out))
	d.shadowLogicalOpMode = out
}

// SetLogicOpEnable writes the logic_op_enable device variable.
func (d *Device) SetLogicOpEnable(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.logic_op_enable.set")()
	}
	raw := b32(v)
	out := (raw & 0x1) | d.shadowLogicalOpMode&0x1e
	out = out&0x1f | 0x0
	d.bus.Out32(d.portReg+16, uint32(out))
	d.shadowLogicalOpMode = out
}

// SetFbDepth writes the fb_depth device variable.
func (d *Device) SetFbDepth(v FbDepthVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.fb_depth.set")()
	}
	raw := uint32(v) & 0x3
	if debug && (!(int64(v) >= 0 && int64(v) <= 3) || !(int64(v)&0x3 == 0x0 || int64(v)&0x3 == 0x1 || int64(v)&0x3 == 0x2 || int64(v)&0x3 == 0x3)) {
		panic("devil: fb_depth: written value out of range for {BPP8, BPP16, BPP32, BPP24}")
	}
	out := (raw & 0x3) | d.shadowFbWriteConfig&0x20
	out = out&0x23 | 0x0
	d.bus.Out32(d.portReg+24, uint32(out))
	d.shadowFbWriteConfig = out
}

// SetDither writes the dither device variable.
func (d *Device) SetDither(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.dither.set")()
	}
	raw := b32(v)
	out := (raw&0x1)<<5 | d.shadowFbWriteConfig&0x3
	out = out&0x23 | 0x0
	d.bus.Out32(d.portReg+24, uint32(out))
	d.shadowFbWriteConfig = out
}

// SetColor writes the color device variable.
func (d *Device) SetColor(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.color.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+32, uint32(out))
}

// SetStartXDom writes the start_x_dom device variable.
func (d *Device) SetStartXDom(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.start_x_dom.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+40, uint32(out))
}

// SetStartXSub writes the start_x_sub device variable.
func (d *Device) SetStartXSub(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.start_x_sub.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+48, uint32(out))
}

// SetStartY writes the start_y device variable.
func (d *Device) SetStartY(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.start_y.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+56, uint32(out))
}

// SetDY writes the d_y device variable.
func (d *Device) SetDY(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.d_y.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+64, uint32(out))
}

// SetCount writes the count device variable.
func (d *Device) SetCount(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.count.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+72, uint32(out))
}

// SetRectOrigin writes the rect_origin device variable.
func (d *Device) SetRectOrigin(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.rect_origin.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+80, uint32(out))
}

// SetRectSize writes the rect_size device variable.
func (d *Device) SetRectSize(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.rect_size.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+88, uint32(out))
}

// SetScissorMin writes the scissor_min device variable.
func (d *Device) SetScissorMin(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.scissor_min.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+96, uint32(out))
}

// SetScissorMax writes the scissor_max device variable.
func (d *Device) SetScissorMax(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.scissor_max.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+104, uint32(out))
}

// SetFbReadMode writes the fb_read_mode device variable.
func (d *Device) SetFbReadMode(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.fb_read_mode.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+112, uint32(out))
}

// SetSourceOffset writes the source_offset device variable.
func (d *Device) SetSourceOffset(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.source_offset.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portReg+120, uint32(out))
}

// SetRender writes the render device variable.
func (d *Device) SetRender(v RenderVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("permedia2.render.set")()
	}
	raw := uint32(v) & 0xff
	if debug && (!(int64(v) >= 0 && int64(v) <= 255) || !(int64(v)&0xff == 0x1 || int64(v)&0xff == 0x81)) {
		panic("devil: render: written value out of range for {FILL, COPY}")
	}
	out := (raw & 0xff)
	out = out&0xff | 0x0
	d.bus.Out32(d.portReg+128, uint32(out))
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "permedia2")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "permedia2")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.shadowLogicalOpMode)
	c.U32(&d.shadowFbWriteConfig)
}
