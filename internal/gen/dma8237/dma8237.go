// Code generated by devilc from the Devil specification of dma8237. DO NOT EDIT.

// Package dma8237 provides compiled Devil stubs for the dma8237 controller.
package dma8237

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

// XferVal is the enumerated type of the xfer variable.
type XferVal uint8

// Symbols of XferVal.
const (
	XferVERIFY    XferVal = 0x0
	XferWRITEXFER XferVal = 0x1
	XferREADXFER  XferVal = 0x2
)

// String names the symbol matching the value, wildcards included.
func (v XferVal) String() string {
	switch {
	case uint64(v)&0x3 == 0x0:
		return "VERIFY"
	case uint64(v)&0x3 == 0x1:
		return "WRITE_XFER"
	case uint64(v)&0x3 == 0x2:
		return "READ_XFER"
	}
	return fmt.Sprintf("XferVal(%#x)", uint64(v))
}

// MmodeVal is the enumerated type of the mmode variable.
type MmodeVal uint8

// Symbols of MmodeVal.
const (
	MmodeDEMAND  MmodeVal = 0x0
	MmodeSINGLE  MmodeVal = 0x1
	MmodeBLOCK   MmodeVal = 0x2
	MmodeCASCADE MmodeVal = 0x3
)

// String names the symbol matching the value, wildcards included.
func (v MmodeVal) String() string {
	switch {
	case uint64(v)&0x3 == 0x0:
		return "DEMAND"
	case uint64(v)&0x3 == 0x1:
		return "SINGLE"
	case uint64(v)&0x3 == 0x2:
		return "BLOCK"
	case uint64(v)&0x3 == 0x3:
		return "CASCADE"
	}
	return fmt.Sprintf("MmodeVal(%#x)", uint64(v))
}

// Device provides typed access to the dma8237 functional interface.
type Device struct {
	bus            bus.Bus
	spans          *obs.Spans // host attribution stack, discovered from the bus
	portIo         uint32
	snapStatusReg  uint32 // structure snapshot cache
	validDmaStatus bool
	fldMaskChan    uint32 // staged field of single_mask
	fldMaskOn      uint32 // staged field of single_mask
	fldChan        uint32 // staged field of mode
	fldXfer        uint32 // staged field of mode
	fldAutoInit    uint32 // staged field of mode
	fldDown        uint32 // staged field of mode
	fldMmode       uint32 // staged field of mode
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, io uint32) *Device {
	d := &Device{bus: b, portIo: io}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// setFlipFlop writes the flip_flop device variable.
func (d *Device) setFlipFlop(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.flip_flop.set")()
	}
	raw := uint32(v) & 0x1
	if debug && !(int64(v) >= 0 && int64(v) <= 1) {
		panic("devil: flip_flop: written value out of range for int(1)")
	}
	out := (raw & 0x1)
	out = out&0x1 | 0x0
	d.bus.Out8(d.portIo+12, uint8(out))
}

// Addr0 reads the addr0 device variable.
func (d *Device) Addr0() uint16 {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.addr0.get")()
	}
	d.setFlipFlop(uint8(0))
	r0 := uint32(d.bus.In8(d.portIo + 0))
	r1 := uint32(d.bus.In8(d.portIo + 0))
	raw := (r1&0xff)<<8 | (r0 & 0xff)
	return uint16(raw)
}

// SetAddr0 writes the addr0 device variable.
func (d *Device) SetAddr0(v uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.addr0.set")()
	}
	raw := uint32(v) & 0xffff
	if debug && !(int64(v) >= 0 && int64(v) <= 65535) {
		panic("devil: addr0: written value out of range for int(16)")
	}
	out := (raw & 0xff)
	d.setFlipFlop(uint8(0))
	d.bus.Out8(d.portIo+0, uint8(out))
	out = ((raw >> 8) & 0xff)
	d.bus.Out8(d.portIo+0, uint8(out))
}

// Count0 reads the count0 device variable.
func (d *Device) Count0() uint16 {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.count0.get")()
	}
	d.setFlipFlop(uint8(0))
	r0 := uint32(d.bus.In8(d.portIo + 1))
	r1 := uint32(d.bus.In8(d.portIo + 1))
	raw := (r1&0xff)<<8 | (r0 & 0xff)
	return uint16(raw)
}

// SetCount0 writes the count0 device variable.
func (d *Device) SetCount0(v uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.count0.set")()
	}
	raw := uint32(v) & 0xffff
	if debug && !(int64(v) >= 0 && int64(v) <= 65535) {
		panic("devil: count0: written value out of range for int(16)")
	}
	out := (raw & 0xff)
	d.setFlipFlop(uint8(0))
	d.bus.Out8(d.portIo+1, uint8(out))
	out = ((raw >> 8) & 0xff)
	d.bus.Out8(d.portIo+1, uint8(out))
}

// Reached returns the reached field from the last dma_status snapshot.
func (d *Device) Reached() uint8 {
	if debug && !d.validDmaStatus {
		panic("devil: reached read before dma_status snapshot")
	}
	raw := (d.snapStatusReg & 0xf)
	return uint8(raw)
}

// Requests returns the requests field from the last dma_status snapshot.
func (d *Device) Requests() uint8 {
	if debug && !d.validDmaStatus {
		panic("devil: requests read before dma_status snapshot")
	}
	raw := ((d.snapStatusReg >> 4) & 0xf)
	return uint8(raw)
}

// SetMaskChan stages the mask_chan field; WriteSingleMask flushes it to the device.
func (d *Device) SetMaskChan(v uint8) {
	raw := uint32(v) & 0x3
	if debug && !(int64(v) >= 0 && int64(v) <= 3) {
		panic("devil: mask_chan: written value out of range for int(2)")
	}
	d.fldMaskChan = raw
}

// SetMaskOn stages the mask_on field; WriteSingleMask flushes it to the device.
func (d *Device) SetMaskOn(v bool) {
	raw := b32(v)
	d.fldMaskOn = raw
}

// SetChan stages the chan field; WriteMode flushes it to the device.
func (d *Device) SetChan(v uint8) {
	raw := uint32(v) & 0x3
	if debug && !(int64(v) >= 0 && int64(v) <= 3) {
		panic("devil: chan: written value out of range for int(2)")
	}
	d.fldChan = raw
}

// SetXfer stages the xfer field; WriteMode flushes it to the device.
func (d *Device) SetXfer(v XferVal) {
	raw := uint32(v) & 0x3
	if debug && (!(int64(v) >= 0 && int64(v) <= 3) || !(int64(v)&0x3 == 0x0 || int64(v)&0x3 == 0x1 || int64(v)&0x3 == 0x2)) {
		panic("devil: xfer: written value out of range for {VERIFY, WRITE_XFER, READ_XFER}")
	}
	d.fldXfer = raw
}

// SetAutoInit stages the auto_init field; WriteMode flushes it to the device.
func (d *Device) SetAutoInit(v bool) {
	raw := b32(v)
	d.fldAutoInit = raw
}

// SetDown stages the down field; WriteMode flushes it to the device.
func (d *Device) SetDown(v bool) {
	raw := b32(v)
	d.fldDown = raw
}

// SetMmode stages the mmode field; WriteMode flushes it to the device.
func (d *Device) SetMmode(v MmodeVal) {
	raw := uint32(v) & 0x3
	if debug && (!(int64(v) >= 0 && int64(v) <= 3) || !(int64(v)&0x3 == 0x0 || int64(v)&0x3 == 0x1 || int64(v)&0x3 == 0x2 || int64(v)&0x3 == 0x3)) {
		panic("devil: mmode: written value out of range for {DEMAND, SINGLE, BLOCK, CASCADE}")
	}
	d.fldMmode = raw
}

// ReadDmaStatus reads the registers of dma_status once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadDmaStatus() {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.dma_status.read")()
	}
	d.snapStatusReg = uint32(d.bus.In8(d.portIo + 8))
	d.validDmaStatus = true
}

// WriteSingleMask flushes the staged fields of single_mask in serialization order.
func (d *Device) WriteSingleMask() {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.single_mask.write")()
	}
	out := uint32(0x0)
	out |= (d.fldMaskChan & 0x3)
	out |= (d.fldMaskOn & 0x1) << 2
	out = out&0x7 | 0x0
	d.bus.Out8(d.portIo+10, uint8(out))
}

// WriteMode flushes the staged fields of mode in serialization order.
func (d *Device) WriteMode() {
	if d.spans.Enabled() {
		defer d.spans.Span("dma8237.mode.write")()
	}
	out := uint32(0x0)
	out |= (d.fldChan & 0x3)
	out |= (d.fldXfer & 0x3) << 2
	out |= (d.fldAutoInit & 0x1) << 4
	out |= (d.fldDown & 0x1) << 5
	out |= (d.fldMmode & 0x3) << 6
	d.bus.Out8(d.portIo+11, uint8(out))
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "dma8237")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "dma8237")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.snapStatusReg)
	c.Bool(&d.validDmaStatus)
	c.U32(&d.fldMaskChan)
	c.U32(&d.fldMaskOn)
	c.U32(&d.fldChan)
	c.U32(&d.fldXfer)
	c.U32(&d.fldAutoInit)
	c.U32(&d.fldDown)
	c.U32(&d.fldMmode)
}
