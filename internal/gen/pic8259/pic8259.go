// Code generated by devilc from the Devil specification of pic8259. DO NOT EDIT.

// Package pic8259 provides compiled Devil stubs for the pic8259 controller.
package pic8259

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

// SnglVal is the enumerated type of the sngl variable.
type SnglVal uint8

// Symbols of SnglVal.
const (
	SnglSINGLE   SnglVal = 0x1
	SnglCASCADED SnglVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v SnglVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "SINGLE"
	case uint64(v)&0x1 == 0x0:
		return "CASCADED"
	}
	return fmt.Sprintf("SnglVal(%#x)", uint64(v))
}

// MicroprocessorVal is the enumerated type of the microprocessor variable.
type MicroprocessorVal uint8

// Symbols of MicroprocessorVal.
const (
	MicroprocessorX8086   MicroprocessorVal = 0x1
	MicroprocessorMCS8085 MicroprocessorVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v MicroprocessorVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "X8086"
	case uint64(v)&0x1 == 0x0:
		return "MCS80_85"
	}
	return fmt.Sprintf("MicroprocessorVal(%#x)", uint64(v))
}

// EoiVal is the enumerated type of the eoi variable.
type EoiVal uint8

// Symbols of EoiVal.
const (
	EoiNONSPECIFICEOI    EoiVal = 0x1
	EoiSPECIFICEOI       EoiVal = 0x3
	EoiROTATENONSPECIFIC EoiVal = 0x5
)

// String names the symbol matching the value, wildcards included.
func (v EoiVal) String() string {
	switch {
	case uint64(v)&0x7 == 0x1:
		return "NONSPECIFIC_EOI"
	case uint64(v)&0x7 == 0x3:
		return "SPECIFIC_EOI"
	case uint64(v)&0x7 == 0x5:
		return "ROTATE_NONSPECIFIC"
	}
	return fmt.Sprintf("EoiVal(%#x)", uint64(v))
}

// Device provides typed access to the pic8259 functional interface.
type Device struct {
	bus               bus.Bus
	spans             *obs.Spans // host attribution stack, discovered from the bus
	portBase          uint32
	cellInOperation   uint32 // private memory cell
	fldLirq           uint32 // staged field of init
	fldLtim           uint32 // staged field of init
	fldAdi            uint32 // staged field of init
	fldSngl           uint32 // staged field of init
	fldIc4            uint32 // staged field of init
	fldBaseVec        uint32 // staged field of init
	fldSlaves         uint32 // staged field of init
	fldSfnm           uint32 // staged field of init
	fldBuf            uint32 // staged field of init
	fldAeoi           uint32 // staged field of init
	fldMicroprocessor uint32 // staged field of init
	fldEoi            uint32 // staged field of eoi_cmd
	fldEoiLevel       uint32 // staged field of eoi_cmd
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, base uint32) *Device {
	d := &Device{bus: b, portBase: base}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// SetLirq stages the lirq field; WriteInit flushes it to the device.
func (d *Device) SetLirq(v uint8) {
	raw := uint32(v) & 0x7
	if debug && !(int64(v) >= 0 && int64(v) <= 7) {
		panic("devil: lirq: written value out of range for int(3)")
	}
	d.fldLirq = raw
}

// SetLtim stages the ltim field; WriteInit flushes it to the device.
func (d *Device) SetLtim(v bool) {
	raw := b32(v)
	d.fldLtim = raw
}

// SetAdi stages the adi field; WriteInit flushes it to the device.
func (d *Device) SetAdi(v bool) {
	raw := b32(v)
	d.fldAdi = raw
}

// SetSngl stages the sngl field; WriteInit flushes it to the device.
func (d *Device) SetSngl(v SnglVal) {
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: sngl: written value out of range for {SINGLE, CASCADED}")
	}
	d.fldSngl = raw
}

// SetIc4 stages the ic4 field; WriteInit flushes it to the device.
func (d *Device) SetIc4(v bool) {
	raw := b32(v)
	d.fldIc4 = raw
}

// SetBaseVec stages the base_vec field; WriteInit flushes it to the device.
func (d *Device) SetBaseVec(v uint8) {
	raw := uint32(v) & 0x1f
	if debug && !(int64(v) >= 0 && int64(v) <= 31) {
		panic("devil: base_vec: written value out of range for int(5)")
	}
	d.fldBaseVec = raw
}

// SetSlaves stages the slaves field; WriteInit flushes it to the device.
func (d *Device) SetSlaves(v uint8) {
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: slaves: written value out of range for int(8)")
	}
	d.fldSlaves = raw
}

// SetSfnm stages the sfnm field; WriteInit flushes it to the device.
func (d *Device) SetSfnm(v bool) {
	raw := b32(v)
	d.fldSfnm = raw
}

// SetBuf stages the buf field; WriteInit flushes it to the device.
func (d *Device) SetBuf(v uint8) {
	raw := uint32(v) & 0x3
	if debug && !(int64(v) >= 0 && int64(v) <= 3) {
		panic("devil: buf: written value out of range for int(2)")
	}
	d.fldBuf = raw
}

// SetAeoi stages the aeoi field; WriteInit flushes it to the device.
func (d *Device) SetAeoi(v bool) {
	raw := b32(v)
	d.fldAeoi = raw
}

// SetMicroprocessor stages the microprocessor field; WriteInit flushes it to the device.
func (d *Device) SetMicroprocessor(v MicroprocessorVal) {
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: microprocessor: written value out of range for {X8086, MCS80_85}")
	}
	d.fldMicroprocessor = raw
}

// SetIrqMask writes the irq_mask device variable.
func (d *Device) SetIrqMask(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.irq_mask.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: irq_mask: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.cellInOperation = 0x1
	d.bus.Out8(d.portBase+1, uint8(out))
}

// SetEoi stages the eoi field; WriteEoiCmd flushes it to the device.
func (d *Device) SetEoi(v EoiVal) {
	raw := uint32(v) & 0x7
	if debug && (!(int64(v) >= 0 && int64(v) <= 7) || !(int64(v)&0x7 == 0x1 || int64(v)&0x7 == 0x3 || int64(v)&0x7 == 0x5)) {
		panic("devil: eoi: written value out of range for {NONSPECIFIC_EOI, SPECIFIC_EOI, ROTATE_NONSPECIFIC}")
	}
	d.fldEoi = raw
}

// SetEoiLevel stages the eoi_level field; WriteEoiCmd flushes it to the device.
func (d *Device) SetEoiLevel(v uint8) {
	raw := uint32(v) & 0x7
	if debug && !(int64(v) >= 0 && int64(v) <= 7) {
		panic("devil: eoi_level: written value out of range for int(3)")
	}
	d.fldEoiLevel = raw
}

// setReadSel writes the read_sel device variable.
func (d *Device) setReadSel(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.read_sel.set")()
	}
	raw := uint32(v) & 0x1
	if debug && !(int64(v) >= 0 && int64(v) <= 1) {
		panic("devil: read_sel: written value out of range for int(1)")
	}
	out := (raw & 0x1)
	out = out&0x1 | 0xa
	d.bus.Out8(d.portBase+0, uint8(out))
}

// Irr reads the irr device variable.
func (d *Device) Irr() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.irr.get")()
	}
	d.setReadSel(uint8(0x0))
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// Isr reads the isr device variable.
func (d *Device) Isr() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.isr.get")()
	}
	d.setReadSel(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// WriteInit flushes the staged fields of init in serialization order.
func (d *Device) WriteInit() {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.init.write")()
	}
	out := uint32(0x10)
	out |= (d.fldLirq & 0x7) << 5
	out |= (d.fldLtim & 0x1) << 3
	out |= (d.fldAdi & 0x1) << 2
	out |= (d.fldSngl & 0x1) << 1
	out |= (d.fldIc4 & 0x1)
	out = out&0xff | 0x10
	d.bus.Out8(d.portBase+0, uint8(out))
	out = uint32(0x0)
	out |= (d.fldBaseVec & 0x1f) << 3
	out = out&0xf8 | 0x0
	d.bus.Out8(d.portBase+1, uint8(out))
	if d.fldSngl == 0x0 {
		out = uint32(0x0)
		out |= (d.fldSlaves & 0xff)
		d.bus.Out8(d.portBase+1, uint8(out))
	}
	if d.fldIc4 == 0x1 {
		out = uint32(0x0)
		out |= (d.fldSfnm & 0x1) << 4
		out |= (d.fldBuf & 0x3) << 2
		out |= (d.fldAeoi & 0x1) << 1
		out |= (d.fldMicroprocessor & 0x1)
		out = out&0x1f | 0x0
		d.bus.Out8(d.portBase+1, uint8(out))
	}
}

// WriteEoiCmd flushes the staged fields of eoi_cmd in serialization order.
func (d *Device) WriteEoiCmd() {
	if d.spans.Enabled() {
		defer d.spans.Span("pic8259.eoi_cmd.write")()
	}
	out := uint32(0x0)
	out |= (d.fldEoi & 0x7) << 5
	out |= (d.fldEoiLevel & 0x7)
	out = out&0xe7 | 0x0
	d.bus.Out8(d.portBase+0, uint8(out))
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "pic8259")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "pic8259")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.cellInOperation)
	c.U32(&d.fldLirq)
	c.U32(&d.fldLtim)
	c.U32(&d.fldAdi)
	c.U32(&d.fldSngl)
	c.U32(&d.fldIc4)
	c.U32(&d.fldBaseVec)
	c.U32(&d.fldSlaves)
	c.U32(&d.fldSfnm)
	c.U32(&d.fldBuf)
	c.U32(&d.fldAeoi)
	c.U32(&d.fldMicroprocessor)
	c.U32(&d.fldEoi)
	c.U32(&d.fldEoiLevel)
}
