// Code generated by devilc from the Devil specification of ide_disk. DO NOT EDIT.

// Package ide provides compiled Devil stubs for the ide_disk controller.
package ide

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

// LbaModeVal is the enumerated type of the lba_mode variable.
type LbaModeVal uint8

// Symbols of LbaModeVal.
const (
	LbaModeLBA LbaModeVal = 0x1
	LbaModeCHS LbaModeVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v LbaModeVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "LBA"
	case uint64(v)&0x1 == 0x0:
		return "CHS"
	}
	return fmt.Sprintf("LbaModeVal(%#x)", uint64(v))
}

// CommandVal is the enumerated type of the command variable.
type CommandVal uint8

// Symbols of CommandVal.
const (
	CommandRECALIBRATE   CommandVal = 0x10
	CommandREADSECTORS   CommandVal = 0x20
	CommandWRITESECTORS  CommandVal = 0x30
	CommandREADDMA       CommandVal = 0xc8
	CommandWRITEDMA      CommandVal = 0xca
	CommandREADMULTIPLE  CommandVal = 0xc4
	CommandWRITEMULTIPLE CommandVal = 0xc5
	CommandSETMULTIPLE   CommandVal = 0xc6
	CommandIDENTIFY      CommandVal = 0xec
)

// String names the symbol matching the value, wildcards included.
func (v CommandVal) String() string {
	switch {
	case uint64(v)&0xff == 0x10:
		return "RECALIBRATE"
	case uint64(v)&0xff == 0x20:
		return "READ_SECTORS"
	case uint64(v)&0xff == 0x30:
		return "WRITE_SECTORS"
	case uint64(v)&0xff == 0xc8:
		return "READ_DMA"
	case uint64(v)&0xff == 0xca:
		return "WRITE_DMA"
	case uint64(v)&0xff == 0xc4:
		return "READ_MULTIPLE"
	case uint64(v)&0xff == 0xc5:
		return "WRITE_MULTIPLE"
	case uint64(v)&0xff == 0xc6:
		return "SET_MULTIPLE"
	case uint64(v)&0xff == 0xec:
		return "IDENTIFY"
	}
	return fmt.Sprintf("CommandVal(%#x)", uint64(v))
}

// NienVal is the enumerated type of the nien variable.
type NienVal uint8

// Symbols of NienVal.
const (
	NienINTRENABLE  NienVal = 0x0
	NienINTRDISABLE NienVal = 0x1
)

// String names the symbol matching the value, wildcards included.
func (v NienVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x0:
		return "INTR_ENABLE"
	case uint64(v)&0x1 == 0x1:
		return "INTR_DISABLE"
	}
	return fmt.Sprintf("NienVal(%#x)", uint64(v))
}

// Device provides typed access to the ide_disk functional interface.
type Device struct {
	bus              bus.Bus
	spans            *obs.Spans // host attribution stack, discovered from the bus
	portData         uint32
	portData32       uint32
	portBase         uint32
	portCtl          uint32
	shadowCtlReg     uint32 // last written value, for read-modify-write
	shadowDevheadReg uint32 // last written value, for read-modify-write
	shadowLbaHighReg uint32 // last written value, for read-modify-write
	shadowLbaLowReg  uint32 // last written value, for read-modify-write
	shadowLbaMidReg  uint32 // last written value, for read-modify-write
	snapStatusReg    uint32 // structure snapshot cache
	okDevheadReg     bool   // shadow is authoritative: redundant writes may be elided
	okLbaHighReg     bool   // shadow is authoritative: redundant writes may be elided
	okLbaLowReg      bool   // shadow is authoritative: redundant writes may be elided
	okLbaMidReg      bool   // shadow is authoritative: redundant writes may be elided
	validIdeStatus   bool
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, data uint32, data32 uint32, base uint32, ctl uint32) *Device {
	d := &Device{bus: b, portData: data, portData32: data32, portBase: base, portCtl: ctl}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// IdeData reads the Ide_data device variable.
func (d *Device) IdeData() uint16 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data.get")()
	}
	r0 := uint32(d.bus.In16(d.portData + 0))
	raw := (r0 & 0xffff)
	return uint16(raw)
}

// SetIdeData writes the Ide_data device variable.
func (d *Device) SetIdeData(v uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data.set")()
	}
	raw := uint32(v) & 0xffff
	if debug && !(int64(v) >= 0 && int64(v) <= 65535) {
		panic("devil: Ide_data: written value out of range for int(16)")
	}
	out := (raw & 0xffff)
	d.bus.Out16(d.portData+0, uint16(out))
}

// ReadIdeDataBlock reads len(buf) values with one block operation
// (the rep-ins equivalent).
func (d *Device) ReadIdeDataBlock(buf []uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data.blockin")()
	}
	d.bus.InBlock16(d.portData+0, buf)
}

// WriteIdeDataBlock writes len(buf) values with one block operation
// (the rep-outs equivalent).
func (d *Device) WriteIdeDataBlock(buf []uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data.blockout")()
	}
	d.bus.OutBlock16(d.portData+0, buf)
}

// IdeData32 reads the Ide_data32 device variable.
func (d *Device) IdeData32() uint32 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data32.get")()
	}
	r0 := uint32(d.bus.In32(d.portData32 + 0))
	raw := (r0 & 0xffffffff)
	return uint32(raw)
}

// SetIdeData32 writes the Ide_data32 device variable.
func (d *Device) SetIdeData32(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data32.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portData32+0, uint32(out))
}

// ReadIdeData32Block reads len(buf) values with one block operation
// (the rep-ins equivalent).
func (d *Device) ReadIdeData32Block(buf []uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data32.blockin")()
	}
	d.bus.InBlock32(d.portData32+0, buf)
}

// WriteIdeData32Block writes len(buf) values with one block operation
// (the rep-outs equivalent).
func (d *Device) WriteIdeData32Block(buf []uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.Ide_data32.blockout")()
	}
	d.bus.OutBlock32(d.portData32+0, buf)
}

// Error reads the error device variable.
func (d *Device) Error() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.error.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetFeatures writes the features device variable.
func (d *Device) SetFeatures(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.features.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: features: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.bus.Out8(d.portBase+1, uint8(out))
}

// Nsect reads the nsect device variable.
func (d *Device) Nsect() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.nsect.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 2))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetNsect writes the nsect device variable.
func (d *Device) SetNsect(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.nsect.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: nsect: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.bus.Out8(d.portBase+2, uint8(out))
}

// LbaLow reads the lba_low device variable.
func (d *Device) LbaLow() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_low.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 3))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetLbaLow writes the lba_low device variable.
func (d *Device) SetLbaLow(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_low.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: lba_low: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okLbaLowReg && d.shadowLbaLowReg == out) {
		d.bus.Out8(d.portBase+3, uint8(out))
		d.shadowLbaLowReg = out
		d.okLbaLowReg = true
	}
}

// LbaMid reads the lba_mid device variable.
func (d *Device) LbaMid() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_mid.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 4))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetLbaMid writes the lba_mid device variable.
func (d *Device) SetLbaMid(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_mid.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: lba_mid: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okLbaMidReg && d.shadowLbaMidReg == out) {
		d.bus.Out8(d.portBase+4, uint8(out))
		d.shadowLbaMidReg = out
		d.okLbaMidReg = true
	}
}

// LbaHigh reads the lba_high device variable.
func (d *Device) LbaHigh() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_high.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 5))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetLbaHigh writes the lba_high device variable.
func (d *Device) SetLbaHigh(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_high.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: lba_high: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okLbaHighReg && d.shadowLbaHighReg == out) {
		d.bus.Out8(d.portBase+5, uint8(out))
		d.shadowLbaHighReg = out
		d.okLbaHighReg = true
	}
}

// SetLbaMode writes the lba_mode device variable.
func (d *Device) SetLbaMode(v LbaModeVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.lba_mode.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: lba_mode: written value out of range for {LBA, CHS}")
	}
	out := (raw&0x1)<<6 | d.shadowDevheadReg&0x1f
	out = out&0x5f | 0xa0
	if !(d.okDevheadReg && d.shadowDevheadReg == out) {
		d.bus.Out8(d.portBase+6, uint8(out))
		d.shadowDevheadReg = out
		d.okDevheadReg = true
	}
}

// Drive reads the drive device variable.
func (d *Device) Drive() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.drive.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 6))
	raw := ((r0 >> 4) & 0x1)
	return uint8(raw)
}

// SetDrive writes the drive device variable.
func (d *Device) SetDrive(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.drive.set")()
	}
	raw := uint32(v) & 0x1
	if debug && !(int64(v) >= 0 && int64(v) <= 1) {
		panic("devil: drive: written value out of range for int(1)")
	}
	out := (raw&0x1)<<4 | d.shadowDevheadReg&0x4f
	out = out&0x5f | 0xa0
	if !(d.okDevheadReg && d.shadowDevheadReg == out) {
		d.bus.Out8(d.portBase+6, uint8(out))
		d.shadowDevheadReg = out
		d.okDevheadReg = true
	}
}

// Head reads the head device variable.
func (d *Device) Head() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.head.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 6))
	raw := (r0 & 0xf)
	return uint8(raw)
}

// SetHead writes the head device variable.
func (d *Device) SetHead(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.head.set")()
	}
	raw := uint32(v) & 0xf
	if debug && !(int64(v) >= 0 && int64(v) <= 15) {
		panic("devil: head: written value out of range for int(4)")
	}
	out := (raw & 0xf) | d.shadowDevheadReg&0x50
	out = out&0x5f | 0xa0
	if !(d.okDevheadReg && d.shadowDevheadReg == out) {
		d.bus.Out8(d.portBase+6, uint8(out))
		d.shadowDevheadReg = out
		d.okDevheadReg = true
	}
}

// Bsy returns the bsy field from the last ide_status snapshot.
func (d *Device) Bsy() bool {
	if debug && !d.validIdeStatus {
		panic("devil: bsy read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 7) & 0x1)
	return raw != 0
}

// Drdy returns the drdy field from the last ide_status snapshot.
func (d *Device) Drdy() bool {
	if debug && !d.validIdeStatus {
		panic("devil: drdy read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 6) & 0x1)
	return raw != 0
}

// Df returns the df field from the last ide_status snapshot.
func (d *Device) Df() bool {
	if debug && !d.validIdeStatus {
		panic("devil: df read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 5) & 0x1)
	return raw != 0
}

// Dsc returns the dsc field from the last ide_status snapshot.
func (d *Device) Dsc() bool {
	if debug && !d.validIdeStatus {
		panic("devil: dsc read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 4) & 0x1)
	return raw != 0
}

// Drq returns the drq field from the last ide_status snapshot.
func (d *Device) Drq() bool {
	if debug && !d.validIdeStatus {
		panic("devil: drq read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 3) & 0x1)
	return raw != 0
}

// Corr returns the corr field from the last ide_status snapshot.
func (d *Device) Corr() bool {
	if debug && !d.validIdeStatus {
		panic("devil: corr read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 2) & 0x1)
	return raw != 0
}

// Idx returns the idx field from the last ide_status snapshot.
func (d *Device) Idx() bool {
	if debug && !d.validIdeStatus {
		panic("devil: idx read before ide_status snapshot")
	}
	raw := ((d.snapStatusReg >> 1) & 0x1)
	return raw != 0
}

// Err returns the err field from the last ide_status snapshot.
func (d *Device) Err() bool {
	if debug && !d.validIdeStatus {
		panic("devil: err read before ide_status snapshot")
	}
	raw := (d.snapStatusReg & 0x1)
	return raw != 0
}

// SetCommand writes the command device variable.
func (d *Device) SetCommand(v CommandVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.command.set")()
	}
	raw := uint32(v) & 0xff
	if debug && (!(int64(v) >= 0 && int64(v) <= 255) || !(int64(v)&0xff == 0x10 || int64(v)&0xff == 0x20 || int64(v)&0xff == 0x30 || int64(v)&0xff == 0xc8 || int64(v)&0xff == 0xca || int64(v)&0xff == 0xc4 || int64(v)&0xff == 0xc5 || int64(v)&0xff == 0xc6 || int64(v)&0xff == 0xec)) {
		panic("devil: command: written value out of range for {RECALIBRATE, READ_SECTORS, WRITE_SECTORS, READ_DMA, WRITE_DMA, READ_MULTIPLE, WRITE_MULTIPLE, SET_MULTIPLE, IDENTIFY}")
	}
	out := (raw & 0xff)
	d.bus.Out8(d.portBase+7, uint8(out))
}

// SetSrst writes the srst device variable.
func (d *Device) SetSrst(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.srst.set")()
	}
	raw := b32(v)
	out := (raw&0x1)<<2 | d.shadowCtlReg&0x2
	out = out&0x6 | 0x0
	d.bus.Out8(d.portCtl+0, uint8(out))
	d.shadowCtlReg = out
}

// SetNien writes the nien device variable.
func (d *Device) SetNien(v NienVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.nien.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x0 || int64(v)&0x1 == 0x1)) {
		panic("devil: nien: written value out of range for {INTR_ENABLE, INTR_DISABLE}")
	}
	out := (raw&0x1)<<1 | d.shadowCtlReg&0x4
	out = out&0x6 | 0x0
	d.bus.Out8(d.portCtl+0, uint8(out))
	d.shadowCtlReg = out
}

// ReadIdeStatus reads the registers of ide_status once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadIdeStatus() {
	if d.spans.Enabled() {
		defer d.spans.Span("ide_disk.ide_status.read")()
	}
	d.snapStatusReg = uint32(d.bus.In8(d.portBase + 7))
	d.validIdeStatus = true
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "ide_disk")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "ide_disk")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.shadowLbaLowReg)
	c.U32(&d.shadowLbaMidReg)
	c.U32(&d.shadowLbaHighReg)
	c.U32(&d.shadowDevheadReg)
	c.U32(&d.shadowCtlReg)
	c.Bool(&d.okLbaLowReg)
	c.Bool(&d.okLbaMidReg)
	c.Bool(&d.okLbaHighReg)
	c.Bool(&d.okDevheadReg)
	c.U32(&d.snapStatusReg)
	c.Bool(&d.validIdeStatus)
}
