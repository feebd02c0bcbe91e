// Code generated by devilc from the Devil specification of cs4236. DO NOT EDIT.

// Package cs4236 provides compiled Devil stubs for the cs4236 controller.
package cs4236

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

// RateVal is the enumerated type of the rate variable.
type RateVal uint8

// Symbols of RateVal.
const (
	RateR8000  RateVal = 0x0
	RateR16000 RateVal = 0x2
	RateR11025 RateVal = 0x3
	RateR32000 RateVal = 0x6
	RateR22050 RateVal = 0x7
	RateR44100 RateVal = 0xb
	RateR48000 RateVal = 0xc
)

// String names the symbol matching the value, wildcards included.
func (v RateVal) String() string {
	switch {
	case uint64(v)&0xf == 0x0:
		return "R8000"
	case uint64(v)&0xf == 0x2:
		return "R16000"
	case uint64(v)&0xf == 0x3:
		return "R11025"
	case uint64(v)&0xf == 0x6:
		return "R32000"
	case uint64(v)&0xf == 0x7:
		return "R22050"
	case uint64(v)&0xf == 0xb:
		return "R44100"
	case uint64(v)&0xf == 0xc:
		return "R48000"
	}
	return fmt.Sprintf("RateVal(%#x)", uint64(v))
}

// FmtVal is the enumerated type of the fmt variable.
type FmtVal uint8

// Symbols of FmtVal.
const (
	FmtPCM8  FmtVal = 0x0
	FmtULAW  FmtVal = 0x1
	FmtPCM16 FmtVal = 0x2
	FmtADPCM FmtVal = 0x3
)

// String names the symbol matching the value, wildcards included.
func (v FmtVal) String() string {
	switch {
	case uint64(v)&0x3 == 0x0:
		return "PCM8"
	case uint64(v)&0x3 == 0x1:
		return "ULAW"
	case uint64(v)&0x3 == 0x2:
		return "PCM16"
	case uint64(v)&0x3 == 0x3:
		return "ADPCM"
	}
	return fmt.Sprintf("FmtVal(%#x)", uint64(v))
}

// Device provides typed access to the cs4236 functional interface.
type Device struct {
	bus           bus.Bus
	spans         *obs.Spans // host attribution stack, discovered from the bus
	portBase      uint32
	shadowControl uint32 // last written value, for read-modify-write
	shadowI16     uint32 // last written value, for read-modify-write
	shadowI23     uint32 // last written value, for read-modify-write
	shadowI9      uint32 // last written value, for read-modify-write
	snapI23       uint32 // structure snapshot cache
	snapI8        uint32 // structure snapshot cache
	okControl     bool   // shadow is authoritative: redundant writes may be elided
	okI16         bool   // shadow is authoritative: redundant writes may be elided
	okI23         bool   // shadow is authoritative: redundant writes may be elided
	okI9          bool   // shadow is authoritative: redundant writes may be elided
	cellXm        uint32 // private memory cell
	vcACF         uint32 // last value, composed into structure flushes
	validXS       bool
	fldXA         uint32 // staged field of XS
	fldXRAE       uint32 // staged field of XS
	stgXRAE       bool
	validPfmt     bool
	fldRate       uint32 // staged field of pfmt
	fldStereo     uint32 // staged field of pfmt
	fldFmt        uint32 // staged field of pfmt
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

// IA reads the IA device variable.
func (d *Device) IA() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.IA.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 0))
	d.cellXm = 0x0
	raw := (r0 & 0xff)
	if debug && !(int64(raw) >= 0 && int64(raw) <= 31) {
		panic("devil: IA: device delivered a value outside int{0..31}")
	}
	return uint8(raw)
}

// SetIA writes the IA device variable.
func (d *Device) SetIA(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.IA.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 31) {
		panic("devil: IA: written value out of range for int{0..31}")
	}
	out := (raw & 0xff)
	if !(d.okControl && d.shadowControl == out && d.cellXm == 0x0) {
		d.bus.Out8(d.portBase+0, uint8(out))
		d.shadowControl = out
		d.okControl = true
		d.cellXm = 0x0
	}
}

// Afe2 reads the afe2 device variable.
func (d *Device) Afe2() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.afe2.get")()
	}
	d.SetIA(uint8(0x10))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetAfe2 writes the afe2 device variable.
func (d *Device) SetAfe2(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.afe2.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: afe2: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okI16 && d.shadowI16 == out) {
		d.SetIA(uint8(0x10))
		d.bus.Out8(d.portBase+1, uint8(out))
		d.shadowI16 = out
		d.okI16 = true
	}
}

// ACF reads the ACF device variable.
func (d *Device) ACF() bool {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.ACF.get")()
	}
	d.SetIA(uint8(0x17))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0x1)
	d.vcACF = raw
	return raw != 0
}

// SetACF writes the ACF device variable.
func (d *Device) SetACF(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.ACF.set")()
	}
	raw := b32(v)
	d.vcACF = raw
	out := (raw & 0x1) | d.shadowI23&0xf4
	out = out&0xfd | 0x0
	if !(d.okI23 && d.shadowI23 == out) {
		d.SetIA(uint8(0x17))
		d.bus.Out8(d.portBase+1, uint8(out))
		d.shadowI23 = out
		d.okI23 = true
	}
}

// XA returns the XA field from the last XS snapshot.
func (d *Device) XA() uint8 {
	if debug && !d.validXS {
		panic("devil: XA read before XS snapshot")
	}
	raw := ((d.snapI23>>2)&0x1)<<4 | ((d.snapI23 >> 4) & 0xf)
	return uint8(raw)
}

// SetXA stages the XA field; WriteXS flushes it to the device.
func (d *Device) SetXA(v uint8) {
	raw := uint32(v) & 0x1f
	if debug && !(int64(v) >= 0 && int64(v) <= 31) {
		panic("devil: XA: written value out of range for int(5)")
	}
	d.fldXA = raw
}

// XRAE returns the XRAE field from the last XS snapshot.
func (d *Device) XRAE() bool {
	if debug && !d.validXS {
		panic("devil: XRAE read before XS snapshot")
	}
	raw := ((d.snapI23 >> 3) & 0x1)
	return raw != 0
}

// SetXRAE stages the XRAE field; WriteXS flushes it to the device.
func (d *Device) SetXRAE(v bool) {
	raw := b32(v)
	d.fldXRAE = raw
	d.stgXRAE = true
}

// Ext reads the ext device variable.
func (d *Device) Ext(j int) uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.ext.get")()
	}
	if debug && !(j >= 0 && j <= 17 || j == 25) {
		panic("devil: ext: argument out of domain {0..17, 25}")
	}
	d.SetXA(uint8(uint32(j)))
	d.SetXRAE(0x1 != 0)
	d.WriteXS()
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetExt writes the ext device variable.
func (d *Device) SetExt(v uint8, j int) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.ext.set")()
	}
	if debug && !(j >= 0 && j <= 17 || j == 25) {
		panic("devil: ext: argument out of domain {0..17, 25}")
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: ext: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.SetXA(uint8(uint32(j)))
	d.SetXRAE(0x1 != 0)
	d.WriteXS()
	d.bus.Out8(d.portBase+1, uint8(out))
}

// SetRate stages the rate field; WritePfmt flushes it to the device.
func (d *Device) SetRate(v RateVal) {
	raw := uint32(v) & 0xf
	if debug && (!(int64(v) >= 0 && int64(v) <= 15) || !(int64(v)&0xf == 0x0 || int64(v)&0xf == 0x2 || int64(v)&0xf == 0x3 || int64(v)&0xf == 0x6 || int64(v)&0xf == 0x7 || int64(v)&0xf == 0xb || int64(v)&0xf == 0xc)) {
		panic("devil: rate: written value out of range for {R8000, R16000, R11025, R32000, R22050, R44100, R48000}")
	}
	d.fldRate = raw
}

// Stereo returns the stereo field from the last pfmt snapshot.
func (d *Device) Stereo() bool {
	if debug && !d.validPfmt {
		panic("devil: stereo read before pfmt snapshot")
	}
	raw := ((d.snapI8 >> 4) & 0x1)
	return raw != 0
}

// SetStereo stages the stereo field; WritePfmt flushes it to the device.
func (d *Device) SetStereo(v bool) {
	raw := b32(v)
	d.fldStereo = raw
}

// SetFmt stages the fmt field; WritePfmt flushes it to the device.
func (d *Device) SetFmt(v FmtVal) {
	raw := uint32(v) & 0x3
	if debug && (!(int64(v) >= 0 && int64(v) <= 3) || !(int64(v)&0x3 == 0x0 || int64(v)&0x3 == 0x1 || int64(v)&0x3 == 0x2 || int64(v)&0x3 == 0x3)) {
		panic("devil: fmt: written value out of range for {PCM8, ULAW, PCM16, ADPCM}")
	}
	d.fldFmt = raw
}

// Pen reads the pen device variable.
func (d *Device) Pen() bool {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pen.get")()
	}
	d.SetIA(uint8(0x9))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0x1)
	return raw != 0
}

// SetPen writes the pen device variable.
func (d *Device) SetPen(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pen.set")()
	}
	raw := b32(v)
	out := (raw & 0x1) | d.shadowI9&0x4
	out = out&0x5 | 0x0
	if !(d.okI9 && d.shadowI9 == out) {
		d.SetIA(uint8(0x9))
		d.bus.Out8(d.portBase+1, uint8(out))
		d.shadowI9 = out
		d.okI9 = true
	}
}

// Sdc reads the sdc device variable.
func (d *Device) Sdc() bool {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.sdc.get")()
	}
	d.SetIA(uint8(0x9))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := ((r0 >> 2) & 0x1)
	return raw != 0
}

// SetSdc writes the sdc device variable.
func (d *Device) SetSdc(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.sdc.set")()
	}
	raw := b32(v)
	out := (raw&0x1)<<2 | d.shadowI9&0x1
	out = out&0x5 | 0x0
	if !(d.okI9 && d.shadowI9 == out) {
		d.SetIA(uint8(0x9))
		d.bus.Out8(d.portBase+1, uint8(out))
		d.shadowI9 = out
		d.okI9 = true
	}
}

// Pi reads the pi device variable.
func (d *Device) Pi() bool {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pi.get")()
	}
	d.SetIA(uint8(0x18))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := ((r0 >> 4) & 0x1)
	return raw != 0
}

// SetPi writes the pi device variable.
func (d *Device) SetPi(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pi.set")()
	}
	raw := b32(v)
	out := (raw & 0x1) << 4
	out = out&0x10 | 0x0
	d.SetIA(uint8(0x18))
	d.bus.Out8(d.portBase+1, uint8(out))
}

// ReadXS reads the registers of XS once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadXS() {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.XS.read")()
	}
	d.SetIA(uint8(0x17))
	d.snapI23 = uint32(d.bus.In8(d.portBase + 1))
	d.validXS = true
}

// WriteXS flushes the staged fields of XS in serialization order.
func (d *Device) WriteXS() {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.XS.write")()
	}
	out := uint32(0x0)
	out |= (d.vcACF & 0x1)
	out |= ((d.fldXA>>4)&0x1)<<2 | (d.fldXA&0xf)<<4
	if d.stgXRAE {
		out |= (d.fldXRAE & 0x1) << 3
	} else {
		out |= 0x0
	}
	out = out&0xfd | 0x0
	d.SetIA(uint8(0x17))
	d.bus.Out8(d.portBase+1, uint8(out))
	d.shadowI23 = out
	d.okI23 = true
	d.cellXm = d.fldXRAE
	d.stgXRAE = false
}

// ReadPfmt reads the registers of pfmt once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadPfmt() {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pfmt.read")()
	}
	d.SetIA(uint8(0x8))
	d.snapI8 = uint32(d.bus.In8(d.portBase + 1))
	d.validPfmt = true
}

// WritePfmt flushes the staged fields of pfmt in serialization order.
func (d *Device) WritePfmt() {
	if d.spans.Enabled() {
		defer d.spans.Span("cs4236.pfmt.write")()
	}
	out := uint32(0x0)
	out |= (d.fldRate & 0xf)
	out |= (d.fldStereo & 0x1) << 4
	out |= (d.fldFmt & 0x3) << 5
	out = out&0x7f | 0x0
	d.SetIA(uint8(0x8))
	d.bus.Out8(d.portBase+1, uint8(out))
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "cs4236")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "cs4236")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.cellXm)
	c.U32(&d.vcACF)
	c.U32(&d.shadowControl)
	c.U32(&d.shadowI16)
	c.U32(&d.shadowI23)
	c.U32(&d.shadowI9)
	c.Bool(&d.okControl)
	c.Bool(&d.okI16)
	c.Bool(&d.okI23)
	c.Bool(&d.okI9)
	c.U32(&d.snapI23)
	c.U32(&d.snapI8)
	c.Bool(&d.validXS)
	c.Bool(&d.validPfmt)
	c.U32(&d.fldXA)
	c.U32(&d.fldXRAE)
	c.Bool(&d.stgXRAE)
	c.U32(&d.fldRate)
	c.U32(&d.fldStereo)
	c.U32(&d.fldFmt)
}
