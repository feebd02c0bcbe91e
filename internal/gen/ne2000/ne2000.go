// Code generated by devilc from the Devil specification of ne2000. DO NOT EDIT.

// Package ne2000 provides compiled Devil stubs for the ne2000 controller.
package ne2000

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/snap"
)

// debug enables the specification-derived runtime checks (§3.2).
const debug = false

// StVal is the enumerated type of the st variable.
type StVal uint8

// Symbols of StVal.
const (
	StNEUTRAL StVal = 0x0
	StSTOP    StVal = 0x1
	StSTART   StVal = 0x2
	StBOTH    StVal = 0x3
)

// String names the symbol matching the value, wildcards included.
func (v StVal) String() string {
	switch {
	case uint64(v)&0x3 == 0x0:
		return "NEUTRAL"
	case uint64(v)&0x3 == 0x1:
		return "STOP"
	case uint64(v)&0x3 == 0x2:
		return "START"
	case uint64(v)&0x3 == 0x3:
		return "BOTH"
	}
	return fmt.Sprintf("StVal(%#x)", uint64(v))
}

// TxpVal is the enumerated type of the txp variable.
type TxpVal uint8

// Symbols of TxpVal.
const (
	TxpNOP      TxpVal = 0x0
	TxpTRANSMIT TxpVal = 0x1
)

// String names the symbol matching the value, wildcards included.
func (v TxpVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x0:
		return "NOP"
	case uint64(v)&0x1 == 0x1:
		return "TRANSMIT"
	}
	return fmt.Sprintf("TxpVal(%#x)", uint64(v))
}

// RdVal is the enumerated type of the rd variable.
type RdVal uint8

// Symbols of RdVal.
const (
	RdNODMA  RdVal = 0x4
	RdRREAD  RdVal = 0x1
	RdRWRITE RdVal = 0x2
	RdSEND   RdVal = 0x3
	RdIDLE   RdVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v RdVal) String() string {
	switch {
	case uint64(v)&0x7 == 0x4:
		return "NODMA"
	case uint64(v)&0x7 == 0x1:
		return "RREAD"
	case uint64(v)&0x7 == 0x2:
		return "RWRITE"
	case uint64(v)&0x7 == 0x3:
		return "SEND"
	case uint64(v)&0x7 == 0x0:
		return "IDLE"
	case uint64(v)&0x5 == 0x5:
		return "ABORTED"
	case uint64(v)&0x6 == 0x6:
		return "ABORTED2"
	}
	return fmt.Sprintf("RdVal(%#x)", uint64(v))
}

// Device provides typed access to the ne2000 functional interface.
type Device struct {
	bus           bus.Bus
	spans         *obs.Spans // host attribution stack, discovered from the bus
	portBase      uint32
	portDma       uint32
	portRst       uint32
	shadowCr      uint32 // last written value, for read-modify-write
	shadowMar0Reg uint32 // last written value, for read-modify-write
	shadowMar1Reg uint32 // last written value, for read-modify-write
	shadowMar2Reg uint32 // last written value, for read-modify-write
	shadowMar3Reg uint32 // last written value, for read-modify-write
	shadowMar4Reg uint32 // last written value, for read-modify-write
	shadowMar5Reg uint32 // last written value, for read-modify-write
	shadowMar6Reg uint32 // last written value, for read-modify-write
	shadowMar7Reg uint32 // last written value, for read-modify-write
	shadowPar0Reg uint32 // last written value, for read-modify-write
	shadowPar1Reg uint32 // last written value, for read-modify-write
	shadowPar2Reg uint32 // last written value, for read-modify-write
	shadowPar3Reg uint32 // last written value, for read-modify-write
	shadowPar4Reg uint32 // last written value, for read-modify-write
	shadowPar5Reg uint32 // last written value, for read-modify-write
	snapIsrR      uint32 // structure snapshot cache
	okCr          bool   // shadow is authoritative: redundant writes may be elided
	okMar0Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar1Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar2Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar3Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar4Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar5Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar6Reg     bool   // shadow is authoritative: redundant writes may be elided
	okMar7Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar0Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar1Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar2Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar3Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar4Reg     bool   // shadow is authoritative: redundant writes may be elided
	okPar5Reg     bool   // shadow is authoritative: redundant writes may be elided
	validIsr      bool
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, base uint32, dma uint32, rst uint32) *Device {
	d := &Device{bus: b, portBase: base, portDma: dma, portRst: rst}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// St reads the st device variable.
func (d *Device) St() StVal {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.st.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := (r0 & 0x3)
	if debug && (!(int64(raw) >= 0 && int64(raw) <= 3) || !(int64(raw)&0x3 == 0x0 || int64(raw)&0x3 == 0x1 || int64(raw)&0x3 == 0x2 || int64(raw)&0x3 == 0x3)) {
		panic("devil: st: device delivered a value outside {NEUTRAL, STOP, START, BOTH}")
	}
	return StVal(raw)
}

// SetSt writes the st device variable.
func (d *Device) SetSt(v StVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.st.set")()
	}
	raw := uint32(v) & 0x3
	if debug && (!(int64(v) >= 0 && int64(v) <= 3) || !(int64(v)&0x3 == 0x0 || int64(v)&0x3 == 0x1 || int64(v)&0x3 == 0x2)) {
		panic("devil: st: written value out of range for {NEUTRAL, STOP, START, BOTH}")
	}
	out := (raw & 0x3) | d.shadowCr&0xc0 | 0x20
	d.bus.Out8(d.portBase+0, uint8(out))
	d.shadowCr = out
	d.okCr = true
}

// Txp reads the txp device variable.
func (d *Device) Txp() TxpVal {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.txp.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := ((r0 >> 2) & 0x1)
	if debug && (!(int64(raw) >= 0 && int64(raw) <= 1) || !(int64(raw)&0x1 == 0x0 || int64(raw)&0x1 == 0x1)) {
		panic("devil: txp: device delivered a value outside {NOP, TRANSMIT}")
	}
	return TxpVal(raw)
}

// SetTxp writes the txp device variable.
func (d *Device) SetTxp(v TxpVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.txp.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x0 || int64(v)&0x1 == 0x1)) {
		panic("devil: txp: written value out of range for {NOP, TRANSMIT}")
	}
	out := (raw&0x1)<<2 | d.shadowCr&0xc0 | 0x20
	d.bus.Out8(d.portBase+0, uint8(out))
	d.shadowCr = out
	d.okCr = true
}

// Rd reads the rd device variable.
func (d *Device) Rd() RdVal {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rd.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := ((r0 >> 3) & 0x7)
	if debug && (!(int64(raw) >= 0 && int64(raw) <= 7) || !(int64(raw)&0x7 == 0x4 || int64(raw)&0x7 == 0x1 || int64(raw)&0x7 == 0x2 || int64(raw)&0x7 == 0x3 || int64(raw)&0x7 == 0x0 || int64(raw)&0x5 == 0x5 || int64(raw)&0x6 == 0x6)) {
		panic("devil: rd: device delivered a value outside {NODMA, RREAD, RWRITE, SEND, IDLE, ABORTED, ABORTED2}")
	}
	return RdVal(raw)
}

// SetRd writes the rd device variable.
func (d *Device) SetRd(v RdVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rd.set")()
	}
	raw := uint32(v) & 0x7
	if debug && (!(int64(v) >= 0 && int64(v) <= 7) || !(int64(v)&0x7 == 0x4 || int64(v)&0x7 == 0x1 || int64(v)&0x7 == 0x2 || int64(v)&0x7 == 0x3)) {
		panic("devil: rd: written value out of range for {NODMA, RREAD, RWRITE, SEND, IDLE, ABORTED, ABORTED2}")
	}
	out := (raw&0x7)<<3 | d.shadowCr&0xc0
	d.bus.Out8(d.portBase+0, uint8(out))
	d.shadowCr = out
	d.okCr = true
}

// page reads the page device variable.
func (d *Device) page() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.page.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 0))
	raw := ((r0 >> 6) & 0x3)
	return uint8(raw)
}

// setPage writes the page device variable.
func (d *Device) setPage(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.page.set")()
	}
	raw := uint32(v) & 0x3
	if debug && !(int64(v) >= 0 && int64(v) <= 3) {
		panic("devil: page: written value out of range for int(2)")
	}
	out := (raw&0x3)<<6 | 0x20
	if !(d.okCr && d.shadowCr == out) {
		d.bus.Out8(d.portBase+0, uint8(out))
		d.shadowCr = out
		d.okCr = true
	}
}

// SetPstart writes the pstart device variable.
func (d *Device) SetPstart(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.pstart.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: pstart: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+1, uint8(out))
}

// SetPstop writes the pstop device variable.
func (d *Device) SetPstop(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.pstop.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: pstop: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+2, uint8(out))
}

// Bnry reads the bnry device variable.
func (d *Device) Bnry() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.bnry.get")()
	}
	d.setPage(uint8(0x0))
	r0 := uint32(d.bus.In8(d.portBase + 3))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetBnry writes the bnry device variable.
func (d *Device) SetBnry(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.bnry.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: bnry: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+3, uint8(out))
}

// SetTpsr writes the tpsr device variable.
func (d *Device) SetTpsr(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.tpsr.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: tpsr: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+4, uint8(out))
}

// SetTbcr0 writes the tbcr0 device variable.
func (d *Device) SetTbcr0(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.tbcr0.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: tbcr0: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+5, uint8(out))
}

// SetTbcr1 writes the tbcr1 device variable.
func (d *Device) SetTbcr1(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.tbcr1.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: tbcr1: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+6, uint8(out))
}

// Prx returns the prx field from the last isr snapshot.
func (d *Device) Prx() bool {
	if debug && !d.validIsr {
		panic("devil: prx read before isr snapshot")
	}
	raw := (d.snapIsrR & 0x1)
	return raw != 0
}

// Ptx returns the ptx field from the last isr snapshot.
func (d *Device) Ptx() bool {
	if debug && !d.validIsr {
		panic("devil: ptx read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 1) & 0x1)
	return raw != 0
}

// Rxe returns the rxe field from the last isr snapshot.
func (d *Device) Rxe() bool {
	if debug && !d.validIsr {
		panic("devil: rxe read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 2) & 0x1)
	return raw != 0
}

// Txe returns the txe field from the last isr snapshot.
func (d *Device) Txe() bool {
	if debug && !d.validIsr {
		panic("devil: txe read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 3) & 0x1)
	return raw != 0
}

// Ovw returns the ovw field from the last isr snapshot.
func (d *Device) Ovw() bool {
	if debug && !d.validIsr {
		panic("devil: ovw read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 4) & 0x1)
	return raw != 0
}

// Cnt returns the cnt field from the last isr snapshot.
func (d *Device) Cnt() bool {
	if debug && !d.validIsr {
		panic("devil: cnt read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 5) & 0x1)
	return raw != 0
}

// Rdc returns the rdc field from the last isr snapshot.
func (d *Device) Rdc() bool {
	if debug && !d.validIsr {
		panic("devil: rdc read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 6) & 0x1)
	return raw != 0
}

// RstFlag returns the rst_flag field from the last isr snapshot.
func (d *Device) RstFlag() bool {
	if debug && !d.validIsr {
		panic("devil: rst_flag read before isr snapshot")
	}
	raw := ((d.snapIsrR >> 7) & 0x1)
	return raw != 0
}

// SetIsrAck writes the isr_ack device variable.
func (d *Device) SetIsrAck(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.isr_ack.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: isr_ack: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+7, uint8(out))
}

// SetRsar0 writes the rsar0 device variable.
func (d *Device) SetRsar0(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rsar0.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: rsar0: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+8, uint8(out))
}

// SetRsar1 writes the rsar1 device variable.
func (d *Device) SetRsar1(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rsar1.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: rsar1: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+9, uint8(out))
}

// SetRbcr0 writes the rbcr0 device variable.
func (d *Device) SetRbcr0(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rbcr0.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: rbcr0: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+10, uint8(out))
}

// SetRbcr1 writes the rbcr1 device variable.
func (d *Device) SetRbcr1(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rbcr1.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: rbcr1: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+11, uint8(out))
}

// SetRcrMode writes the rcr_mode device variable.
func (d *Device) SetRcrMode(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.rcr_mode.set")()
	}
	raw := uint32(v) & 0x1f
	if debug && !(int64(v) >= 0 && int64(v) <= 31) {
		panic("devil: rcr_mode: written value out of range for int(5)")
	}
	out := (raw & 0x1f)
	out = out&0x1f | 0x0
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+12, uint8(out))
}

// SetTcrMode writes the tcr_mode device variable.
func (d *Device) SetTcrMode(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.tcr_mode.set")()
	}
	raw := uint32(v) & 0x1f
	if debug && !(int64(v) >= 0 && int64(v) <= 31) {
		panic("devil: tcr_mode: written value out of range for int(5)")
	}
	out := (raw & 0x1f)
	out = out&0x1f | 0x0
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+13, uint8(out))
}

// SetDcrMode writes the dcr_mode device variable.
func (d *Device) SetDcrMode(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.dcr_mode.set")()
	}
	raw := uint32(v) & 0x3f
	if debug && !(int64(v) >= 0 && int64(v) <= 63) {
		panic("devil: dcr_mode: written value out of range for int(6)")
	}
	out := (raw & 0x3f)
	out = out&0x3f | 0x0
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+14, uint8(out))
}

// SetImrMask writes the imr_mask device variable.
func (d *Device) SetImrMask(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.imr_mask.set")()
	}
	raw := uint32(v) & 0x7f
	if debug && !(int64(v) >= 0 && int64(v) <= 127) {
		panic("devil: imr_mask: written value out of range for int(7)")
	}
	out := (raw & 0x7f)
	out = out&0x7f | 0x0
	d.setPage(uint8(0x0))
	d.bus.Out8(d.portBase+15, uint8(out))
}

// Par0 reads the par0 device variable.
func (d *Device) Par0() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par0.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar0 writes the par0 device variable.
func (d *Device) SetPar0(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par0.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par0: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar0Reg && d.shadowPar0Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+1, uint8(out))
		d.shadowPar0Reg = out
		d.okPar0Reg = true
	}
}

// Par1 reads the par1 device variable.
func (d *Device) Par1() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par1.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 2))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar1 writes the par1 device variable.
func (d *Device) SetPar1(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par1.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par1: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar1Reg && d.shadowPar1Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+2, uint8(out))
		d.shadowPar1Reg = out
		d.okPar1Reg = true
	}
}

// Par2 reads the par2 device variable.
func (d *Device) Par2() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par2.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 3))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar2 writes the par2 device variable.
func (d *Device) SetPar2(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par2.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par2: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar2Reg && d.shadowPar2Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+3, uint8(out))
		d.shadowPar2Reg = out
		d.okPar2Reg = true
	}
}

// Par3 reads the par3 device variable.
func (d *Device) Par3() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par3.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 4))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar3 writes the par3 device variable.
func (d *Device) SetPar3(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par3.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par3: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar3Reg && d.shadowPar3Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+4, uint8(out))
		d.shadowPar3Reg = out
		d.okPar3Reg = true
	}
}

// Par4 reads the par4 device variable.
func (d *Device) Par4() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par4.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 5))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar4 writes the par4 device variable.
func (d *Device) SetPar4(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par4.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par4: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar4Reg && d.shadowPar4Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+5, uint8(out))
		d.shadowPar4Reg = out
		d.okPar4Reg = true
	}
}

// Par5 reads the par5 device variable.
func (d *Device) Par5() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par5.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 6))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetPar5 writes the par5 device variable.
func (d *Device) SetPar5(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.par5.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: par5: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okPar5Reg && d.shadowPar5Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+6, uint8(out))
		d.shadowPar5Reg = out
		d.okPar5Reg = true
	}
}

// Curr reads the curr device variable.
func (d *Device) Curr() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.curr.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 7))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetCurr writes the curr device variable.
func (d *Device) SetCurr(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.curr.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: curr: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.setPage(uint8(0x1))
	d.bus.Out8(d.portBase+7, uint8(out))
}

// Mar0 reads the mar0 device variable.
func (d *Device) Mar0() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar0.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 8))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar0 writes the mar0 device variable.
func (d *Device) SetMar0(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar0.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar0: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar0Reg && d.shadowMar0Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+8, uint8(out))
		d.shadowMar0Reg = out
		d.okMar0Reg = true
	}
}

// Mar1 reads the mar1 device variable.
func (d *Device) Mar1() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar1.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 9))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar1 writes the mar1 device variable.
func (d *Device) SetMar1(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar1.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar1: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar1Reg && d.shadowMar1Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+9, uint8(out))
		d.shadowMar1Reg = out
		d.okMar1Reg = true
	}
}

// Mar2 reads the mar2 device variable.
func (d *Device) Mar2() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar2.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 10))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar2 writes the mar2 device variable.
func (d *Device) SetMar2(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar2.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar2: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar2Reg && d.shadowMar2Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+10, uint8(out))
		d.shadowMar2Reg = out
		d.okMar2Reg = true
	}
}

// Mar3 reads the mar3 device variable.
func (d *Device) Mar3() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar3.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 11))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar3 writes the mar3 device variable.
func (d *Device) SetMar3(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar3.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar3: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar3Reg && d.shadowMar3Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+11, uint8(out))
		d.shadowMar3Reg = out
		d.okMar3Reg = true
	}
}

// Mar4 reads the mar4 device variable.
func (d *Device) Mar4() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar4.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 12))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar4 writes the mar4 device variable.
func (d *Device) SetMar4(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar4.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar4: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar4Reg && d.shadowMar4Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+12, uint8(out))
		d.shadowMar4Reg = out
		d.okMar4Reg = true
	}
}

// Mar5 reads the mar5 device variable.
func (d *Device) Mar5() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar5.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 13))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar5 writes the mar5 device variable.
func (d *Device) SetMar5(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar5.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar5: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar5Reg && d.shadowMar5Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+13, uint8(out))
		d.shadowMar5Reg = out
		d.okMar5Reg = true
	}
}

// Mar6 reads the mar6 device variable.
func (d *Device) Mar6() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar6.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 14))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar6 writes the mar6 device variable.
func (d *Device) SetMar6(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar6.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar6: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar6Reg && d.shadowMar6Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+14, uint8(out))
		d.shadowMar6Reg = out
		d.okMar6Reg = true
	}
}

// Mar7 reads the mar7 device variable.
func (d *Device) Mar7() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar7.get")()
	}
	d.setPage(uint8(0x1))
	r0 := uint32(d.bus.In8(d.portBase + 15))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetMar7 writes the mar7 device variable.
func (d *Device) SetMar7(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.mar7.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: mar7: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	if !(d.okMar7Reg && d.shadowMar7Reg == out) {
		d.setPage(uint8(0x1))
		d.bus.Out8(d.portBase+15, uint8(out))
		d.shadowMar7Reg = out
		d.okMar7Reg = true
	}
}

// RemoteData reads the remote_data device variable.
func (d *Device) RemoteData() uint16 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.remote_data.get")()
	}
	r0 := uint32(d.bus.In16(d.portDma + 0))
	raw := (r0 & 0xffff)
	return uint16(raw)
}

// SetRemoteData writes the remote_data device variable.
func (d *Device) SetRemoteData(v uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.remote_data.set")()
	}
	raw := uint32(v) & 0xffff
	if debug && !(int64(v) >= 0 && int64(v) <= 65535) {
		panic("devil: remote_data: written value out of range for int(16)")
	}
	out := (raw & 0xffff)
	d.bus.Out16(d.portDma+0, uint16(out))
}

// ReadRemoteDataBlock reads len(buf) values with one block operation
// (the rep-ins equivalent).
func (d *Device) ReadRemoteDataBlock(buf []uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.remote_data.blockin")()
	}
	d.bus.InBlock16(d.portDma+0, buf)
}

// WriteRemoteDataBlock writes len(buf) values with one block operation
// (the rep-outs equivalent).
func (d *Device) WriteRemoteDataBlock(buf []uint16) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.remote_data.blockout")()
	}
	d.bus.OutBlock16(d.portDma+0, buf)
}

// ResetPulse reads the reset_pulse device variable.
func (d *Device) ResetPulse() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.reset_pulse.get")()
	}
	r0 := uint32(d.bus.In8(d.portRst + 0))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetResetPulse writes the reset_pulse device variable.
func (d *Device) SetResetPulse(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.reset_pulse.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: reset_pulse: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.bus.Out8(d.portRst+0, uint8(out))
}

// ReadIsr reads the registers of isr once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadIsr() {
	if d.spans.Enabled() {
		defer d.spans.Span("ne2000.isr.read")()
	}
	d.setPage(uint8(0x0))
	d.snapIsrR = uint32(d.bus.In8(d.portBase + 7))
	d.validIsr = true
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "ne2000")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "ne2000")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.shadowCr)
	c.U32(&d.shadowPar0Reg)
	c.U32(&d.shadowPar1Reg)
	c.U32(&d.shadowPar2Reg)
	c.U32(&d.shadowPar3Reg)
	c.U32(&d.shadowPar4Reg)
	c.U32(&d.shadowPar5Reg)
	c.U32(&d.shadowMar0Reg)
	c.U32(&d.shadowMar1Reg)
	c.U32(&d.shadowMar2Reg)
	c.U32(&d.shadowMar3Reg)
	c.U32(&d.shadowMar4Reg)
	c.U32(&d.shadowMar5Reg)
	c.U32(&d.shadowMar6Reg)
	c.U32(&d.shadowMar7Reg)
	c.Bool(&d.okCr)
	c.Bool(&d.okPar0Reg)
	c.Bool(&d.okPar1Reg)
	c.Bool(&d.okPar2Reg)
	c.Bool(&d.okPar3Reg)
	c.Bool(&d.okPar4Reg)
	c.Bool(&d.okPar5Reg)
	c.Bool(&d.okMar0Reg)
	c.Bool(&d.okMar1Reg)
	c.Bool(&d.okMar2Reg)
	c.Bool(&d.okMar3Reg)
	c.Bool(&d.okMar4Reg)
	c.Bool(&d.okMar5Reg)
	c.Bool(&d.okMar6Reg)
	c.Bool(&d.okMar7Reg)
	c.U32(&d.snapIsrR)
	c.Bool(&d.validIsr)
}
