// Code generated by devilc from the Devil specification of piix4_busmaster. DO NOT EDIT.

// Package piix4 provides compiled Devil stubs for the piix4_busmaster controller.
package piix4

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

// BmDirVal is the enumerated type of the bm_dir variable.
type BmDirVal uint8

// Symbols of BmDirVal.
const (
	BmDirBMREAD  BmDirVal = 0x1
	BmDirBMWRITE BmDirVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v BmDirVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "BM_READ"
	case uint64(v)&0x1 == 0x0:
		return "BM_WRITE"
	}
	return fmt.Sprintf("BmDirVal(%#x)", uint64(v))
}

// BmStartVal is the enumerated type of the bm_start variable.
type BmStartVal uint8

// Symbols of BmStartVal.
const (
	BmStartSTART BmStartVal = 0x1
	BmStartSTOP  BmStartVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v BmStartVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "START"
	case uint64(v)&0x1 == 0x0:
		return "STOP"
	}
	return fmt.Sprintf("BmStartVal(%#x)", uint64(v))
}

// Device provides typed access to the piix4_busmaster functional interface.
type Device struct {
	bus           bus.Bus
	spans         *obs.Spans // host attribution stack, discovered from the bus
	portBm        uint32
	portPrd       uint32
	shadowBmic    uint32 // last written value, for read-modify-write
	snapBmisR     uint32 // structure snapshot cache
	validBmStatus bool
}

// New binds the stubs to a bus at the given port base addresses.
// When the bus carries a host attribution stack (obs.Spanner, as
// *bus.Space does) the stubs annotate it; otherwise spans stay off.
func New(b bus.Bus, bm uint32, prd uint32) *Device {
	d := &Device{bus: b, portBm: bm, portPrd: prd}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	return d
}

// SetBmDir writes the bm_dir device variable.
func (d *Device) SetBmDir(v BmDirVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.bm_dir.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: bm_dir: written value out of range for {BM_READ, BM_WRITE}")
	}
	out := (raw&0x1)<<3 | d.shadowBmic&0x1
	out = out&0x9 | 0x0
	d.bus.Out8(d.portBm+0, uint8(out))
	d.shadowBmic = out
}

// SetBmStart writes the bm_start device variable.
func (d *Device) SetBmStart(v BmStartVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.bm_start.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: bm_start: written value out of range for {START, STOP}")
	}
	out := (raw & 0x1) | d.shadowBmic&0x8
	out = out&0x9 | 0x0
	d.bus.Out8(d.portBm+0, uint8(out))
	d.shadowBmic = out
}

// BmIrq returns the bm_irq field from the last bm_status snapshot.
func (d *Device) BmIrq() bool {
	if debug && !d.validBmStatus {
		panic("devil: bm_irq read before bm_status snapshot")
	}
	raw := ((d.snapBmisR >> 2) & 0x1)
	return raw != 0
}

// BmErr returns the bm_err field from the last bm_status snapshot.
func (d *Device) BmErr() bool {
	if debug && !d.validBmStatus {
		panic("devil: bm_err read before bm_status snapshot")
	}
	raw := ((d.snapBmisR >> 1) & 0x1)
	return raw != 0
}

// BmActive returns the bm_active field from the last bm_status snapshot.
func (d *Device) BmActive() bool {
	if debug && !d.validBmStatus {
		panic("devil: bm_active read before bm_status snapshot")
	}
	raw := (d.snapBmisR & 0x1)
	return raw != 0
}

// SetBmAckIrq writes the bm_ack_irq device variable.
func (d *Device) SetBmAckIrq(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.bm_ack_irq.set")()
	}
	raw := b32(v)
	out := (raw & 0x1) << 2
	out = out&0x6 | 0x0
	d.bus.Out8(d.portBm+2, uint8(out))
}

// SetBmAckErr writes the bm_ack_err device variable.
func (d *Device) SetBmAckErr(v bool) {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.bm_ack_err.set")()
	}
	raw := b32(v)
	out := (raw & 0x1) << 1
	out = out&0x6 | 0x0
	d.bus.Out8(d.portBm+2, uint8(out))
}

// SetPrdAddr writes the prd_addr device variable.
func (d *Device) SetPrdAddr(v uint32) {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.prd_addr.set")()
	}
	raw := uint32(v)
	out := (raw & 0xffffffff)
	d.bus.Out32(d.portPrd+0, uint32(out))
}

// ReadBmStatus reads the registers of bm_status once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadBmStatus() {
	if d.spans.Enabled() {
		defer d.spans.Span("piix4_busmaster.bm_status.read")()
	}
	d.snapBmisR = uint32(d.bus.In8(d.portBm + 2))
	d.validBmStatus = true
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "piix4_busmaster")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "piix4_busmaster")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.shadowBmic)
	c.U32(&d.snapBmisR)
	c.Bool(&d.validBmStatus)
}
