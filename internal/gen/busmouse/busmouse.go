// Code generated by devilc from the Devil specification of logitech_busmouse. DO NOT EDIT.

// Package busmouse provides compiled Devil stubs for the logitech_busmouse controller.
package busmouse

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/snap"
)

// debug enables the specification-derived runtime checks (§3.2).
const debug = false

// ConfigVal is the enumerated type of the config variable.
type ConfigVal uint8

// Symbols of ConfigVal.
const (
	ConfigCONFIGURATION ConfigVal = 0x1
	ConfigDEFAULTMODE   ConfigVal = 0x0
)

// String names the symbol matching the value, wildcards included.
func (v ConfigVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x1:
		return "CONFIGURATION"
	case uint64(v)&0x1 == 0x0:
		return "DEFAULT_MODE"
	}
	return fmt.Sprintf("ConfigVal(%#x)", uint64(v))
}

// InterruptVal is the enumerated type of the interrupt variable.
type InterruptVal uint8

// Symbols of InterruptVal.
const (
	InterruptENABLE  InterruptVal = 0x0
	InterruptDISABLE InterruptVal = 0x1
)

// String names the symbol matching the value, wildcards included.
func (v InterruptVal) String() string {
	switch {
	case uint64(v)&0x1 == 0x0:
		return "ENABLE"
	case uint64(v)&0x1 == 0x1:
		return "DISABLE"
	}
	return fmt.Sprintf("InterruptVal(%#x)", uint64(v))
}

// Device provides typed access to the logitech_busmouse functional interface.
type Device struct {
	bus             bus.Bus
	spans           *obs.Spans // host attribution stack, discovered from the bus
	portBase        uint32
	snapXHigh       uint32 // structure snapshot cache
	snapXLow        uint32 // structure snapshot cache
	snapYHigh       uint32 // structure snapshot cache
	snapYLow        uint32 // structure snapshot cache
	validMouseState bool
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

// Signature reads the signature device variable.
func (d *Device) Signature() uint8 {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.signature.get")()
	}
	r0 := uint32(d.bus.In8(d.portBase + 1))
	raw := (r0 & 0xff)
	return uint8(raw)
}

// SetSignature writes the signature device variable.
func (d *Device) SetSignature(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.signature.set")()
	}
	raw := uint32(v) & 0xff
	if debug && !(int64(v) >= 0 && int64(v) <= 255) {
		panic("devil: signature: written value out of range for int(8)")
	}
	out := (raw & 0xff)
	d.bus.Out8(d.portBase+1, uint8(out))
}

// SetConfig writes the config device variable.
func (d *Device) SetConfig(v ConfigVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.config.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x1 || int64(v)&0x1 == 0x0)) {
		panic("devil: config: written value out of range for {CONFIGURATION, DEFAULT_MODE}")
	}
	out := (raw & 0x1)
	out = out&0x1 | 0x90
	d.bus.Out8(d.portBase+3, uint8(out))
}

// SetInterrupt writes the interrupt device variable.
func (d *Device) SetInterrupt(v InterruptVal) {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.interrupt.set")()
	}
	raw := uint32(v) & 0x1
	if debug && (!(int64(v) >= 0 && int64(v) <= 1) || !(int64(v)&0x1 == 0x0 || int64(v)&0x1 == 0x1)) {
		panic("devil: interrupt: written value out of range for {ENABLE, DISABLE}")
	}
	out := (raw & 0x1) << 4
	out = out&0x10 | 0x0
	d.bus.Out8(d.portBase+2, uint8(out))
}

// setIndex writes the index device variable.
func (d *Device) setIndex(v uint8) {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.index.set")()
	}
	raw := uint32(v) & 0x3
	if debug && !(int64(v) >= 0 && int64(v) <= 3) {
		panic("devil: index: written value out of range for int(2)")
	}
	out := (raw & 0x3) << 5
	out = out&0x60 | 0x80
	d.bus.Out8(d.portBase+2, uint8(out))
}

// Dx returns the dx field from the last mouse_state snapshot.
func (d *Device) Dx() int8 {
	if debug && !d.validMouseState {
		panic("devil: dx read before mouse_state snapshot")
	}
	raw := (d.snapXHigh&0xf)<<4 | (d.snapXLow & 0xf)
	return int8(raw)
}

// Dy returns the dy field from the last mouse_state snapshot.
func (d *Device) Dy() int8 {
	if debug && !d.validMouseState {
		panic("devil: dy read before mouse_state snapshot")
	}
	raw := (d.snapYHigh&0xf)<<4 | (d.snapYLow & 0xf)
	return int8(raw)
}

// Buttons returns the buttons field from the last mouse_state snapshot.
func (d *Device) Buttons() uint8 {
	if debug && !d.validMouseState {
		panic("devil: buttons read before mouse_state snapshot")
	}
	raw := ((d.snapYHigh >> 5) & 0x7)
	return uint8(raw)
}

// ReadMouseState reads the registers of mouse_state once, refreshing the snapshot the
// field getters decode.
func (d *Device) ReadMouseState() {
	if d.spans.Enabled() {
		defer d.spans.Span("logitech_busmouse.mouse_state.read")()
	}
	d.setIndex(uint8(0x1))
	d.snapXHigh = uint32(d.bus.In8(d.portBase + 0))
	d.setIndex(uint8(0x0))
	d.snapXLow = uint32(d.bus.In8(d.portBase + 0))
	d.setIndex(uint8(0x3))
	d.snapYHigh = uint32(d.bus.In8(d.portBase + 0))
	d.setIndex(uint8(0x2))
	d.snapYLow = uint32(d.bus.In8(d.portBase + 0))
	d.validMouseState = true
}

// MarshalState appends the stub's spec-derived driver state — memory
// cells, structure-flush caches, register shadows, elision flags,
// structure snapshots, and staged fields — as one snap blob. The
// layout is the canonical ir.StateLayout order, shared with the exec
// interpreter, so cross-path snapshots compare byte for byte.
func (d *Device) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "logitech_busmouse")
	d.snapState(&c)
	return c.Finish()
}

// UnmarshalState restores the state appended by MarshalState. A blob
// for another device, another optimization level, or a corrupted or
// truncated input is rejected with an error; the method never panics.
func (d *Device) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "logitech_busmouse")
	if err != nil {
		return err
	}
	d.snapState(&c)
	return c.Close()
}

// snapState walks the snapshot slots in wire order, for both
// MarshalState and UnmarshalState.
func (d *Device) snapState(c *snap.Codec) {
	c.U32(&d.snapXLow)
	c.U32(&d.snapXHigh)
	c.U32(&d.snapYLow)
	c.U32(&d.snapYHigh)
	c.Bool(&d.validMouseState)
}
