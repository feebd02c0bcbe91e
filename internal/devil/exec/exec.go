// Package exec links a resolved Devil specification to a bus and executes
// variable accesses interpretively.
//
// It runs the access plans of package ir — the same plans package codegen
// prints as Go stubs — so the two back ends share one statement of Devil
// access semantics: register composition with forced mask bits, trigger
// neutrals and register shadows for co-tenant variables, pre/post/set
// actions (including the recursive case where establishing a register's
// context writes another device variable), serialization orders with
// guards, structure snapshot reads, staged structure flushes, private
// memory cells, parameterized register families, block transfers, and the
// optimizer's elision guards.
//
// The interpreter's driver state is the canonical ir.StateLayout, slot for
// slot the fields of a generated stub: memory cells, flush caches,
// register shadows and elision flags, structure snapshots and their
// validity, staged fields and staged flags.
//
// Where a debug stub panics, the interpreter returns an error. Debug mode
// adds the §3.2 write checks (written values are verified against the
// variable type); ReadCheck verifies values read from the device against
// the specification.
package exec

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
	"repro/internal/obs"
)

// Options configures a linked device.
type Options struct {
	// Debug enables write-range checks, as generated by the compiler in
	// debug mode.
	Debug bool
	// ReadCheck additionally verifies values read from the device against
	// the specification (§3.2: "run-time checks can optionally be generated
	// after variable reads").
	ReadCheck bool
	// Opt selects the optimization level of the interpreted plans, as the
	// code generator's does for the compiled ones, so the two back ends
	// stay trace-identical at every level. The zero value is ir.O1, the
	// default level.
	Opt ir.OptLevel
}

// Device is a specification linked to a bus at concrete base addresses.
type Device struct {
	Spec  *sema.Device
	bus   bus.Bus
	opts  Options
	spans *obs.Spans // host attribution stack, discovered from the bus

	prog *ir.Program
	base []uint32 // port base addresses, by sema port Index
	st   state
}

// state holds the slots of the canonical ir.StateLayout, indexed by the
// sema Index of their variable, register or structure. Slots the layout
// does not list stay zero and are never read.
type state struct {
	cell, vc, fld []uint32 // by variable
	stg           []bool   // by variable
	shadow, snap  []uint32 // by register
	ok            []bool   // by register
	valid         []bool   // by structure
}

func newState(spec *sema.Device) state {
	nv, nr := len(spec.Variables), len(spec.Registers)
	return state{
		cell: make([]uint32, nv), vc: make([]uint32, nv), fld: make([]uint32, nv),
		stg:    make([]bool, nv),
		shadow: make([]uint32, nr), snap: make([]uint32, nr),
		ok:    make([]bool, nr),
		valid: make([]bool, len(spec.Structures)),
	}
}

// Link binds spec to b. bases maps every port parameter name to its
// absolute address on the bus. The specification is lowered to its access
// plans here, so shapes no back end implements are rejected at link time.
func Link(spec *sema.Device, b bus.Bus, bases map[string]uint32, opts Options) (*Device, error) {
	prog, err := ir.Lower(spec, opts.Opt)
	if err != nil {
		return nil, fmt.Errorf("devil: %w", err)
	}
	d := &Device{
		Spec: spec,
		bus:  b,
		opts: opts,
		prog: prog,
		base: make([]uint32, len(spec.Ports)),
		st:   newState(spec),
	}
	if sp, ok := b.(obs.Spanner); ok {
		d.spans = sp.Spans()
	}
	for _, p := range spec.Ports {
		addr, ok := bases[p.Name]
		if !ok {
			return nil, fmt.Errorf("devil: no base address for port %s", p.Name)
		}
		d.base[p.Index] = addr
	}
	for name := range bases {
		if spec.Port(name) == nil {
			return nil, fmt.Errorf("devil: device %s has no port %s", spec.Name, name)
		}
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Public accessors

// Get reads a device variable and returns its semantic value. Structure
// fields are decoded from the structure's snapshot (read the structure
// first); memory cells from their storage.
func (d *Device) Get(name string) (int64, error) { return d.get(name, 0, false) }

// GetParam reads a parameterized variable at the given register-family
// argument.
func (d *Device) GetParam(name string, arg int) (int64, error) { return d.get(name, arg, true) }

func (d *Device) get(name string, arg int, withArg bool) (int64, error) {
	v, err := d.public(name, arg, withArg)
	if err != nil {
		return 0, err
	}
	if v.Cell {
		return v.Type.Decode(uint64(d.st.cell[v.Index])), nil
	}
	if !v.Readable {
		return 0, fmt.Errorf("devil: variable %s is not readable", name)
	}
	p := d.prog.Vars[v.Index].Get
	if v.Struct != nil && (p == nil || !d.st.valid[v.Struct.Index]) {
		return 0, fmt.Errorf("devil: structure %s has not been read; call ReadStruct first", v.Struct.Name)
	}
	raw, err := d.run(p, frame{arg: arg})
	if err != nil {
		return 0, err
	}
	return v.Type.Decode(uint64(raw)), nil
}

// GetSym reads an enumerated variable and returns the matching symbol name.
func (d *Device) GetSym(name string) (string, error) {
	v := d.Spec.Variable(name)
	if v == nil {
		return "", fmt.Errorf("devil: unknown variable %s", name)
	}
	if v.Type.Kind != sema.TypeEnum {
		return "", fmt.Errorf("devil: variable %s is not enumerated", name)
	}
	val, err := d.Get(name)
	if err != nil {
		return "", err
	}
	sym, ok := v.Type.SymbolFor(uint64(val))
	if !ok {
		return "", fmt.Errorf("devil: value %#x of %s matches no readable symbol", val, name)
	}
	return sym.Name, nil
}

// Set writes a device variable. Fields of a structure are staged for
// WriteStruct; plain variables run their write plan immediately; memory
// cells are stored.
func (d *Device) Set(name string, value int64) error { return d.set(name, value, 0, false) }

// SetParam writes a parameterized variable at the given register-family
// argument.
func (d *Device) SetParam(name string, arg int, value int64) error {
	return d.set(name, value, arg, true)
}

// SetSym writes an enumerated variable by symbol name.
func (d *Device) SetSym(name, symbol string) error {
	v := d.Spec.Variable(name)
	if v == nil {
		return fmt.Errorf("devil: unknown variable %s", name)
	}
	sym, ok := v.Type.Symbol(symbol)
	if !ok {
		return fmt.Errorf("devil: %s has no symbol %s", name, symbol)
	}
	if !sym.Writable() {
		return fmt.Errorf("devil: symbol %s of %s is read-only", symbol, name)
	}
	return d.Set(name, int64(sym.Value))
}

func (d *Device) set(name string, value int64, arg int, withArg bool) error {
	v, err := d.public(name, arg, withArg)
	if err != nil {
		return err
	}
	raw, err := d.encode(v, value)
	if err != nil {
		return err
	}
	if v.Cell {
		d.st.cell[v.Index] = raw
		return nil
	}
	if !v.Writable {
		return fmt.Errorf("devil: variable %s is not writable", name)
	}
	p := d.prog.Vars[v.Index].Set
	if p == nil {
		return fmt.Errorf("devil: structure %s of %s is not writable", v.Struct.Name, name)
	}
	_, err = d.run(p, frame{raw: raw, arg: arg})
	return err
}

// ReadStruct reads all registers of the structure once, in serialization
// order, and refreshes the snapshot the field getters decode.
func (d *Device) ReadStruct(name string) error {
	s := d.Spec.Structure(name)
	if s == nil {
		return fmt.Errorf("devil: unknown structure %s", name)
	}
	p := d.prog.Structs[s.Index].Read
	if p == nil {
		return fmt.Errorf("devil: structure %s is not readable", name)
	}
	_, err := d.run(p, frame{})
	return err
}

// WriteStruct flushes the staged field values of the structure to the
// device, in serialization order, honouring guards (the 8259A pattern).
func (d *Device) WriteStruct(name string) error {
	s := d.Spec.Structure(name)
	if s == nil {
		return fmt.Errorf("devil: unknown structure %s", name)
	}
	p := d.prog.Structs[s.Index].Write
	if p == nil {
		return fmt.Errorf("devil: structure %s is not writable", name)
	}
	_, err := d.run(p, frame{})
	return err
}

// Peek returns the stored value of a variable — memory cells, including
// private ones, flush caches and staged structure fields — without
// touching the device. It exists for diagnosis and testing; ok is false
// when the variable is unknown or the driver state holds no value for it.
func (d *Device) Peek(name string) (value int64, ok bool) {
	v := d.Spec.Variable(name)
	if v == nil {
		return 0, false
	}
	if s := ir.SlotOf(v); s == ir.SlotNone || s == ir.SlotCache && !d.prog.Layout.VCachedSet[v] {
		return 0, false
	}
	return v.Type.Decode(uint64(d.stored(v))), true
}

// Interface returns the names of the public device variables.
func (d *Device) Interface() []string {
	var names []string
	for _, v := range d.Spec.Interface() {
		names = append(names, v.Name)
	}
	return names
}

// ---------------------------------------------------------------------------
// Block transfers

// ReadBlock16 performs a block read of a 16-bit block variable, one bus
// block operation after the register's context is established.
func (d *Device) ReadBlock16(name string, buf []uint16) error {
	return d.block(name, 16, true, frame{buf16: buf})
}

// WriteBlock16 performs a block write of a 16-bit block variable.
func (d *Device) WriteBlock16(name string, buf []uint16) error {
	return d.block(name, 16, false, frame{buf16: buf})
}

// ReadBlock32 performs a block read of a 32-bit block variable.
func (d *Device) ReadBlock32(name string, buf []uint32) error {
	return d.block(name, 32, true, frame{buf32: buf})
}

// WriteBlock32 performs a block write of a 32-bit block variable.
func (d *Device) WriteBlock32(name string, buf []uint32) error {
	return d.block(name, 32, false, frame{buf32: buf})
}

func (d *Device) block(name string, width int, read bool, f frame) error {
	v := d.Spec.Variable(name)
	if v == nil {
		return fmt.Errorf("devil: unknown variable %s", name)
	}
	if !v.Block {
		return fmt.Errorf("devil: variable %s has no block attribute", name)
	}
	if v.Width != width {
		return fmt.Errorf("devil: block variable %s is %d bits wide, not %d", name, v.Width, width)
	}
	p, dir := d.prog.Vars[v.Index].BlockOut, "writable"
	if read {
		p, dir = d.prog.Vars[v.Index].BlockIn, "readable"
	}
	if p == nil {
		return fmt.Errorf("devil: variable %s is not %s", name, dir)
	}
	_, err := d.run(p, f)
	return err
}

// ---------------------------------------------------------------------------
// Plumbing

// public resolves a variable of the device interface and checks its
// register-family argument.
func (d *Device) public(name string, arg int, withArg bool) (*sema.Variable, error) {
	v := d.Spec.Variable(name)
	if v == nil {
		return nil, fmt.Errorf("devil: unknown variable %s", name)
	}
	if v.Private {
		return nil, fmt.Errorf("devil: variable %s is private and not part of the device interface", name)
	}
	if v.Param == "" {
		if withArg {
			return nil, fmt.Errorf("devil: variable %s is not parameterized", v.Name)
		}
		return v, nil
	}
	if !withArg {
		return nil, fmt.Errorf("devil: variable %s needs a register-family argument", v.Name)
	}
	if v.Domain != nil && !v.Domain.Contains(arg) {
		return nil, fmt.Errorf("devil: argument %d outside the domain %s of %s", arg, v.Domain, v.Name)
	}
	return v, nil
}

// encode converts a semantic value to raw bits, applying the §3.2 write
// check in debug mode and plain truncation otherwise.
func (d *Device) encode(v *sema.Variable, value int64) (uint32, error) {
	if d.opts.Debug {
		raw, err := v.Type.Encode(value)
		if err != nil {
			return 0, fmt.Errorf("devil: write check on %s: %w", v.Name, err)
		}
		return uint32(raw), nil
	}
	if v.Type.Bits < 32 {
		return uint32(value) & (1<<uint(v.Type.Bits) - 1), nil
	}
	return uint32(value), nil
}

// narrow converts an action value the way a generated setter call does:
// booleans test non-zero, everything else truncates to the variable's
// width.
func narrow(v *sema.Variable, val uint32) uint32 {
	switch {
	case v.Type.Kind == sema.TypeBool:
		if val != 0 {
			return 1
		}
		return 0
	case v.Type.Bits < 32:
		return val & (1<<uint(v.Type.Bits) - 1)
	}
	return val
}

// ---------------------------------------------------------------------------
// The plan interpreter

// frame is the scope of one running plan: the raw value being written (or
// gathered by a read), the register-family argument, the register value
// being composed, and the caller's block buffer.
type frame struct {
	raw, out uint32
	arg      int
	buf16    []uint16
	buf32    []uint32
}

// run interprets one plan under its span and returns the frame's raw value
// (the gathered value of a read).
func (d *Device) run(p *ir.Plan, f frame) (uint32, error) {
	if p.Spanned() && d.spans.Enabled() {
		defer d.spans.Span(p.Span(d.Spec.Name))()
	}
	err := d.steps(p, p.Steps, &f)
	return f.raw, err
}

func (d *Device) steps(p *ir.Plan, steps []ir.Step, f *frame) error {
	for i := range steps {
		s := &steps[i]
		switch s.Kind {
		case ir.SCompose:
			f.out = d.compose(s, f)
		case ir.SAccum:
			f.out = uint32(s.Or) | d.compose(s, f)
		case ir.SMask:
			f.out = f.out&uint32(s.And) | uint32(s.Or)
		case ir.SCtxCall, ir.SAction:
			if err := d.action(s.Act, s.Var, f); err != nil {
				return err
			}
		case ir.SWrite:
			d.out(s.Reg.Write, f.out)
		case ir.SRead:
			// A read plan's actions never see raw, so the gathered value
			// accumulates as the registers are read.
			f.raw |= uint32(ir.ExtractValue(s.Reg, p.Var, uint64(d.in(s.Reg.Read))))
		case ir.SDecode:
			f.raw = 0
			for _, ch := range s.Var.Chunks {
				f.raw |= uint32(ir.ExtractValue(ch.Reg, s.Var, uint64(d.st.snap[ch.Reg.Index])))
			}
			fallthrough
		case ir.SGather:
			if d.opts.ReadCheck {
				if err := s.Var.Type.CheckRead(uint64(f.raw)); err != nil {
					return fmt.Errorf("devil: read check on %s: %w", s.Var.Name, err)
				}
			}
		case ir.SSnap:
			d.st.snap[s.Reg.Index] = d.in(s.Reg.Read)
		case ir.SValid:
			d.st.valid[p.Struct.Index] = true
		case ir.SVCache:
			d.st.vc[s.Var.Index] = f.raw
		case ir.SStage:
			d.st.fld[s.Var.Index] = f.raw
			if s.Var.Trigger != nil {
				d.st.stg[s.Var.Index] = true
			}
		case ir.SUnstage:
			d.st.stg[s.Var.Index] = false
		case ir.SShadow:
			d.st.shadow[s.Reg.Index] = f.out
		case ir.SOkFlag:
			d.st.ok[s.Reg.Index] = true
		case ir.SBlockIn:
			if addr := d.addr(s.Reg.Read); s.Var.Width > 16 {
				d.bus.InBlock32(addr, f.buf32)
			} else {
				d.bus.InBlock16(addr, f.buf16)
			}
		case ir.SBlockOut:
			if addr := d.addr(s.Reg.Write); s.Var.Width > 16 {
				d.bus.OutBlock32(addr, f.buf32)
			} else {
				d.bus.OutBlock16(addr, f.buf16)
			}
		case ir.SGuard:
			if !d.elided(s.Elide, f.out) {
				if err := d.steps(p, s.Body, f); err != nil {
					return err
				}
			}
		case ir.SIf:
			if d.holds(s.Cond) {
				if err := d.steps(p, s.Body, f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// compose evaluates a composition step's terms.
func (d *Device) compose(s *ir.Step, f *frame) uint32 {
	var out uint32
	for _, t := range s.Expr.Terms {
		switch t.Kind {
		case ir.TConst:
			out |= uint32(t.Const)
		case ir.TRaw:
			out |= uint32(ir.PlaceValue(s.Reg, t.Var, uint64(f.raw)))
		case ir.TShadow:
			out |= d.st.shadow[s.Reg.Index] & uint32(t.Mask)
		case ir.TVar:
			out |= uint32(ir.PlaceValue(s.Reg, t.Var, uint64(d.stored(t.Var))))
		case ir.TStaged:
			if d.st.stg[t.Var.Index] {
				out |= uint32(ir.PlaceValue(s.Reg, t.Var, uint64(d.st.fld[t.Var.Index])))
			} else {
				out |= uint32(t.Const)
			}
		}
	}
	return out
}

// action runs one action; cur is the variable whose raw value is in scope.
func (d *Device) action(a *sema.Action, cur *sema.Variable, f *frame) error {
	if a.TargetStruct != nil {
		for _, fv := range a.Value.Fields {
			val := d.value(fv.Value, cur, f)
			if fv.Var.Cell {
				d.st.cell[fv.Var.Index] = val
			} else if err := d.assign(fv.Var, val, f.arg); err != nil {
				return err
			}
		}
		p := d.prog.Structs[a.TargetStruct.Index].Write
		if p == nil {
			return fmt.Errorf("devil: action flushes structure %s, which is not writable", a.TargetStruct.Name)
		}
		_, err := d.run(p, frame{})
		return err
	}
	val := d.value(a.Value, cur, f)
	if a.TargetVar.Cell {
		d.st.cell[a.TargetVar.Index] = val
		return nil
	}
	return d.assign(a.TargetVar, val, f.arg)
}

// assign writes an action value through the target variable's set plan,
// converted the way a generated setter call converts it.
func (d *Device) assign(v *sema.Variable, val uint32, arg int) error {
	p := d.prog.Vars[v.Index].Set
	if p == nil {
		return fmt.Errorf("devil: action writes %s, which is not writable", v.Name)
	}
	_, err := d.run(p, frame{raw: narrow(v, val), arg: arg})
	return err
}

// value evaluates an action value; the lowering has rejected every kind
// it does not handle.
func (d *Device) value(v sema.Value, cur *sema.Variable, f *frame) uint32 {
	switch v.Kind {
	case sema.ValConst:
		return uint32(v.Const)
	case sema.ValParamRef:
		return uint32(f.arg)
	case sema.ValVarRef:
		if v.Var == cur {
			return f.raw
		}
		return d.stored(v.Var)
	}
	return 0
}

// stored returns the value of v's state slot.
func (d *Device) stored(v *sema.Variable) uint32 {
	switch ir.SlotOf(v) {
	case ir.SlotCell:
		return d.st.cell[v.Index]
	case ir.SlotField:
		return d.st.fld[v.Index]
	case ir.SlotCache:
		return d.st.vc[v.Index]
	}
	return 0
}

// elided evaluates an elision guard against the composed value.
func (d *Device) elided(el *ir.Elision, out uint32) bool {
	r := el.Reg.Index
	if !d.st.ok[r] || d.st.shadow[r] != out {
		return false
	}
	for _, c := range el.Cells {
		if d.st.cell[c.Cell.Index] != uint32(c.Val) {
			return false
		}
	}
	return true
}

// holds evaluates a serialization guard.
func (d *Device) holds(g *sema.Guard) bool {
	return (d.stored(g.Var) == uint32(g.Value)) != g.Neg
}

func (d *Device) addr(u *sema.PortUse) uint32 { return d.base[u.Port.Index] + uint32(u.Offset) }

func (d *Device) in(u *sema.PortUse) uint32 {
	switch addr := d.addr(u); u.Port.Width {
	case 8:
		return uint32(d.bus.In8(addr))
	case 16:
		return uint32(d.bus.In16(addr))
	default:
		return d.bus.In32(addr)
	}
}

func (d *Device) out(u *sema.PortUse, v uint32) {
	switch addr := d.addr(u); u.Port.Width {
	case 8:
		d.bus.Out8(addr, uint8(v))
	case 16:
		d.bus.Out16(addr, uint16(v))
	default:
		d.bus.Out32(addr, v)
	}
}
