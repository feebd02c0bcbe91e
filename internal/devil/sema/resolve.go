package sema

import (
	"repro/internal/devil/ast"
	"repro/internal/devil/diag"
	"repro/internal/devil/token"
)

// Resolve builds the resolved model for a parsed device and runs all
// consistency checks. The returned list contains every diagnostic in
// source order; the model is usable only when the list is empty.
func Resolve(dev *ast.Device) (*Device, diag.List) {
	r := &resolver{
		dev: &Device{
			Name:    dev.Name,
			AST:     dev,
			ports:   map[string]*Port{},
			regs:    map[string]*Register{},
			vars:    map[string]*Variable{},
			structs: map[string]*Structure{},
		},
	}
	r.collect(dev)
	r.resolveRegisters(dev)
	r.resolveVariables(dev)
	r.resolveActionsAndOrders(dev)
	if len(r.errs) == 0 {
		check(r.dev, &r.errs)
	}
	return r.dev, r.errs
}

type resolver struct {
	dev  *Device
	errs diag.List
}

// maxSetMembers bounds enumerable integer sets (port offset windows and
// register-family domains). Later passes and the §3.1 checks enumerate
// these sets member by member; without the bound a specification such as
// "port @ {0..2000000000}" would make the compiler allocate billions of
// values. Real devices decode at most a 64K I/O window.
const maxSetMembers = 1 << 16

// boundedSet diagnoses an enumerable set with more than maxSetMembers
// members and reports whether the set is usable.
func (r *resolver) boundedSet(set *ast.IntSet, what, name string) bool {
	if set == nil {
		return true
	}
	if n := set.Count(); n > maxSetMembers {
		r.errorf("E108", set.Pos(), "%s of %s has %d members; at most %d are supported", what, name, n, maxSetMembers)
		return false
	}
	return true
}

func (r *resolver) errorf(code diag.Code, pos token.Pos, format string, args ...any) {
	r.errs.Add(code, pos, format, args...)
}

// declared reports (and diagnoses) whether name is already taken in the
// device's single namespace.
func (r *resolver) declared(pos token.Pos, name string) bool {
	d := r.dev
	if d.ports[name] != nil || d.regs[name] != nil || d.vars[name] != nil || d.structs[name] != nil {
		r.errorf("E101", pos, "%s declared twice", name)
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Pass 1: collect all names so later passes can resolve forward references.

func (r *resolver) collect(dev *ast.Device) {
	d := r.dev
	for i, p := range dev.Params {
		if r.declared(p.NamePos, p.Name) {
			continue
		}
		if p.Width != 8 && p.Width != 16 && p.Width != 32 {
			r.errorf("E104", p.NamePos, "port %s: unsupported access width %d (want 8, 16 or 32)", p.Name, p.Width)
		}
		r.boundedSet(p.Offsets, "offset set", "port "+p.Name)
		port := &Port{Name: p.Name, Width: p.Width, Offsets: p.Offsets, Index: i}
		d.ports[p.Name] = port
		d.Ports = append(d.Ports, port)
	}

	addVar := func(av *ast.Variable, owner *Structure) {
		if r.declared(av.NamePos, av.Name) {
			return
		}
		v := &Variable{
			Name: av.Name, Pos: av.NamePos, Private: av.Private,
			Param: av.Param, Domain: av.ParamDomain,
			Volatile: av.Volatile, Block: av.Block,
			Struct: owner, Index: len(d.Variables),
		}
		v.Cell = len(av.Chunks) == 0
		if v.Cell {
			v.Private = true // cells are never part of the interface
		}
		d.vars[av.Name] = v
		d.Variables = append(d.Variables, v)
		if owner != nil {
			owner.Fields = append(owner.Fields, v)
		}
	}

	for _, decl := range dev.Decls {
		switch n := decl.(type) {
		case *ast.Register:
			if r.declared(n.NamePos, n.Name) {
				continue
			}
			reg := &Register{Name: n.Name, Pos: n.NamePos, Param: n.Param, Domain: n.ParamDomain, Index: len(d.Registers)}
			d.regs[n.Name] = reg
			d.Registers = append(d.Registers, reg)
		case *ast.Variable:
			addVar(n, nil)
		case *ast.Structure:
			if r.declared(n.NamePos, n.Name) {
				continue
			}
			s := &Structure{Name: n.Name, Pos: n.NamePos, Private: n.Private, Index: len(d.Structures)}
			d.structs[n.Name] = s
			d.Structures = append(d.Structures, s)
			for _, f := range n.Fields {
				addVar(f, s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Pass 2a: registers (ports, sizes, masks); instantiations resolve after
// their families regardless of declaration order.

func (r *resolver) resolveRegisters(dev *ast.Device) {
	var insts []*ast.Register
	for _, decl := range dev.Decls {
		n, ok := decl.(*ast.Register)
		if !ok || r.dev.regs[n.Name] == nil {
			continue
		}
		if n.Base != "" {
			insts = append(insts, n)
			continue
		}
		r.resolvePlainRegister(n, r.dev.regs[n.Name])
	}
	for _, n := range insts {
		r.resolveInstantiation(n, r.dev.regs[n.Name])
	}
}

func (r *resolver) resolvePlainRegister(n *ast.Register, reg *Register) {
	reg.Size = n.Size
	for _, pc := range n.Ports {
		port := r.dev.ports[pc.Port.Name]
		if port == nil {
			r.errorf("E102", pc.Port.NamePos, "register %s: unknown port %s", n.Name, pc.Port.Name)
			continue
		}
		if !port.Offsets.Contains(pc.Port.Offset) {
			r.errorf("E103", pc.Port.NamePos, "register %s: offset %d outside the declared range %s of port %s",
				n.Name, pc.Port.Offset, port.Offsets, port.Name)
		}
		if port.Width != n.Size {
			r.errorf("E104", pc.Port.NamePos, "register %s: size bit[%d] does not match the %d-bit access width of port %s",
				n.Name, n.Size, port.Width, port.Name)
		}
		use := &PortUse{Port: port, Offset: pc.Port.Offset}
		switch pc.Dir {
		case ast.AccessRead:
			if reg.Read != nil {
				r.errorf("E101", pc.Port.NamePos, "register %s: read port given twice", n.Name)
			}
			reg.Read = use
		case ast.AccessWrite:
			if reg.Write != nil {
				r.errorf("E101", pc.Port.NamePos, "register %s: write port given twice", n.Name)
			}
			reg.Write = use
		default:
			if reg.Read != nil || reg.Write != nil {
				r.errorf("E106", pc.Port.NamePos, "register %s: read-write port clause conflicts with earlier clause", n.Name)
			}
			reg.Read, reg.Write = use, use
		}
	}
	reg.Mask = r.resolveMask(n.Mask, reg.Size, n.Name)
}

func (r *resolver) resolveInstantiation(n *ast.Register, reg *Register) {
	base := r.dev.regs[n.Base]
	if base == nil {
		r.errorf("E102", n.NamePos, "register %s: unknown base register %s", n.Name, n.Base)
		return
	}
	if !base.IsFamily() {
		r.errorf("E105", n.NamePos, "register %s: base register %s is not parameterized", n.Name, n.Base)
		return
	}
	if !base.Domain.Contains(n.BaseArg) {
		r.errorf("E103", n.NamePos, "register %s: argument %d outside the domain %s of %s",
			n.Name, n.BaseArg, base.Domain, n.Base)
	}
	reg.Base = base
	reg.Arg = n.BaseArg
	reg.Size = base.Size
	reg.Read = base.Read
	reg.Write = base.Write
	if n.Mask != nil {
		reg.Mask = r.resolveMask(n.Mask, reg.Size, n.Name)
	} else {
		reg.Mask = base.Mask // shared: instantiations never mutate masks
	}
	if len(n.Ports) != 0 || n.Size != 0 {
		r.errorf("E105", n.NamePos, "register %s: an instantiation cannot redeclare ports or size", n.Name)
	}
	// Pre/post/set actions are inherited from the family in pass 3 with the
	// parameter substituted by the instantiation argument.
}

// resolveMask elaborates a bit pattern into per-bit classes. A nil pattern
// means every bit is relevant.
func (r *resolver) resolveMask(m *ast.BitPattern, size int, regName string) []MaskBit {
	mask := make([]MaskBit, size)
	if m == nil {
		return mask
	}
	if m.Len() != size {
		r.errorf("E104", m.Pos(), "register %s: mask %s has %d bits, register has %d", regName, m, m.Len(), size)
		return mask
	}
	for i, c := range m.Chars {
		bit := size - 1 - i // Chars[0] is the MSB
		switch c {
		case '.':
			mask[bit] = BitRelevant
		case '*', '-':
			mask[bit] = BitIrrelevant
		case '0':
			mask[bit] = BitForce0
		case '1':
			mask[bit] = BitForce1
		}
	}
	return mask
}

// ---------------------------------------------------------------------------
// Pass 2b: variables (chunks, widths, types).

func (r *resolver) resolveVariables(dev *ast.Device) {
	walk := func(av *ast.Variable) {
		v := r.dev.vars[av.Name]
		if v == nil {
			return
		}
		r.resolveVariable(av, v)
	}
	for _, decl := range dev.Decls {
		switch n := decl.(type) {
		case *ast.Variable:
			walk(n)
		case *ast.Structure:
			for _, f := range n.Fields {
				walk(f)
			}
		}
	}
}

func (r *resolver) resolveVariable(av *ast.Variable, v *Variable) {
	if v.Cell {
		if av.Volatile || av.Trigger != nil || av.Block {
			r.errorf("E105", av.NamePos, "memory cell %s cannot carry behaviour attributes", v.Name)
		}
		if av.Param != "" {
			r.errorf("E105", av.NamePos, "memory cell %s cannot be parameterized", v.Name)
		}
		v.Type = r.resolveType(av.Type, 0, v.Name)
		v.Width = v.Type.Bits
		v.Readable, v.Writable = true, true
		return
	}

	// Pass 2b enumerates the parameter domain when checking it against the
	// register family's; drop oversized domains before that loop runs.
	if !r.boundedSet(v.Domain, "parameter domain", "variable "+v.Name) {
		v.Domain = nil
	}

	for _, ac := range av.Chunks {
		c := r.resolveChunk(ac, v)
		if c != nil {
			v.Chunks = append(v.Chunks, c)
			v.Width += len(c.Bits)
		}
	}
	if v.Width > 64 {
		r.errorf("E104", av.NamePos, "variable %s is %d bits wide; at most 64 are supported", v.Name, v.Width)
	}

	v.Type = r.resolveType(av.Type, v.Width, v.Name)
	if w := v.Type.Bits; v.Width != 0 && w != v.Width {
		switch v.Type.Kind {
		case TypeIntSet:
			// Width comes from the definition; checked via set range below.
		default:
			r.errorf("E104", av.NamePos, "variable %s: definition has %d bits but type %s has %d",
				v.Name, v.Width, v.Type, w)
		}
	}
	if v.Type.Kind == TypeIntSet && v.Width > 0 && v.Width < 64 {
		if max := v.Type.Set.Max(); uint64(max) >= 1<<uint(v.Width) {
			r.errorf("E103", av.NamePos, "variable %s: set value %d does not fit in %d bits", v.Name, max, v.Width)
		}
	}

	// Readability is the conjunction over the registers used, further
	// narrowed by the type's mapping directions for enumerated types: a
	// variable without read mappings gets no read stub even on a readable
	// register. A read (resp. write) mapping on a variable whose registers
	// cannot be read (resp. written) is an error ("a type for reading must
	// be used with a readable variable").
	v.Readable, v.Writable = true, true
	for _, c := range v.Chunks {
		reg := c.Reg
		if !reg.Readable() {
			v.Readable = false
		}
		if !reg.Writable() {
			v.Writable = false
		}
	}
	if v.Type.Kind == TypeEnum {
		var hasRead, hasWrite bool
		for _, s := range v.Type.Enum {
			if s.Readable() {
				hasRead = true
			}
			if s.Writable() {
				hasWrite = true
			}
		}
		if hasRead && !v.Readable {
			r.errorf("E106", av.NamePos, "variable %s has read mappings but its registers cannot be read", v.Name)
		}
		if hasWrite && !v.Writable {
			r.errorf("E106", av.NamePos, "variable %s has write mappings but its registers cannot be written", v.Name)
		}
		v.Readable = v.Readable && hasRead
		v.Writable = v.Writable && hasWrite
		if !hasRead && !hasWrite {
			r.errorf("E106", av.NamePos, "enumerated type of %s has neither read nor write mappings", v.Name)
		}
	}

	if av.Trigger != nil {
		v.Trigger = &Trigger{Dir: av.Trigger.Dir}
		// except/for values resolve in pass 3 (they need the type, which is
		// now known, but enum symbol resolution shares pass-3 helpers).
	}
}

func (r *resolver) resolveChunk(ac *ast.Chunk, v *Variable) *Chunk {
	reg := r.dev.regs[ac.Reg]
	if reg == nil {
		r.errorf("E102", ac.RegPos, "variable %s: unknown register %s", v.Name, ac.Reg)
		return nil
	}
	c := &Chunk{Reg: reg}
	switch {
	case ac.HasArg && ac.ArgRef != "":
		if ac.ArgRef != v.Param {
			r.errorf("E105", ac.RegPos, "variable %s: argument %s is not the variable's parameter", v.Name, ac.ArgRef)
		}
		if !reg.IsFamily() {
			r.errorf("E105", ac.RegPos, "variable %s: register %s is not parameterized", v.Name, reg.Name)
		} else if v.Domain != nil {
			for _, val := range v.Domain.Values() {
				if !reg.Domain.Contains(val) {
					r.errorf("E103", ac.RegPos, "variable %s: parameter value %d outside the domain %s of register %s",
						v.Name, val, reg.Domain, reg.Name)
					break
				}
			}
		}
		c.ArgKind = ArgParam
	case ac.HasArg:
		if !reg.IsFamily() {
			r.errorf("E105", ac.RegPos, "variable %s: register %s is not parameterized", v.Name, reg.Name)
		} else if !reg.Domain.Contains(ac.ArgVal) {
			r.errorf("E103", ac.RegPos, "variable %s: argument %d outside the domain %s of register %s",
				v.Name, ac.ArgVal, reg.Domain, reg.Name)
		}
		c.ArgKind = ArgConst
		c.ArgVal = ac.ArgVal
	default:
		if reg.IsFamily() {
			r.errorf("E105", ac.RegPos, "variable %s: parameterized register %s needs an argument", v.Name, reg.Name)
		}
	}

	if len(ac.Bits) == 0 {
		for b := reg.Size - 1; b >= 0; b-- {
			c.Bits = append(c.Bits, b)
		}
	} else {
		seen := map[int]bool{}
		for _, b := range ac.Bits {
			if b < 0 || b >= reg.Size {
				r.errorf("E103", ac.RegPos, "variable %s: bit %d outside register %s (%d bits)", v.Name, b, reg.Name, reg.Size)
				continue
			}
			if seen[b] {
				r.errorf("E101", ac.RegPos, "variable %s: bit %d of register %s used twice in one chunk", v.Name, b, reg.Name)
				continue
			}
			seen[b] = true
			c.Bits = append(c.Bits, b)
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Pass 3: actions, triggers, serializations, guards.

func (r *resolver) resolveActionsAndOrders(dev *ast.Device) {
	// Registers first: families resolve their own actions; instantiations
	// substitute the parameter.
	for _, decl := range dev.Decls {
		n, ok := decl.(*ast.Register)
		if !ok {
			continue
		}
		reg := r.dev.regs[n.Name]
		if reg == nil {
			continue
		}
		if n.Base != "" {
			if base := reg.Base; base != nil {
				reg.Pre = r.substituteActions(base.Pre, reg)
				reg.Post = r.substituteActions(base.Post, reg)
				reg.Set = r.substituteActions(base.Set, reg)
			}
			continue
		}
		reg.Pre = r.resolveActions(n.Pre, n.Param)
		reg.Post = r.resolveActions(n.Post, n.Param)
		reg.Set = r.resolveActions(n.Set, n.Param)
	}

	resolveVar := func(av *ast.Variable) {
		v := r.dev.vars[av.Name]
		if v == nil {
			return
		}
		v.Set = r.resolveActions(av.Set, v.Param)
		r.resolveTrigger(av, v)
		v.Order = r.resolveSerialization(av.Serialized, v.RegistersUsed(), nil, v.Name)
	}
	for _, decl := range dev.Decls {
		switch n := decl.(type) {
		case *ast.Variable:
			resolveVar(n)
		case *ast.Structure:
			for _, f := range n.Fields {
				resolveVar(f)
			}
			s := r.dev.structs[n.Name]
			if s == nil {
				continue
			}
			s.Order = r.resolveSerialization(n.Serialized, s.RegistersUsed(), s, s.Name)
		}
	}
}

func (r *resolver) resolveTrigger(av *ast.Variable, v *Variable) {
	if av.Trigger == nil || v.Trigger == nil {
		return
	}
	t := av.Trigger
	if t.Except != "" {
		sym, ok := v.Type.Symbol(t.Except)
		if !ok {
			r.errorf("E102", t.AttrPos, "variable %s: neutral symbol %s is not part of the type", v.Name, t.Except)
		} else if sym.CareMask != v.Type.WidthMask() {
			r.errorf("E107", t.AttrPos, "variable %s: neutral symbol %s has wildcard bits", v.Name, t.Except)
		} else {
			v.Trigger.HasNeutral = true
			v.Trigger.Neutral = sym.Value
		}
	}
	if t.For != nil {
		val := r.resolveValue(t.For, v.Type, "", v.Name)
		if val.Kind != ValConst {
			r.errorf("E107", t.AttrPos, "variable %s: trigger-for value must be a constant", v.Name)
		} else {
			v.Trigger.HasFor = true
			v.Trigger.For = val.Const
			// A trigger restricted to one value has every other value as a
			// neutral; pick the complement bit pattern when possible.
			if !v.Trigger.HasNeutral {
				v.Trigger.HasNeutral = true
				v.Trigger.Neutral = ^val.Const & v.Type.WidthMask()
			}
		}
	}
}

// resolveActions resolves a pre/post/set action list. param is the register
// family parameter in scope (empty outside families).
func (r *resolver) resolveActions(acts []*ast.Action, param string) []*Action {
	var out []*Action
	for _, a := range acts {
		ra := r.resolveAction(a, param)
		if ra != nil {
			out = append(out, ra)
		}
	}
	return out
}

func (r *resolver) resolveAction(a *ast.Action, param string) *Action {
	if v := r.dev.vars[a.Target]; v != nil {
		val := r.resolveValue(a.Value, v.Type, param, a.Target)
		return &Action{Pos: a.TargetPos, TargetVar: v, Value: val}
	}
	if s := r.dev.structs[a.Target]; s != nil {
		lit, ok := a.Value.(*ast.StructLit)
		if !ok {
			r.errorf("E107", a.TargetPos, "assignment to structure %s needs a structure literal", a.Target)
			return nil
		}
		val := Value{Kind: ValStruct}
		for _, f := range lit.Fields {
			fv := r.dev.vars[f.Name]
			if fv == nil || fv.Struct != s {
				r.errorf("E102", f.NamePos, "%s is not a field of structure %s", f.Name, s.Name)
				continue
			}
			val.Fields = append(val.Fields, FieldValue{Var: fv, Value: r.resolveValue(f.Value, fv.Type, param, f.Name)})
		}
		return &Action{Pos: a.TargetPos, TargetStruct: s, Value: val}
	}
	r.errorf("E102", a.TargetPos, "unknown action target %s", a.Target)
	return nil
}

// resolveValue resolves an action/guard value against the target type.
func (r *resolver) resolveValue(e ast.Expr, target *Type, param, targetName string) Value {
	switch n := e.(type) {
	case *ast.IntLit:
		raw, err := target.Encode(int64(n.Value))
		if err != nil {
			r.errorf("E107", n.LitPos, "value for %s: %v", targetName, err)
		}
		return Value{Kind: ValConst, Const: raw}
	case *ast.BoolLit:
		if target.Kind != TypeBool {
			r.errorf("E107", n.LitPos, "boolean value for non-boolean %s", targetName)
		}
		var raw uint64
		if n.Value {
			raw = 1
		}
		return Value{Kind: ValConst, Const: raw}
	case *ast.AnyLit:
		return Value{Kind: ValAny}
	case *ast.Ref:
		if target.Kind == TypeEnum {
			if sym, ok := target.Symbol(n.Name); ok {
				if !sym.Writable() {
					r.errorf("E106", n.NamePos, "symbol %s of %s is read-only", n.Name, targetName)
				}
				if sym.CareMask != target.WidthMask() {
					r.errorf("E107", n.NamePos, "symbol %s of %s has wildcard bits and cannot be written", n.Name, targetName)
				}
				return Value{Kind: ValConst, Const: sym.Value}
			}
		}
		if param != "" && n.Name == param {
			return Value{Kind: ValParamRef}
		}
		if v := r.dev.vars[n.Name]; v != nil {
			return Value{Kind: ValVarRef, Var: v}
		}
		r.errorf("E102", n.NamePos, "unknown name %s in value for %s", n.Name, targetName)
		return Value{Kind: ValConst}
	case *ast.StructLit:
		r.errorf("E107", n.LbracePos, "structure literal not allowed as value for %s", targetName)
		return Value{Kind: ValConst}
	}
	return Value{Kind: ValConst}
}

// substituteActions clones a family's resolved actions replacing parameter
// references with the instantiation argument encoded for each target.
func (r *resolver) substituteActions(acts []*Action, inst *Register) []*Action {
	if len(acts) == 0 {
		return nil
	}
	out := make([]*Action, 0, len(acts))
	for _, a := range acts {
		na := *a
		na.Value = r.substituteValue(a.Value, a.targetType(), inst)
		out = append(out, &na)
	}
	return out
}

func (a *Action) targetType() *Type {
	if a.TargetVar != nil {
		return a.TargetVar.Type
	}
	return nil
}

func (r *resolver) substituteValue(v Value, target *Type, inst *Register) Value {
	switch v.Kind {
	case ValParamRef:
		if target == nil {
			return Value{Kind: ValConst, Const: uint64(inst.Arg)}
		}
		raw, err := target.Encode(int64(inst.Arg))
		if err != nil {
			r.errorf("E103", inst.Pos, "register %s: %v", inst.Name, err)
		}
		return Value{Kind: ValConst, Const: raw}
	case ValStruct:
		nv := Value{Kind: ValStruct}
		for _, f := range v.Fields {
			nv.Fields = append(nv.Fields, FieldValue{Var: f.Var, Value: r.substituteValue(f.Value, f.Var.Type, inst)})
		}
		return nv
	}
	return v
}

// resolveSerialization elaborates a "serialized as" list (or builds the
// default order) for a variable or structure using the given register set.
func (r *resolver) resolveSerialization(items []*ast.SerItem, used []*Register, owner *Structure, name string) []*SerStep {
	if len(items) == 0 {
		steps := make([]*SerStep, len(used))
		for i, reg := range used {
			steps[i] = &SerStep{Reg: reg}
		}
		return steps
	}

	usedSet := map[*Register]bool{}
	for _, reg := range used {
		usedSet[reg] = true
	}
	covered := map[*Register]bool{}
	var steps []*SerStep
	for _, it := range items {
		reg := r.dev.regs[it.Reg]
		if reg == nil {
			r.errorf("E102", it.RegPos, "%s: unknown register %s in serialization", name, it.Reg)
			continue
		}
		if !usedSet[reg] {
			r.errorf("E109", it.RegPos, "%s: register %s is not used by the declaration", name, it.Reg)
			continue
		}
		step := &SerStep{Reg: reg}
		if it.Guard != nil {
			step.Guard = r.resolveGuard(it.Guard, owner, name)
		}
		covered[reg] = true
		steps = append(steps, step)
	}
	for _, reg := range used {
		if !covered[reg] {
			r.errorf("E109", r.dev.AST.NamePos, "%s: register %s missing from serialization", name, reg.Name)
		}
	}
	return steps
}

func (r *resolver) resolveGuard(g *ast.Guard, owner *Structure, name string) *Guard {
	v := r.dev.vars[g.Var]
	if v == nil {
		r.errorf("E102", g.IfPos, "%s: unknown variable %s in guard", name, g.Var)
		return nil
	}
	if owner != nil && v.Struct != owner && !v.Cell {
		r.errorf("E109", g.IfPos, "%s: guard variable %s is not a field of the structure", name, g.Var)
	}
	val := r.resolveValue(g.Value, v.Type, "", g.Var)
	if val.Kind != ValConst {
		r.errorf("E107", g.IfPos, "%s: guard comparand must be a constant", name)
		return nil
	}
	return &Guard{Var: v, Neg: g.Neg, Value: val.Const}
}
