package ir

import (
	"fmt"

	"repro/internal/devil/sema"
)

// Program is every access plan of one device specification, lowered and
// optimized under one pass set. It is the single statement of what each
// Devil access does: codegen prints it as Go and exec interprets it.
type Program struct {
	// Layout is the driver state the plans read and write.
	Layout *StateLayout
	// Vars and Structs hold the plans, indexed by sema Index.
	Vars    []VarPlans
	Structs []StructPlans
}

// VarPlans are the plans of one variable; nil where the access does not
// exist. Get and Set of a structure field decode from the snapshot and
// stage for the next flush. Runs is the variable's bit layout, Runs(v).
type VarPlans struct {
	Get, Set, BlockIn, BlockOut *Plan
	Runs                        []Run
}

// StructPlans are the plans of one structure.
type StructPlans struct {
	Read, Write *Plan
}

// Lower lowers every access of spec to its plan and applies the passes of
// the level.
func Lower(spec *sema.Device, level OptLevel) (*Program, error) {
	return LowerPasses(spec, level.Passes())
}

// LowerPasses is Lower under an explicit pass set. It is the one place
// that rejects specification shapes neither back end implements: guarded
// variable or structure-read serializations, unreadable or unwritable
// serialization steps, and action values that reference anything other
// than a constant, the family parameter, the accessed variable, a memory
// cell or a staged structure field.
func LowerPasses(spec *sema.Device, passes Passes) (*Program, error) {
	info := Analyze(spec)
	prog := &Program{
		Layout:  NewStateLayout(spec, info, passes),
		Vars:    make([]VarPlans, len(spec.Variables)),
		Structs: make([]StructPlans, len(spec.Structures)),
	}
	l := &lowerer{spec: spec, passes: passes, info: info, layout: prog.Layout}
	for _, v := range spec.Variables {
		if v.Cell {
			continue
		}
		vp := &prog.Vars[v.Index]
		vp.Runs = Runs(v)
		if v.Struct == nil {
			if v.Readable {
				vp.Get = l.get(v)
			}
			if v.Writable {
				vp.Set = l.set(v)
			}
		} else {
			if v.Readable && StructReadable(v.Struct) {
				vp.Get = l.field(PFieldGet, SDecode, v)
			}
			if v.Writable && StructWritable(v.Struct) {
				vp.Set = l.field(PFieldSet, SStage, v)
			}
		}
		if v.Block {
			if v.Readable {
				vp.BlockIn = l.block(PBlockIn, SBlockIn, v)
			}
			if v.Writable {
				vp.BlockOut = l.block(PBlockOut, SBlockOut, v)
			}
		}
	}
	for _, s := range spec.Structures {
		sp := &prog.Structs[s.Index]
		if StructReadable(s) {
			sp.Read = l.read(s)
		}
		if StructWritable(s) {
			sp.Write = l.write(s)
		}
	}
	if l.err != nil {
		return nil, l.err
	}
	return prog, nil
}

// lowerer builds one plan at a time; the first rejection is latched.
type lowerer struct {
	spec   *sema.Device
	passes Passes
	info   *Info
	layout *StateLayout

	err   error
	plan  *Plan
	steps *[]Step // where emit appends: the plan, or an SIf body
	buf   []Step  // scratch the plan under construction grows in
}

func (l *lowerer) begin(kind PlanKind, v *sema.Variable, s *sema.Structure) {
	l.plan = &Plan{Kind: kind, Var: v, Struct: s, Steps: l.buf[:0]}
	l.steps = &l.plan.Steps
}

// end optimizes the plan in the scratch buffer, then copies it out at its
// exact size.
func (l *lowerer) end() *Plan {
	l.buf = l.plan.Steps[:0]
	p := Optimize(l.plan, l.passes)
	p.Steps = clone(p.Steps)
	l.plan, l.steps = nil, nil
	return p
}

// clone copies steps, guarded bodies included, into exactly sized slices.
func clone(steps []Step) []Step {
	out := make([]Step, len(steps))
	copy(out, steps)
	for i := range out {
		if out[i].Body != nil {
			out[i].Body = clone(out[i].Body)
		}
	}
	return out
}

func (l *lowerer) emit(s Step) { *l.steps = append(*l.steps, s) }

func (l *lowerer) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("ir: %s: %s: %s", l.spec.Name, l.plan.Name(), fmt.Sprintf(format, args...))
	}
}

// actions lowers register or variable actions; cur is the variable whose
// raw value is in scope. A pre action writing a device variable selects
// the register's access context.
func (l *lowerer) actions(acts []*sema.Action, reg *sema.Register, cur *sema.Variable, pre bool) {
	for _, a := range acts {
		if a.TargetStruct != nil {
			for _, f := range a.Value.Fields {
				l.checkValue(f.Value, cur)
			}
		} else {
			l.checkValue(a.Value, cur)
		}
		kind := SAction
		if pre && a.TargetVar != nil && !a.TargetVar.Cell {
			kind = SCtxCall
		}
		l.emit(Step{Kind: kind, Reg: reg, Var: cur, Act: a})
	}
}

func (l *lowerer) checkValue(val sema.Value, cur *sema.Variable) {
	switch val.Kind {
	case sema.ValConst, sema.ValAny:
	case sema.ValParamRef:
		if p := l.plan; (p.Kind != PGet && p.Kind != PSet) || p.Var.Param == "" {
			l.fail("parameter reference outside a parameterized context")
		}
	case sema.ValVarRef:
		if val.Var != cur && SlotOf(val.Var) != SlotCell && SlotOf(val.Var) != SlotField {
			l.fail("cannot compile reference to variable %s", val.Var.Name)
		}
	default:
		l.fail("cannot compile value kind %d", val.Kind)
	}
}

// shadow records the written value where later writes or elision guards
// need it.
func (l *lowerer) shadow(reg *sema.Register) {
	if l.layout.RMWShadowed[reg] || l.layout.GuardedSet[reg] {
		l.emit(Step{Kind: SShadow, Reg: reg})
	}
	if l.layout.GuardedSet[reg] {
		l.emit(Step{Kind: SOkFlag, Reg: reg})
	}
}

// get lowers a top-level variable read: each serialization step reads its
// register inside the register's actions, then the value is gathered,
// cached for structure flushes, and the variable's set actions run.
func (l *lowerer) get(v *sema.Variable) *Plan {
	l.begin(PGet, v, nil)
	l.domain(v)
	for _, step := range v.Order {
		reg := step.Reg
		if step.Guard != nil {
			l.fail("guarded variable reads are not supported")
		}
		if reg.Read == nil {
			l.fail("register %s is not readable", reg.Name)
		}
		l.actions(reg.Pre, reg, nil, true)
		l.emit(Step{Kind: SRead, Reg: reg})
		l.actions(reg.Set, reg, nil, false)
		l.actions(reg.Post, reg, nil, false)
	}
	l.emit(Step{Kind: SGather, Var: v})
	l.readCheck(v)
	if l.layout.VCachedSet[v] {
		l.emit(Step{Kind: SVCache, Var: v})
	}
	l.actions(v.Set, nil, v, false)
	return l.end()
}

// set lowers a top-level variable write: per serialization step the
// register is composed from the raw value, the trigger neutrals of
// co-tenants and the shadowed bits of the other co-tenants, masked with
// the forced bits, and written inside the register's actions.
func (l *lowerer) set(v *sema.Variable) *Plan {
	l.begin(PSet, v, nil)
	spec := l.spec
	l.plan.Elide = l.info.Eligible(v, l.passes)
	l.domain(v)
	l.emit(Step{Kind: SCheckWrite, Var: v})
	if l.layout.VCachedSet[v] {
		l.emit(Step{Kind: SVCache, Var: v})
	}
	for _, step := range v.Order {
		reg := step.Reg
		if step.Guard != nil {
			l.fail("guarded variable writes are not supported")
		}
		if reg.Write == nil {
			l.fail("register %s is not writable", reg.Name)
			continue
		}
		or, and := reg.ForcedBits()
		terms := make([]Term, 1, 3)
		terms[0] = Term{Kind: TRaw, Var: v, Mask: VarMask(reg, v)}
		if neutral, nmask := NeutralConst(spec, reg, v); neutral != 0 {
			terms = append(terms, Term{Kind: TConst, Const: neutral, Mask: nmask})
		}
		if keep := KeepMask(spec, reg, v); keep != 0 {
			terms = append(terms, Term{Kind: TShadow, Mask: keep})
		}
		l.emit(Step{Kind: SCompose, Reg: reg, Expr: Expr{Terms: terms}})
		l.emit(Step{Kind: SMask, Reg: reg, And: and, Or: or})
		l.actions(reg.Pre, reg, v, true)
		l.emit(Step{Kind: SWrite, Reg: reg})
		l.shadow(reg)
		l.actions(reg.Set, reg, v, false)
		l.actions(reg.Post, reg, v, false)
	}
	l.actions(v.Set, nil, v, false)
	return l.end()
}

// field lowers a structure field's get (decode from a snapshot that has
// been read) or set (stage for the next flush).
func (l *lowerer) field(kind PlanKind, op StepKind, v *sema.Variable) *Plan {
	l.begin(kind, v, nil)
	if kind == PFieldGet {
		l.emit(Step{Kind: SCheckValid, Var: v})
		l.emit(Step{Kind: op, Var: v})
		l.readCheck(v)
	} else {
		l.emit(Step{Kind: SCheckWrite, Var: v})
		l.emit(Step{Kind: op, Var: v})
	}
	return l.end()
}

// domain checks the argument of a register-family variable.
func (l *lowerer) domain(v *sema.Variable) {
	if v.Param != "" && v.Domain != nil {
		l.emit(Step{Kind: SCheckDomain, Var: v})
	}
}

// readCheck checks a value read from the device against the type, for the
// types whose rule a value of the variable's width can break.
func (l *lowerer) readCheck(v *sema.Variable) {
	if k := v.Type.Kind; k == sema.TypeIntSet || k == sema.TypeEnum {
		l.emit(Step{Kind: SCheckRead, Var: v})
	}
}

// block lowers a block transfer through the variable's register.
func (l *lowerer) block(kind PlanKind, op StepKind, v *sema.Variable) *Plan {
	l.begin(kind, v, nil)
	reg := v.Chunks[0].Reg
	l.actions(reg.Pre, reg, nil, true)
	l.emit(Step{Kind: op, Reg: reg, Var: v})
	l.actions(reg.Post, reg, nil, false)
	return l.end()
}

// read lowers a structure read: every register once, into its snapshot
// slot, then the snapshot is marked valid.
func (l *lowerer) read(s *sema.Structure) *Plan {
	l.begin(PRead, nil, s)
	for _, step := range s.Order {
		reg := step.Reg
		if step.Guard != nil {
			l.fail("guarded structure reads are not supported")
		}
		l.actions(reg.Pre, reg, nil, true)
		l.emit(Step{Kind: SSnap, Reg: reg})
		l.actions(reg.Set, reg, nil, false)
		l.actions(reg.Post, reg, nil, false)
	}
	l.emit(Step{Kind: SValid})
	return l.end()
}

// write lowers a structure flush: per serialization step (inside its
// guard, if any) the whole register is composed from the staged member
// fields and the stored values of non-member co-tenants, then written;
// member fields owning bits of the register fire their set actions.
// Staged trigger flags clear at the end.
func (l *lowerer) write(s *sema.Structure) *Plan {
	l.begin(PWrite, nil, s)
	spec := l.spec
	for _, step := range s.Order {
		var body []Step
		if step.Guard != nil {
			l.steps = &body
		}
		reg := step.Reg
		or, and := reg.ForcedBits()
		var terms []Term
		for _, f := range Tenants(spec, reg) {
			m := VarMask(reg, f)
			neutral := f.Trigger != nil && f.Trigger.HasNeutral
			switch {
			case f.Struct != s && neutral:
				if n := Place(Runs(f), reg, f.Trigger.Neutral); n != 0 {
					terms = append(terms, Term{Kind: TConst, Const: n, Mask: m})
				}
			case f.Struct == s && neutral:
				terms = append(terms, Term{Kind: TStaged, Var: f, Const: Place(Runs(f), reg, f.Trigger.Neutral), Mask: m})
			default:
				terms = append(terms, Term{Kind: TVar, Var: f, Mask: m})
			}
		}
		l.emit(Step{Kind: SAccum, Reg: reg, Expr: Expr{Terms: terms}, Or: or})
		l.emit(Step{Kind: SMask, Reg: reg, And: and | or, Or: or})
		l.actions(reg.Pre, reg, nil, true)
		l.emit(Step{Kind: SWrite, Reg: reg})
		l.shadow(reg)
		l.actions(reg.Set, reg, nil, false)
		l.actions(reg.Post, reg, nil, false)
		for _, f := range s.Fields {
			if len(f.Set) != 0 && VarMask(reg, f) != 0 {
				l.actions(f.Set, reg, nil, false)
			}
		}
		if step.Guard != nil {
			l.steps = &l.plan.Steps
			l.emit(Step{Kind: SIf, Cond: step.Guard, Body: body})
		}
	}
	for _, f := range s.Fields {
		if f.Trigger != nil {
			l.emit(Step{Kind: SUnstage, Var: f})
		}
	}
	return l.end()
}

// fullMask is the all-ones value of a port width.
func fullMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}
