package ir

import (
	"fmt"
	"strings"

	"repro/internal/devil/sema"
)

// Expr is a register composition: the bitwise OR of terms, each of which
// can only set bits inside its mask.
type Expr struct {
	Terms []Term
}

// TermKind discriminates composition terms.
type TermKind uint8

const (
	// TConst is a constant contribution (a trigger neutral).
	TConst TermKind = iota
	// TRaw places the raw value being written (the plan's variable) onto
	// the register.
	TRaw
	// TShadow keeps the register shadow's bits under Mask: the co-tenants
	// as last written.
	TShadow
	// TVar places Var's stored value onto the register: its memory cell,
	// its staged structure field, or its flush cache, by Var's shape (see
	// Slot).
	TVar
	// TStaged places Var's staged structure field when it was staged since
	// the last flush, and Var's trigger neutral (Const) otherwise.
	TStaged
)

// Term is one composition contribution.
type Term struct {
	Kind TermKind
	// Var is the variable of TRaw, TVar and TStaged terms.
	Var *sema.Variable
	// Const is the value of a TConst term, and the neutral of a TStaged
	// term, already placed on the register.
	Const uint64
	// Mask is the set of register bits the term can contribute.
	Mask uint64
}

// Render lists the composition in the plan listing syntax.
func (e *Expr) Render() string {
	var parts []string
	for _, t := range e.Terms {
		switch t.Kind {
		case TConst:
			parts = append(parts, fmt.Sprintf("%#x", t.Const))
		case TRaw:
			parts = append(parts, "raw")
		case TShadow:
			parts = append(parts, fmt.Sprintf("shadow&%#x", t.Mask))
		case TVar:
			parts = append(parts, slotName(t.Var))
		case TStaged:
			parts = append(parts, fmt.Sprintf("stg.%s?fld.%s:%#x", t.Var.Name, t.Var.Name, t.Const))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " | ")
}

// fold drops terms that cannot contribute bits and merges constant terms.
func (e *Expr) fold() {
	var kept []Term
	var c uint64
	for _, t := range e.Terms {
		if t.Mask == 0 {
			continue
		}
		if t.Kind == TConst {
			c |= t.Const & t.Mask
			continue
		}
		kept = append(kept, t)
	}
	if c != 0 {
		kept = append(kept, Term{Kind: TConst, Const: c, Mask: c})
	}
	e.Terms = kept
}

// Slot names the state slot a variable's stored value lives in.
type Slot uint8

const (
	// SlotNone: the variable has no stored value a plan may read.
	SlotNone Slot = iota
	// SlotCell: a private memory cell.
	SlotCell
	// SlotField: the staged field of a writable structure.
	SlotField
	// SlotCache: the flush cache of a top-level variable that co-tenants
	// a register some structure flushes (StateLayout.VCached).
	SlotCache
)

// SlotOf returns where v's stored value lives: the slot an action value,
// a serialization guard, or a flush composition reads for v.
func SlotOf(v *sema.Variable) Slot {
	switch {
	case v.Cell:
		return SlotCell
	case v.Struct != nil && StructWritable(v.Struct):
		return SlotField
	case v.Struct == nil:
		return SlotCache
	}
	return SlotNone
}

func slotName(v *sema.Variable) string {
	switch SlotOf(v) {
	case SlotCell:
		return "cell." + v.Name
	case SlotField:
		return "fld." + v.Name
	}
	return "vc." + v.Name
}

// StepKind discriminates plan steps.
type StepKind uint8

const (
	// SCompose assigns the register composition Expr to the plan's out
	// value.
	SCompose StepKind = iota
	// SAccum is the structure-flush composition: out starts from the
	// forced bits Or and accumulates each term in turn. ConstFold leaves
	// it alone.
	SAccum
	// SMask applies the register's forced mask bits: out = out&And | Or.
	SMask
	// SCtxCall establishes a register's access context by writing another
	// device variable (a pre action whose target is not a memory cell).
	SCtxCall
	// SAction is any other action (cell assignments, structure literals,
	// set and post actions).
	SAction
	// SWrite writes out to the register's write port.
	SWrite
	// SRead reads the register's read port into the plan's next read
	// source.
	SRead
	// SGather assembles Var's raw value from the plan's read sources.
	SGather
	// SSnap reads the register into its structure snapshot slot.
	SSnap
	// SValid marks the plan's structure snapshot valid.
	SValid
	// SDecode assembles Var's raw value from the structure snapshot slots.
	SDecode
	// SVCache stores the raw value into Var's flush cache.
	SVCache
	// SStage stores the raw value into Var's staged structure field (and
	// sets its staged flag when Var is a trigger).
	SStage
	// SUnstage clears Var's staged flag after a flush.
	SUnstage
	// SShadow stores out into the register's shadow.
	SShadow
	// SOkFlag marks the register's shadow as authoritative for elision.
	SOkFlag
	// SBlockIn and SBlockOut move the caller's buffer through Var's block
	// register in one bus operation.
	SBlockIn
	SBlockOut
	// SGuard runs Body unless the elision condition Elide holds: the
	// register shadow is authoritative, equals out, and every constant
	// cell assignment of the write already holds.
	SGuard
	// SIf runs Body when the serialization guard Cond holds.
	SIf
	// SCheckDomain, SCheckWrite, SCheckRead and SCheckValid are the §3.2
	// run-time checks of Var: the register-family argument is in Var's
	// domain; the written value obeys Var's WriteRule, and becomes the
	// plan's raw value; the gathered or decoded value obeys its ReadRule;
	// Var's structure snapshot has been read. A failed check faults with
	// the step's Fault text: a debug stub panics, exec returns an error.
	SCheckDomain
	SCheckWrite
	SCheckRead
	SCheckValid
)

// IsCheck reports whether the step is a §3.2 check. Checks are pure: they
// neither touch a port nor change driver state.
func (k StepKind) IsCheck() bool { return k >= SCheckDomain }

// Step is one element of an access plan. Every operand is typed: the
// register, variable and action the step touches, never rendered code.
type Step struct {
	Kind StepKind
	// Reg is the register the step touches (composition target, port
	// operation, shadow store, or the context register an action serves).
	Reg *sema.Register
	// Var is the variable of SGather, SDecode, SVCache, SStage, SUnstage,
	// check and block steps; on action steps it is the variable whose raw
	// value is in scope for the action's value (nil when none is).
	Var *sema.Variable
	// Act is the action of SCtxCall and SAction steps.
	Act *sema.Action
	// Expr is the composition of SCompose and SAccum steps.
	Expr Expr
	// And and Or describe an SMask step, out = out&And | Or; Or is also
	// the starting value of an SAccum step.
	And, Or uint64
	// Elide is the condition of an SGuard step.
	Elide *Elision
	// Cond is the condition of an SIf step.
	Cond *sema.Guard
	// Body is the guarded region of SGuard and SIf steps.
	Body []Step
}

// PlanKind discriminates plans.
type PlanKind uint8

const (
	// PGet reads a top-level variable.
	PGet PlanKind = iota
	// PSet writes a top-level variable.
	PSet
	// PFieldGet decodes a structure field from the structure snapshot.
	PFieldGet
	// PFieldSet stages a structure field for the next flush.
	PFieldSet
	// PRead reads a structure's registers into its snapshot.
	PRead
	// PWrite flushes a structure's staged fields.
	PWrite
	// PBlockIn and PBlockOut are block transfers of a block variable.
	PBlockIn
	PBlockOut
)

var planOps = [...]string{"get", "set", "get", "set", "read", "write", "blockin", "blockout"}

// Plan is the lowered access plan of one device access.
type Plan struct {
	Kind PlanKind
	// Var is the accessed variable (variable plans); Struct the accessed
	// structure (structure plans).
	Var    *sema.Variable
	Struct *sema.Structure
	// Elide is non-nil when the pass set guards this write plan; its Ctx
	// field tells the context-selector class (guarded by BatchIndex) from
	// the data class (guarded by ElideRMW).
	Elide *Elision
	Steps []Step
}

// Name is the Devil-level access, "<variable or structure>.<op>".
func (p *Plan) Name() string { return p.subject() + "." + planOps[p.Kind] }

// Spanned reports whether the access runs under an attribution span:
// every plan but structure-field decode and staging, which touch no port.
func (p *Plan) Spanned() bool { return p.Kind != PFieldGet && p.Kind != PFieldSet }

// Span is the attribution span name of the access on the named device,
// "<device>.<Name>".
func (p *Plan) Span(device string) string {
	return device + "." + p.subject() + "." + planOps[p.Kind]
}

func (p *Plan) subject() string {
	if p.Struct != nil {
		return p.Struct.Name
	}
	return p.Var.Name
}

// String renders the plan as a stable textual listing, the format the
// golden tests compare.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s:\n", p.Name())
	writeSteps(&b, p.Steps, "  ")
	return b.String()
}

func writeSteps(b *strings.Builder, steps []Step, indent string) {
	for i := range steps {
		s := &steps[i]
		switch s.Kind {
		case SCompose:
			fmt.Fprintf(b, "%scompose %s = %s\n", indent, regName(s.Reg), s.Expr.Render())
		case SAccum:
			fmt.Fprintf(b, "%saccum %s = %#x | %s\n", indent, regName(s.Reg), s.Or, s.Expr.Render())
		case SMask:
			fmt.Fprintf(b, "%smask &%#x |%#x\n", indent, s.And, s.Or)
		case SCtxCall:
			fmt.Fprintf(b, "%sctx %s -> %s\n", indent, formatAction(s.Act, s.Var), regName(s.Reg))
		case SAction:
			fmt.Fprintf(b, "%saction %s\n", indent, formatAction(s.Act, s.Var))
		case SGuard:
			fmt.Fprintf(b, "%sguard unless %s:\n", indent, s.Elide)
			writeSteps(b, s.Body, indent+"  ")
		case SValid:
			fmt.Fprintf(b, "%svalid\n", indent)
		case SIf:
			op := "=="
			if s.Cond.Neg {
				op = "!="
			}
			fmt.Fprintf(b, "%sif %s %s %#x:\n", indent, slotName(s.Cond.Var), op, s.Cond.Value)
			writeSteps(b, s.Body, indent+"  ")
		default:
			fmt.Fprintf(b, "%s%s %s\n", indent, stepOps[s.Kind], operand(s))
		}
	}
}

var stepOps = [...]string{
	SWrite: "write", SRead: "read", SGather: "gather", SSnap: "snap",
	SDecode: "decode", SVCache: "vcache", SStage: "stage", SUnstage: "unstage",
	SShadow: "shadow", SOkFlag: "ok", SBlockIn: "blockin", SBlockOut: "blockout",
	SCheckDomain: "check domain", SCheckWrite: "check write", SCheckRead: "check read",
	SCheckValid: "check valid",
}

// Fault is the text a failed check step reports: the panic message of a
// debug stub and the error of exec.
func (s *Step) Fault() string {
	v := s.Var
	switch s.Kind {
	case SCheckDomain:
		return fmt.Sprintf("devil: %s: argument out of domain %s", v.Name, v.Domain)
	case SCheckWrite:
		return fmt.Sprintf("devil: %s: written value out of range for %s", v.Name, v.Type)
	case SCheckRead:
		return fmt.Sprintf("devil: %s: device delivered a value outside %s", v.Name, v.Type)
	case SCheckValid:
		return fmt.Sprintf("devil: %s read before %s snapshot", v.Name, v.Struct.Name)
	}
	return ""
}

func operand(s *Step) string {
	if s.Var != nil {
		return s.Var.Name
	}
	return regName(s.Reg)
}

func regName(r *sema.Register) string {
	if r == nil {
		return "?"
	}
	return r.Name
}

// String renders the elision condition in the listing syntax.
func (el *Elision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok.%s && shadow.%s == out", el.Reg.Name, el.Reg.Name)
	for _, c := range el.Cells {
		fmt.Fprintf(&b, " && cell.%s == %#x", c.Cell.Name, c.Val)
	}
	return b.String()
}

// formatAction renders an action in Devil-like listing syntax; cur is the
// variable whose raw value is in scope ("raw"), or nil.
func formatAction(a *sema.Action, cur *sema.Variable) string {
	if a.TargetStruct != nil {
		fields := make([]string, len(a.Value.Fields))
		for i, f := range a.Value.Fields {
			fields[i] = f.Var.Name + " = " + formatValue(f.Value, cur)
		}
		return a.TargetStruct.Name + " = {" + strings.Join(fields, ", ") + "}"
	}
	return a.TargetVar.Name + " = " + formatValue(a.Value, cur)
}

func formatValue(v sema.Value, cur *sema.Variable) string {
	switch v.Kind {
	case sema.ValConst:
		return fmt.Sprintf("%#x", v.Const)
	case sema.ValAny:
		return "*"
	case sema.ValParamRef:
		return "arg"
	case sema.ValVarRef:
		if v.Var == cur {
			return "raw"
		}
		return slotName(v.Var)
	}
	return "?"
}
