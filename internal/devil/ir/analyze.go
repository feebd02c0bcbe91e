package ir

import (
	"repro/internal/devil/sema"
)

// Elision is the analysis result for one elidable variable: the register
// whose write may be skipped, the constant cell state the skip requires,
// and the class (context selector vs data register).
type Elision struct {
	// Reg is the single register V's write plan touches.
	Reg *sema.Register
	// Cells lists the constant memory-cell assignments the register's
	// write performs; eliding the write requires each cell to already
	// hold its value.
	Cells []CellCond
	// Ctx marks the context-selector class: a variable other registers'
	// pre actions write to establish an access window (the cs4236 index
	// register, the ne2000 page bits), guarded by the BatchIndex pass.
	// Data-class variables (Ctx false) are guarded by ElideRMW and carry
	// their context selection inside the guarded region.
	Ctx bool
}

// CellCond is one cell-equality condition of an elision guard.
type CellCond struct {
	Cell *sema.Variable
	Val  uint64
}

// Info is the eligibility analysis of one device specification.
type Info struct {
	// Elidable maps every elision-eligible variable to its facts.
	Elidable map[*sema.Variable]*Elision
}

// Analyze computes the elision eligibility of every variable of the
// device. The rules are shared verbatim by the code generator (which
// compiles the guard into the stubs) and the interpreter (which evaluates
// the same guard), keeping the two back ends trace-identical.
func Analyze(spec *sema.Device) *Info {
	info := &Info{Elidable: map[*sema.Variable]*Elision{}}

	// The context-selector variables: targets of some register's pre
	// actions.
	ctxTargets := map[*sema.Variable]bool{}
	for _, r := range spec.Registers {
		for _, a := range r.Pre {
			if a.TargetVar != nil && !a.TargetVar.Cell {
				ctxTargets[a.TargetVar] = true
			}
		}
	}

	// Phase 1: context-selector class — eligible pre-target variables
	// whose own register needs no context.
	for _, v := range spec.Variables {
		if !ctxTargets[v] {
			continue
		}
		if el := eligible(spec, v); el != nil && len(el.Reg.Pre) == 0 {
			el.Ctx = true
			info.Elidable[v] = el
		}
	}
	// Phase 2: data class — eligible variables whose context selection
	// consists of constant writes to phase-1 variables, so the whole
	// interaction (selection + data write) can be guarded as a unit.
	for _, v := range spec.Variables {
		if ctxTargets[v] || info.Elidable[v] != nil {
			continue
		}
		el := eligible(spec, v)
		if el == nil {
			continue
		}
		ok := true
		for _, a := range el.Reg.Pre {
			if a.TargetVar == nil || a.TargetVar.Cell || a.Value.Kind != sema.ValConst {
				ok = false
				break
			}
			pe := info.Elidable[a.TargetVar]
			if pe == nil || !pe.Ctx {
				ok = false
				break
			}
		}
		if ok {
			info.Elidable[v] = el
		}
	}
	return info
}

// eligible checks one variable against the class-independent eligibility
// rules and returns the partial elision facts, or nil.
func eligible(spec *sema.Device, v *sema.Variable) *Elision {
	el, _, _ := classify(spec, v)
	return el
}

// DowngradeReason names the environmental rule that disqualified a
// shape-eligible variable from elision. Shape failures (cells,
// structures, triggers, volatility on the variable itself, multi-step
// serializations, …) are not downgrades: the spec author asked for those
// semantics. Environmental failures are properties of the surrounding
// spec, and are the ones `devilc vet -Wall` surfaces as W306.
type DowngradeReason int

// The environmental disqualification reasons.
const (
	// DownNone: not an environmental failure.
	DownNone DowngradeReason = iota
	// DownVolatileTenant: a co-tenant is volatile — the device may change
	// the register behind the shadow.
	DownVolatileTenant
	// DownTriggerTenant: a co-tenant triggers without a neutral value, so
	// its bits cannot be composed into a rewrite without firing it.
	DownTriggerTenant
	// DownFamilyAlias: a family-parameter chunk aliases every
	// instantiation of the register's family.
	DownFamilyAlias
	// DownPortSharer: another register writes the same port offset
	// without pre actions, defeating last-written tracking.
	DownPortSharer
	// DownCtxChain: the variable itself is eligible but its register's
	// pre-action chain is not elidable context selection.
	DownCtxChain
)

// String returns a short human-readable label for the reason.
func (r DowngradeReason) String() string {
	switch r {
	case DownVolatileTenant:
		return "volatile co-tenant"
	case DownTriggerTenant:
		return "neutral-less trigger co-tenant"
	case DownFamilyAlias:
		return "family-parameter alias"
	case DownPortSharer:
		return "unwindowed port sharer"
	case DownCtxChain:
		return "non-elidable context chain"
	}
	return "none"
}

// Downgrade records one eligibility downgrade: Var's writes to Reg stay
// unguarded because of Reason; Other names the blocking entity when one
// exists (the volatile tenant, the sharing register, …).
type Downgrade struct {
	Var    *sema.Variable
	Reg    *sema.Register
	Reason DowngradeReason
	Other  string
}

// Downgrades returns every variable that passes the shape rules for
// elision but is disqualified by an environmental rule, with the rule
// that fired. The result is in variable declaration order.
func Downgrades(spec *sema.Device) []Downgrade {
	info := Analyze(spec)
	var out []Downgrade
	for _, v := range spec.Variables {
		if info.Elidable[v] != nil {
			continue
		}
		el, reason, other := classify(spec, v)
		reg := regOf(v)
		switch {
		case reason != DownNone:
			out = append(out, Downgrade{Var: v, Reg: reg, Reason: reason, Other: other})
		case el != nil:
			// Shape and environment pass but Analyze still rejected the
			// variable: its pre-action chain is not elidable context
			// selection (phase 1/2 structure).
			out = append(out, Downgrade{Var: v, Reg: el.Reg, Reason: DownCtxChain})
		}
	}
	return out
}

// regOf returns the single register of a one-step serialization, or nil.
func regOf(v *sema.Variable) *sema.Register {
	if len(v.Order) == 1 {
		return v.Order[0].Reg
	}
	return nil
}

// classify checks one variable against the eligibility rules. It returns
// the partial elision facts when every rule passes; otherwise the facts
// are nil and, for environmental failures, the reason and the name of
// the blocking entity.
func classify(spec *sema.Device, v *sema.Variable) (*Elision, DowngradeReason, string) {
	// Shape: the variable must be a plain, immediately-written scalar: no
	// cell or structure staging, no trigger semantics (the write IS the
	// side effect), no volatility (the device may change the bits), no
	// block transfers, no variable-level actions, no register-family
	// parameter (per-instance shadows would be needed), and a single
	// unguarded write step.
	if v.Cell || !v.Writable || v.Struct != nil || v.Trigger != nil ||
		v.Volatile || v.Block || v.Param != "" || len(v.Set) != 0 {
		return nil, DownNone, ""
	}
	if len(v.Order) != 1 || v.Order[0].Guard != nil {
		return nil, DownNone, ""
	}
	reg := v.Order[0].Reg
	// The register must be a concrete (non-family) writable register that
	// is also readable — write-only registers model commands and
	// acknowledges, whose rewrites must reach the device — with no post
	// actions and only constant-cell set actions (which become guard
	// conditions).
	// A write-only port direction is an explicit spec choice (commands
	// and acknowledges), so failing it is a shape rule, not a downgrade.
	if reg.Param != "" || reg.Write == nil || !reg.Readable() || len(reg.Post) != 0 {
		return nil, DownNone, ""
	}
	el := &Elision{Reg: reg}
	for _, a := range reg.Set {
		if a.TargetVar == nil || !a.TargetVar.Cell || a.Value.Kind != sema.ValConst {
			return nil, DownNone, ""
		}
		el.Cells = append(el.Cells, CellCond{Cell: a.TargetVar, Val: a.Value.Const})
	}
	// Tenant rule, in composition precedence: triggers with a neutral
	// value compose as constants whose rewrite is side-effect-free by
	// definition, so they never block elision (volatile or not — the
	// ne2000 command register's st/txp/rd). Any other volatile tenant
	// means the device changes the register behind the shadow, and a
	// neutral-less trigger cannot be composed without firing.
	for _, t := range spec.Variables {
		if t == v || !tenantOf(t, reg) {
			continue
		}
		if t.Trigger != nil && t.Trigger.HasNeutral {
			continue
		}
		if t.Volatile {
			return nil, DownVolatileTenant, t.Name
		}
		if t.Trigger != nil {
			return nil, DownTriggerTenant, t.Name
		}
	}
	// A family-parameter chunk over the register's family base aliases
	// every instantiation; the shadow cannot track which one was written.
	if reg.Base != nil {
		for _, t := range spec.Variables {
			for _, ch := range t.Chunks {
				if ch.Reg == reg.Base && ch.ArgKind == sema.ArgParam {
					return nil, DownFamilyAlias, t.Name
				}
			}
		}
	}
	// Port-sharing rule: every other register writing the same port
	// offset must carry pre actions (a window-multiplexed access path
	// with its own backing store). An unwindowed sharer — the 8237A
	// flip-flop byte pairs, the 8259A ICW2..4 against OCW1 — makes the
	// last-written tracking unsound.
	for _, r2 := range spec.Registers {
		if r2 == reg || r2.Write == nil {
			continue
		}
		if r2.Write.Port == reg.Write.Port && r2.Write.Offset == reg.Write.Offset && len(r2.Pre) == 0 {
			return nil, DownPortSharer, r2.Name
		}
	}
	return el, DownNone, ""
}

// tenantOf reports whether t owns bits of reg, following family aliases
// in both directions: a conservative superset of the tenants a write plan
// composes.
func tenantOf(t *sema.Variable, reg *sema.Register) bool {
	for _, ch := range t.Chunks {
		if ch.Reg == reg {
			return true
		}
		if reg.Base != nil && ch.Reg == reg.Base && ch.ArgKind == sema.ArgConst && ch.ArgVal == reg.Arg {
			return true
		}
		if ch.Reg.Base != nil && ch.Reg.Base == reg {
			return true
		}
	}
	return false
}

// Eligible reports whether the pass set guards v: context-selector
// variables ride the BatchIndex pass, data variables the ElideRMW pass.
func (i *Info) Eligible(v *sema.Variable, p Passes) *Elision {
	el := i.Elidable[v]
	if el == nil {
		return nil
	}
	if el.Ctx && !p.BatchIndex {
		return nil
	}
	if !el.Ctx && !p.ElideRMW {
		return nil
	}
	return el
}

// GuardedRegs returns the registers guarded under the pass set, i.e. the
// registers whose writers must maintain shadow and ok-flag state.
func (i *Info) GuardedRegs(p Passes) map[*sema.Register]bool {
	out := map[*sema.Register]bool{}
	for v, el := range i.Elidable {
		if i.Eligible(v, p) != nil {
			out[el.Reg] = true
		}
	}
	return out
}
