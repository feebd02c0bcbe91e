package ir

import "repro/internal/devil/sema"

// Optimize applies the enabled passes to the plan, in the fixed order
// coalesce → constfold → elide-rmw → batch-index, and returns the
// transformed plan. Plans are transformed in place and returned for
// chaining.
func Optimize(p *Plan, passes Passes) *Plan {
	if passes.Coalesce {
		p = Coalesce(p)
	}
	if passes.ConstFold {
		p = ConstFold(p)
	}
	if passes.ElideRMW {
		p = ElideRMW(p)
	}
	if passes.BatchIndex {
		p = BatchIndex(p)
	}
	return p
}

// Coalesce merges adjacent writes of the same register into one Out: a
// context-selector call equal to the previous one, with no port
// operation or state change in between, selects a window that is already
// selected and is dropped. Two calls are equal when they write the same
// target with the same value (compared structurally). (The run-time guards
// of ElideRMW/BatchIndex subsume this dynamically; Coalesce removes the
// statically provable duplicates even at levels where the run-time guards
// are off.)
func Coalesce(p *Plan) *Plan {
	out := p.Steps[:0]
	var lastCtx *Step
	for _, s := range p.Steps {
		switch s.Kind {
		case SCtxCall:
			if lastCtx != nil && lastCtx.Reg == s.Reg && lastCtx.Var == s.Var && sameAction(lastCtx.Act, s.Act) {
				continue // the window is already selected
			}
		case SCompose, SAccum, SMask, SCheckDomain, SCheckWrite, SCheckRead, SCheckValid:
			// Pure out-value arithmetic and checks; the selected window is
			// untouched.
		default:
			// Port operations, actions and cache updates may change or
			// depend on the selected window: forget it.
			lastCtx = nil
		}
		out = append(out, s)
		if s.Kind == SCtxCall {
			lastCtx = &out[len(out)-1]
		}
	}
	p.Steps = out
	return p
}

// sameAction reports whether two actions write the same target with the
// same value.
func sameAction(a, b *sema.Action) bool {
	return a.TargetVar == b.TargetVar && a.TargetStruct == b.TargetStruct && sameValue(a.Value, b.Value)
}

func sameValue(a, b sema.Value) bool {
	if a.Kind != b.Kind || a.Const != b.Const || a.Var != b.Var || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i].Var != b.Fields[i].Var || !sameValue(a.Fields[i].Value, b.Fields[i].Value) {
			return false
		}
	}
	return true
}

// ConstFold folds constants: composition terms that cannot contribute
// bits are dropped, constant terms are merged, and forced-bit mask
// adjustments that cannot change the composed value (And covers the whole
// register, Or forces nothing) are removed, inside serialization guards
// too.
func ConstFold(p *Plan) *Plan {
	p.Steps = constFold(p.Steps)
	return p
}

func constFold(steps []Step) []Step {
	out := steps[:0]
	for _, s := range steps {
		switch s.Kind {
		case SCompose:
			s.Expr.fold()
		case SMask:
			if full := fullMask(s.Reg.Write.Port.Width); s.And&full == full && s.Or == 0 {
				continue // a no-op adjustment
			}
		case SIf:
			s.Body = constFold(s.Body)
		}
		out = append(out, s)
	}
	return out
}

// ElideRMW guards the write plans of data-class elidable variables: when
// the register shadow is authoritative and already holds the composed
// value (and every constant cell assignment of the write already holds),
// the whole interaction — context selection, port write, cache updates —
// is skipped at run time.
func ElideRMW(p *Plan) *Plan {
	if p.Elide == nil || p.Elide.Ctx {
		return p
	}
	return guardPlan(p)
}

// BatchIndex guards the write plans of context-selector variables (the
// cs4236 index register, the ne2000 page bits): consecutive accesses
// through the same window share one selection write, because the
// selector's own setter skips the port write when the selector already
// holds the value. Every access path benefits — the pre actions of data
// registers keep calling the selector's setter and hit the guard there.
func BatchIndex(p *Plan) *Plan {
	if p.Elide == nil || !p.Elide.Ctx {
		return p
	}
	return guardPlan(p)
}

// guardPlan wraps everything from the first effectful step (context call
// or port operation) onward in the plan's elision guard. Checks,
// composition, mask and flush-cache steps stay outside: a check runs even
// when the write is skipped, the guard condition compares the composed out
// value against the shadow, and the cache records the written value
// whether or not the write is skipped. Elidable variables have no
// variable-level set actions, so nothing follows the register interaction.
func guardPlan(p *Plan) *Plan {
	split := len(p.Steps)
	for i, s := range p.Steps {
		if s.Kind != SCompose && s.Kind != SMask && s.Kind != SVCache && !s.Kind.IsCheck() {
			split = i
			break
		}
	}
	if split == len(p.Steps) {
		return p
	}
	body := p.Steps[split:len(p.Steps):len(p.Steps)]
	p.Steps = append(p.Steps[:split:split], Step{Kind: SGuard, Elide: p.Elide, Body: body})
	return p
}
