package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
)

// Options configures generation.
type Options struct {
	// Package is the Go package name of the generated file.
	Package string
	// Debug sets the generated "debug" constant, enabling the §3.2 runtime
	// checks in the output (they are compiled away when false).
	Debug bool
	// BusImport is the import path of the bus package; it defaults to
	// "repro/internal/bus".
	BusImport string
	// Opt selects the optimization level applied to every method's
	// access plan. The zero value is ir.O1, the default level; ir.O0
	// disables all passes (devilc -O0).
	Opt ir.OptLevel
}

// Import paths of the observation package the span annotations come from
// and of the snapshot wire-format package MarshalState and UnmarshalState
// build on.
const (
	obsImport  = "repro/internal/obs"
	snapImport = "repro/internal/snap"
)

// Generate emits a Go stub package for the resolved device. The emitted
// source is verified — parsed with go/parser and gofmt-formatted — before
// it is returned; when an optimization pass produces an invalid plan, the
// error names the culprit (see verify.go).
func Generate(spec *sema.Device, opts Options) ([]byte, error) {
	if opts.Package == "" {
		opts.Package = strings.ReplaceAll(spec.Name, "_", "")
	}
	if opts.BusImport == "" {
		opts.BusImport = "repro/internal/bus"
	}
	return generateVerified(spec, opts)
}

// generate lowers the device under one exact pass set and prints its
// plans, returning the unformatted source.
func generate(spec *sema.Device, opts Options, passes ir.Passes) ([]byte, error) {
	prog, err := ir.LowerPasses(spec, passes)
	if err != nil {
		return nil, err
	}
	g := &generator{spec: spec, opts: opts, prog: prog}
	g.run()
	return []byte(g.b.String()), nil
}

type generator struct {
	spec *sema.Device
	opts Options
	b    strings.Builder

	needFmt bool
	needB32 bool
	needObs bool

	// prog holds every access plan of the device, which the generator
	// prints, and its canonical state layout: which registers carry
	// shadows, snapshots and ok flags, which variables a flush cache, and
	// the serialization order of all of it, shared with the exec
	// interpreter so both paths emit byte-identical snapshots.
	prog *ir.Program
}

func (g *generator) p(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() {
	saved := g.b
	g.b = strings.Builder{}
	g.emitBody()
	body := g.b
	g.b = saved

	// Header (after the body, so needFmt/needB32 are known).
	g.p("// Code generated by devilc from the Devil specification of %s. DO NOT EDIT.", g.spec.Name)
	g.p("")
	g.p("// Package %s provides compiled Devil stubs for the %s controller.", g.opts.Package, g.spec.Name)
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p("import (")
	if g.needFmt {
		g.p("\t%q", "fmt")
		g.p("")
	}
	g.p("\t%q", g.opts.BusImport)
	if g.needObs {
		g.p("\t%q", obsImport)
	}
	g.p("\t%q", snapImport)
	g.p(")")
	g.p("")
	g.p("// debug enables the specification-derived runtime checks (§3.2).")
	g.p("const debug = %v", g.opts.Debug)
	g.p("")
	if g.needB32 {
		g.p("func b32(b bool) uint32 {")
		g.p("\tif b {")
		g.p("\t\treturn 1")
		g.p("\t}")
		g.p("\treturn 0")
		g.p("}")
		g.p("")
	}
	g.b.WriteString(body.String())
}

// ---------------------------------------------------------------------------
// Gather/scatter expressions: one shift and mask per ir.Run

func maskLit(n int) string { return fmt.Sprintf("%#x", uint64(1)<<uint(n)-1) }

// gatherExpr builds a Go expression assembling a variable value from its
// runs and per-register source expressions. srcs maps registers to
// expressions of type uint32 (or uint64 when wide is set).
func gatherExpr(runs []ir.Run, srcs map[*sema.Register]string) string {
	var parts []string
	for _, r := range runs {
		e := srcs[r.Reg]
		if r.RegLo > 0 {
			e = fmt.Sprintf("(%s >> %d)", e, r.RegLo)
		}
		e = fmt.Sprintf("%s & %s", e, maskLit(r.N))
		if r.ValLo > 0 {
			e = fmt.Sprintf("(%s) << %d", e, r.ValLo)
		} else {
			e = "(" + e + ")"
		}
		parts = append(parts, e)
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " | ")
}

// scatterExpr builds a Go expression placing raw (an expression of a
// variable value) onto the bits of reg its runs own.
func scatterExpr(runs []ir.Run, reg *sema.Register, raw string) string {
	var parts []string
	for _, r := range runs {
		if r.Reg != reg {
			continue
		}
		e := raw
		if r.ValLo > 0 {
			e = fmt.Sprintf("(%s >> %d)", e, r.ValLo)
		}
		e = fmt.Sprintf("%s & %s", e, maskLit(r.N))
		if r.RegLo > 0 {
			e = fmt.Sprintf("(%s) << %d", e, r.RegLo)
		} else {
			e = "(" + e + ")"
		}
		parts = append(parts, e)
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " | ")
}

// ---------------------------------------------------------------------------
// Naming

func (g *generator) portField(p *sema.Port) string       { return "port" + goName(p.Name, true) }
func (g *generator) shadowField(r *sema.Register) string { return "shadow" + goName(r.Name, true) }
func (g *generator) okField(r *sema.Register) string     { return "ok" + goName(r.Name, true) }
func (g *generator) snapField(r *sema.Register) string   { return "snap" + goName(r.Name, true) }
func (g *generator) cellField(v *sema.Variable) string   { return "cell" + goName(v.Name, true) }
func (g *generator) vcField(v *sema.Variable) string     { return "vc" + goName(v.Name, true) }
func (g *generator) fldField(v *sema.Variable) string    { return "fld" + goName(v.Name, true) }
func (g *generator) stgField(v *sema.Variable) string    { return "stg" + goName(v.Name, true) }

// runs returns v's bit layout, as the plans exec runs have it.
func (g *generator) runs(v *sema.Variable) []ir.Run { return g.prog.Vars[v.Index].Runs }

func (g *generator) getterName(v *sema.Variable) string { return goName(v.Name, !v.Private) }

func (g *generator) setterName(v *sema.Variable) string {
	if v.Private {
		return "set" + goName(v.Name, true)
	}
	return "Set" + goName(v.Name, true)
}

func (g *generator) enumTypeName(v *sema.Variable) string { return goName(v.Name, !v.Private) + "Val" }

func (g *generator) structMethod(prefix string, s *sema.Structure) string {
	if s.Private {
		return strings.ToLower(prefix[:1]) + prefix[1:] + goName(s.Name, true)
	}
	return prefix + goName(s.Name, true)
}

// goType returns the Go type of a variable's semantic values.
func (g *generator) goType(v *sema.Variable) string {
	t := v.Type
	switch t.Kind {
	case sema.TypeBool:
		return "bool"
	case sema.TypeSInt:
		switch {
		case t.Bits <= 8:
			return "int8"
		case t.Bits <= 16:
			return "int16"
		case t.Bits <= 32:
			return "int32"
		}
		return "int64"
	case sema.TypeEnum:
		return g.enumTypeName(v)
	}
	switch {
	case t.Bits <= 8:
		return "uint8"
	case t.Bits <= 16:
		return "uint16"
	case t.Bits <= 32:
		return "uint32"
	}
	return "uint64"
}

// regWord returns the uintN type matching the register's port width.
func regWord(width int) string { return fmt.Sprintf("uint%d", width) }

// ---------------------------------------------------------------------------
// Emission

func (g *generator) emitBody() {
	g.emitEnums()
	g.emitDeviceStruct()
	g.emitNew()
	for _, vp := range g.prog.Vars {
		g.emitPlans(vp.Get, vp.Set, vp.BlockIn, vp.BlockOut)
	}
	for _, sp := range g.prog.Structs {
		g.emitPlans(sp.Read, sp.Write)
	}
	g.emitSnapshot()
}

// emitSnapshot emits the MarshalState/UnmarshalState pair implementing
// snap.Snapshotter over the stub's spec-derived state, in the canonical
// wire order of ir.StateLayout — the same order the exec interpreter
// walks dynamically, so snapshots from the two paths are byte-identical.
func (g *generator) emitSnapshot() {
	g.p("// MarshalState appends the stub's spec-derived driver state — memory")
	g.p("// cells, structure-flush caches, register shadows, elision flags,")
	g.p("// structure snapshots, and staged fields — as one snap blob. The")
	g.p("// layout is the canonical ir.StateLayout order, shared with the exec")
	g.p("// interpreter, so cross-path snapshots compare byte for byte.")
	g.p("func (d *Device) MarshalState(dst []byte) ([]byte, error) {")
	g.p("\tc := snap.NewEncoder(dst, %q)", g.spec.Name)
	g.p("\td.snapState(&c)")
	g.p("\treturn c.Finish()")
	g.p("}")
	g.p("")
	g.p("// UnmarshalState restores the state appended by MarshalState. A blob")
	g.p("// for another device, another optimization level, or a corrupted or")
	g.p("// truncated input is rejected with an error; the method never panics.")
	g.p("func (d *Device) UnmarshalState(data []byte) error {")
	g.p("\tc, err := snap.NewDecoder(data, %q)", g.spec.Name)
	g.p("\tif err != nil {")
	g.p("\t\treturn err")
	g.p("\t}")
	g.p("\td.snapState(&c)")
	g.p("\treturn c.Close()")
	g.p("}")
	g.p("")
	g.p("// snapState walks the snapshot slots in wire order, for both")
	g.p("// MarshalState and UnmarshalState.")
	g.p("func (d *Device) snapState(c *snap.Codec) {")
	l := g.prog.Layout
	for _, v := range l.Cells {
		g.p("\tc.U32(&d.%s)", g.cellField(v))
	}
	for _, v := range l.VCached {
		g.p("\tc.U32(&d.%s)", g.vcField(v))
	}
	for _, r := range l.Shadows {
		g.p("\tc.U32(&d.%s)", g.shadowField(r))
	}
	for _, r := range l.Guarded {
		g.p("\tc.Bool(&d.%s)", g.okField(r))
	}
	for _, r := range l.Snapped {
		g.p("\tc.U32(&d.%s)", g.snapField(r))
	}
	for _, s := range l.Readable {
		g.p("\tc.Bool(&d.valid%s)", goName(s.Name, true))
	}
	for _, s := range l.Writable {
		for _, f := range s.Fields {
			g.p("\tc.U32(&d.%s)", g.fldField(f))
			if f.Trigger != nil {
				g.p("\tc.Bool(&d.%s)", g.stgField(f))
			}
		}
	}
	g.p("}")
	g.p("")
}

func (g *generator) emitEnums() {
	for _, v := range g.spec.Variables {
		if v.Type.Kind != sema.TypeEnum {
			continue
		}
		tn := g.enumTypeName(v)
		under := "uint8"
		switch {
		case v.Type.Bits > 32:
			under = "uint64"
		case v.Type.Bits > 16:
			under = "uint32"
		case v.Type.Bits > 8:
			under = "uint16"
		}
		g.p("// %s is the enumerated type of the %s variable.", tn, v.Name)
		g.p("type %s %s", tn, under)
		g.p("")
		g.p("// Symbols of %s.", tn)
		g.p("const (")
		for _, s := range v.Type.Enum {
			if s.CareMask == v.Type.WidthMask() {
				g.p("\t%s %s = %#x", symName(v.Name, s.Name), tn, s.Value)
			}
		}
		g.p(")")
		g.p("")
		g.needFmt = true
		g.p("// String names the symbol matching the value, wildcards included.")
		g.p("func (v %s) String() string {", tn)
		g.p("\tswitch {")
		for _, s := range v.Type.Enum {
			g.p("\tcase uint64(v)&%#x == %#x:", s.CareMask, s.Value)
			g.p("\t\treturn %q", s.Name)
		}
		g.p("\t}")
		g.p("\treturn fmt.Sprintf(%q, uint64(v))", tn+"(%#x)")
		g.p("}")
		g.p("")
	}
}

func (g *generator) emitDeviceStruct() {
	g.needObs = true
	g.p("// Device provides typed access to the %s functional interface.", g.spec.Name)
	g.p("type Device struct {")
	g.p("\tbus bus.Bus")
	g.p("\tspans *obs.Spans // host attribution stack, discovered from the bus")
	for _, p := range g.spec.Ports {
		g.p("\t%s uint32", g.portField(p))
	}
	var shadows, snaps, oks []string
	for _, r := range g.prog.Layout.Shadows {
		shadows = append(shadows, g.shadowField(r))
	}
	for _, r := range g.prog.Layout.Snapped {
		snaps = append(snaps, g.snapField(r))
	}
	for _, r := range g.prog.Layout.Guarded {
		oks = append(oks, g.okField(r))
	}
	sort.Strings(shadows)
	sort.Strings(snaps)
	sort.Strings(oks)
	for _, f := range shadows {
		g.p("\t%s uint32 // last written value, for read-modify-write", f)
	}
	for _, f := range snaps {
		g.p("\t%s uint32 // structure snapshot cache", f)
	}
	for _, f := range oks {
		g.p("\t%s bool // shadow is authoritative: redundant writes may be elided", f)
	}
	for _, v := range g.spec.Variables {
		if v.Cell {
			g.p("\t%s uint32 // private memory cell", g.cellField(v))
		}
		if g.prog.Layout.VCachedSet[v] {
			g.p("\t%s uint32 // last value, composed into structure flushes", g.vcField(v))
		}
	}
	for _, s := range g.spec.Structures {
		if ir.StructReadable(s) {
			g.p("\tvalid%s bool", goName(s.Name, true))
		}
		if ir.StructWritable(s) {
			for _, f := range s.Fields {
				g.p("\t%s uint32 // staged field of %s", g.fldField(f), s.Name)
				if f.Trigger != nil {
					g.p("\t%s bool", g.stgField(f))
				}
			}
		}
	}
	g.p("}")
	g.p("")
}

func (g *generator) emitNew() {
	var args, assigns []string
	for _, p := range g.spec.Ports {
		arg := goName(p.Name, false)
		args = append(args, arg+" uint32")
		assigns = append(assigns, fmt.Sprintf("%s: %s", g.portField(p), arg))
	}
	g.p("// New binds the stubs to a bus at the given port base addresses.")
	g.p("// When the bus carries a host attribution stack (obs.Spanner, as")
	g.p("// *bus.Space does) the stubs annotate it; otherwise spans stay off.")
	g.p("func New(b bus.Bus, %s) *Device {", strings.Join(args, ", "))
	g.p("\td := &Device{bus: b, %s}", strings.Join(assigns, ", "))
	g.p("\tif sp, ok := b.(obs.Spanner); ok {")
	g.p("\t\td.spans = sp.Spans()")
	g.p("\t}")
	g.p("\treturn d")
	g.p("}")
	g.p("")
}

// ---------------------------------------------------------------------------
// Plans

// emitPlans prints the plans that exist, in order.
func (g *generator) emitPlans(plans ...*ir.Plan) {
	for _, p := range plans {
		if p != nil {
			g.emitPlan(p)
		}
	}
}

// planScope is the printing state of one method: the out variable is
// declared by the first composition that runs unconditionally, and the
// registers read so far name their r<N> sources.
type planScope struct {
	arg         string // the register-family parameter in scope, "" if none
	outDeclared bool
	srcs        map[*sema.Register]string
}

// emitPlan prints one plan as a method: the signature, span and typed
// conversions around the plan's steps.
func (g *generator) emitPlan(p *ir.Plan) {
	v, sc := p.Var, &planScope{}
	switch p.Kind {
	case ir.PGet:
		arg := ""
		if v.Param != "" {
			sc.arg = goName(v.Param, false)
			arg = sc.arg + " int"
		}
		g.p("// %s reads the %s device variable.", g.getterName(v), v.Name)
		g.p("func (d *Device) %s(%s) %s {", g.getterName(v), arg, g.goType(v))
		g.span(p.Span(g.spec.Name))
	case ir.PSet:
		arg := ""
		if v.Param != "" {
			sc.arg = goName(v.Param, false)
			arg = ", " + sc.arg + " int"
		}
		g.p("// %s writes the %s device variable.", g.setterName(v), v.Name)
		g.p("func (d *Device) %s(v %s%s) {", g.setterName(v), g.goType(v), arg)
		g.span(p.Span(g.spec.Name))
	case ir.PFieldGet:
		g.p("// %s returns the %s field from the last %s snapshot.", g.getterName(v), v.Name, v.Struct.Name)
		g.p("func (d *Device) %s() %s {", g.getterName(v), g.goType(v))
	case ir.PFieldSet:
		g.p("// %s stages the %s field; %s flushes it to the device.", g.setterName(v), v.Name, g.structMethod("Write", v.Struct))
		g.p("func (d *Device) %s(v %s) {", g.setterName(v), g.goType(v))
	case ir.PRead:
		m := g.structMethod("Read", p.Struct)
		g.p("// %s reads the registers of %s once, refreshing the snapshot the", m, p.Struct.Name)
		g.p("// field getters decode.")
		g.p("func (d *Device) %s() {", m)
		g.span(p.Span(g.spec.Name))
	case ir.PWrite:
		m := g.structMethod("Write", p.Struct)
		g.p("// %s flushes the staged fields of %s in serialization order.", m, p.Struct.Name)
		g.p("func (d *Device) %s() {", m)
		g.span(p.Span(g.spec.Name))
	case ir.PBlockIn, ir.PBlockOut:
		elem := "uint16"
		if v.Width > 16 {
			elem = "uint32"
		}
		name := goName(v.Name, true)
		if p.Kind == ir.PBlockIn {
			g.p("// Read%sBlock reads len(buf) values with one block operation", name)
			g.p("// (the rep-ins equivalent).")
			g.p("func (d *Device) Read%sBlock(buf []%s) {", name, elem)
		} else {
			g.p("// Write%sBlock writes len(buf) values with one block operation", name)
			g.p("// (the rep-outs equivalent).")
			g.p("func (d *Device) Write%sBlock(buf []%s) {", name, elem)
		}
		g.span(p.Span(g.spec.Name))
	}
	g.emitSteps(p, p.Steps, "\t", sc)
	if p.Kind == ir.PGet || p.Kind == ir.PFieldGet {
		g.p("\treturn %s", g.rawToTyped(v, "raw"))
	}
	g.p("}")
	g.p("")
}

// emitSteps prints plan steps as Go statements.
func (g *generator) emitSteps(p *ir.Plan, steps []ir.Step, indent string, sc *planScope) {
	for i := range steps {
		s := &steps[i]
		switch s.Kind {
		case ir.SCompose:
			g.p("%sout %s %s", indent, sc.assign(), g.composeExpr(s))
		case ir.SAccum:
			g.p("%sout %s uint32(%#x)", indent, sc.assign(), s.Or)
			g.emitAccumTerms(s, indent)
		case ir.SMask:
			g.p("%sout = out&%#x | %#x", indent, s.And, s.Or)
		case ir.SCtxCall, ir.SAction:
			g.emitAction(s.Act, s.Var, sc.arg, indent)
		case ir.SWrite:
			w := s.Reg.Write
			g.p("%sd.bus.Out%d(d.%s+%d, %s(out))", indent, w.Port.Width, g.portField(w.Port), w.Offset, regWord(w.Port.Width))
		case ir.SRead:
			r := s.Reg.Read
			src := fmt.Sprintf("r%d", len(sc.srcs))
			if sc.srcs == nil {
				sc.srcs = map[*sema.Register]string{}
			}
			sc.srcs[s.Reg] = src
			g.p("%s%s := uint32(d.bus.In%d(d.%s + %d))", indent, src, r.Port.Width, g.portField(r.Port), r.Offset)
		case ir.SGather:
			g.p("%sraw := %s", indent, gatherExpr(g.runs(s.Var), sc.srcs))
		case ir.SSnap:
			r := s.Reg.Read
			g.p("%sd.%s = uint32(d.bus.In%d(d.%s + %d))", indent, g.snapField(s.Reg), r.Port.Width, g.portField(r.Port), r.Offset)
		case ir.SValid:
			g.p("%sd.valid%s = true", indent, goName(p.Struct.Name, true))
		case ir.SDecode:
			srcs := map[*sema.Register]string{}
			for _, ch := range s.Var.Chunks {
				srcs[ch.Reg] = "d." + g.snapField(ch.Reg)
			}
			g.p("%sraw := %s", indent, gatherExpr(g.runs(s.Var), srcs))
		case ir.SVCache:
			g.p("%sd.%s = raw", indent, g.vcField(s.Var))
		case ir.SStage:
			g.p("%sd.%s = raw", indent, g.fldField(s.Var))
			if s.Var.Trigger != nil {
				g.p("%sd.%s = true", indent, g.stgField(s.Var))
			}
		case ir.SUnstage:
			g.p("%sd.%s = false", indent, g.stgField(s.Var))
		case ir.SShadow:
			g.p("%sd.%s = out", indent, g.shadowField(s.Reg))
		case ir.SOkFlag:
			g.p("%sd.%s = true", indent, g.okField(s.Reg))
		case ir.SBlockIn:
			r := s.Reg.Read
			g.p("%sd.bus.InBlock%d(d.%s+%d, buf)", indent, s.Var.Width, g.portField(r.Port), r.Offset)
		case ir.SBlockOut:
			w := s.Reg.Write
			g.p("%sd.bus.OutBlock%d(d.%s+%d, buf)", indent, s.Var.Width, g.portField(w.Port), w.Offset)
		case ir.SCheckDomain, ir.SCheckWrite, ir.SCheckRead, ir.SCheckValid:
			g.emitCheck(s, sc.arg, indent)
		case ir.SGuard:
			g.p("%sif !(%s) {", indent, g.elisionCond(s.Elide))
			g.emitSteps(p, s.Body, indent+"\t", sc)
			g.p("%s}", indent)
		case ir.SIf:
			op := "=="
			if s.Cond.Neg {
				op = "!="
			}
			g.p("%sif d.%s %s %#x {", indent, g.slotField(s.Cond.Var), op, s.Cond.Value)
			// A declaration inside the if-block stays scoped there, so
			// later steps may declare out again.
			inner := *sc
			g.emitSteps(p, s.Body, indent+"\t", &inner)
			g.p("%s}", indent)
		}
	}
}

// assign returns the assignment operator for out: the first composition
// declares it.
func (sc *planScope) assign() string {
	if sc.outDeclared {
		return "="
	}
	sc.outDeclared = true
	return ":="
}

// composeExpr renders a write composition as one Go expression.
func (g *generator) composeExpr(s *ir.Step) string {
	var parts []string
	for _, t := range s.Expr.Terms {
		switch t.Kind {
		case ir.TRaw:
			parts = append(parts, scatterExpr(g.runs(t.Var), s.Reg, "raw"))
		case ir.TShadow:
			parts = append(parts, fmt.Sprintf("d.%s&%#x", g.shadowField(s.Reg), t.Mask))
		case ir.TVar:
			parts = append(parts, scatterExpr(g.runs(t.Var), s.Reg, "d."+g.slotField(t.Var)))
		default:
			parts = append(parts, fmt.Sprintf("%#x", t.Const))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " | ")
}

// emitAccumTerms prints a flush composition one tenant at a time.
func (g *generator) emitAccumTerms(s *ir.Step, indent string) {
	for _, t := range s.Expr.Terms {
		switch t.Kind {
		case ir.TConst:
			g.p("%sout |= %#x", indent, t.Const)
		case ir.TStaged:
			g.p("%sif d.%s {", indent, g.stgField(t.Var))
			g.p("%s\tout |= %s", indent, scatterExpr(g.runs(t.Var), s.Reg, "d."+g.fldField(t.Var)))
			g.p("%s} else {", indent)
			g.p("%s\tout |= %#x", indent, t.Const)
			g.p("%s}", indent)
		default:
			g.p("%sout |= %s", indent, scatterExpr(g.runs(t.Var), s.Reg, "d."+g.slotField(t.Var)))
		}
	}
}

// elisionCond renders the elision guard: the shadow is authoritative,
// already holds out, and every constant cell assignment already holds.
func (g *generator) elisionCond(el *ir.Elision) string {
	cond := fmt.Sprintf("d.%s && d.%s == out", g.okField(el.Reg), g.shadowField(el.Reg))
	for _, c := range el.Cells {
		cond += fmt.Sprintf(" && d.%s == %#x", g.cellField(c.Cell), c.Val)
	}
	return cond
}

// slotField names the field holding a variable's stored value.
func (g *generator) slotField(v *sema.Variable) string {
	switch ir.SlotOf(v) {
	case ir.SlotCell:
		return g.cellField(v)
	case ir.SlotField:
		return g.fldField(v)
	}
	return g.vcField(v)
}

// span emits the observation prologue attributing every bus access in
// the method to the plan's Devil-level name (the exec interpreter pushes
// the same names, so hand-vs-devil trace diffs line up). The spans
// handle is the host's own stack (nil when the bus has none), so the
// Enabled guard keeps disabled runs at a nil check plus one atomic load
// and observed hosts never contend with unobserved ones.
func (g *generator) span(name string) {
	g.needObs = true
	g.p("\tif d.spans.Enabled() {")
	g.p("\t\tdefer d.spans.Span(%q)()", name)
	g.p("\t}")
}

// ---------------------------------------------------------------------------
// Actions

// valueExpr renders an action value as a uint32 Go expression. cur is the
// variable whose raw value is in scope as "raw" (may be nil); arg is the
// register-family parameter in scope. The plan lowering has already
// rejected every value the stubs cannot express.
func (g *generator) valueExpr(val sema.Value, cur *sema.Variable, arg string) string {
	switch val.Kind {
	case sema.ValConst:
		return fmt.Sprintf("%#x", val.Const)
	case sema.ValParamRef:
		return "uint32(" + arg + ")"
	case sema.ValVarRef:
		if val.Var == cur {
			return "raw"
		}
		return "d." + g.slotField(val.Var)
	}
	return "0"
}

// emitAction prints one action: a cell assignment, a setter call, or a
// structure literal staged and flushed.
func (g *generator) emitAction(a *sema.Action, cur *sema.Variable, arg, indent string) {
	switch {
	case a.TargetVar != nil && a.TargetVar.Cell:
		g.p("%sd.%s = %s", indent, g.cellField(a.TargetVar), g.valueExpr(a.Value, cur, arg))
	case a.TargetVar != nil:
		g.p("%sd.%s(%s)", indent, g.setterName(a.TargetVar), g.castToVarType(a.TargetVar, g.valueExpr(a.Value, cur, arg)))
	default:
		for _, f := range a.Value.Fields {
			e := g.valueExpr(f.Value, cur, arg)
			if f.Var.Cell {
				g.p("%sd.%s = %s", indent, g.cellField(f.Var), e)
				continue
			}
			g.p("%sd.%s(%s)", indent, g.setterName(f.Var), g.castToVarType(f.Var, e))
		}
		g.p("%sd.%s()", indent, g.structMethod("Write", a.TargetStruct))
	}
}

// castToVarType converts a uint32 expression to the variable's Go type.
func (g *generator) castToVarType(v *sema.Variable, e string) string {
	if v.Type.Kind == sema.TypeBool {
		return fmt.Sprintf("%s != 0", e)
	}
	return fmt.Sprintf("%s(%s)", g.goType(v), e)
}

// ---------------------------------------------------------------------------
// Typed conversion and checks

// rawToTyped renders the conversion from a uint32 raw expression to the
// variable's Go type, sign-extending signed integers.
func (g *generator) rawToTyped(v *sema.Variable, raw string) string {
	t := v.Type
	gt := g.goType(v)
	switch t.Kind {
	case sema.TypeBool:
		return raw + " != 0"
	case sema.TypeSInt:
		size := 8
		switch {
		case t.Bits > 32:
			size = 64
		case t.Bits > 16:
			size = 32
		case t.Bits > 8:
			size = 16
		}
		if t.Bits == size {
			return fmt.Sprintf("%s(%s)", gt, raw)
		}
		// Shift the sign bit into place, then arithmetic-shift back.
		return fmt.Sprintf("%s(%s<<%d) >> %d", gt, raw, size-t.Bits, size-t.Bits)
	}
	return fmt.Sprintf("%s(%s)", gt, raw)
}

// typedToRaw renders the conversion from the Go-typed parameter v to a
// uint32 raw value masked to the variable width.
func (g *generator) typedToRaw(v *sema.Variable, expr string) string {
	t := v.Type
	switch t.Kind {
	case sema.TypeBool:
		g.needB32 = true
		return fmt.Sprintf("b32(%s)", expr)
	case sema.TypeSInt:
		return fmt.Sprintf("uint32(%s) & %s", expr, maskLit(t.Bits))
	}
	if t.Bits < 32 {
		return fmt.Sprintf("uint32(%s) & %s", expr, maskLit(t.Bits))
	}
	return fmt.Sprintf("uint32(%s)", expr)
}

// emitCheck prints a check step: under the debug constant, a broken rule
// panics with the step's fault text. A write check first converts the
// typed argument to raw, and tests nothing when the Go parameter type
// admits only legal values (bool, and unsigned integers of 32 bits or
// more).
func (g *generator) emitCheck(s *ir.Step, arg, indent string) {
	v, t := s.Var, s.Var.Type
	var cond string
	switch s.Kind {
	case ir.SCheckDomain:
		cond = ruleCond(arg, sema.Rule{Range: v.Domain})
	case ir.SCheckWrite:
		g.p("%sraw := %s", indent, g.typedToRaw(v, "v"))
		if t.Kind == sema.TypeBool || t.Kind == sema.TypeUInt && t.Bits >= 32 {
			return
		}
		cond = ruleCond("int64(v)", t.WriteRule())
	case ir.SCheckRead:
		cond = ruleCond("int64(raw)", t.ReadRule())
	case ir.SCheckValid:
		cond = "!d.valid" + goName(v.Struct.Name, true)
	}
	g.p("%sif debug && %s {", indent, cond)
	g.p("%s\tpanic(%q)", indent, s.Fault())
	g.p("%s}", indent)
}

// ruleCond renders the test that the expression e breaks the rule.
func ruleCond(e string, r sema.Rule) string {
	var in []string
	for _, rg := range r.Range.Ranges {
		if rg.Lo == rg.Hi {
			in = append(in, fmt.Sprintf("%s == %d", e, rg.Lo))
		} else {
			in = append(in, fmt.Sprintf("%s >= %d && %s <= %d", e, rg.Lo, e, rg.Hi))
		}
	}
	cond := "!(" + strings.Join(in, " || ") + ")"
	if !r.Enum {
		return cond
	}
	if len(r.Syms) == 0 {
		return "true" // no symbol of the direction: every value breaks the rule
	}
	var match []string
	for _, s := range r.Syms {
		match = append(match, fmt.Sprintf("%s&%#x == %#x", e, s.CareMask, s.Value))
	}
	return "(" + cond + " || !(" + strings.Join(match, " || ") + "))"
}
