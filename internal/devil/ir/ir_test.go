package ir_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
	"repro/internal/specs"
)

func TestLevels(t *testing.T) {
	if l, err := ir.ParseLevel("0"); err != nil || l != ir.O0 {
		t.Errorf("ParseLevel(0) = %v, %v", l, err)
	}
	if l, err := ir.ParseLevel("1"); err != nil || l != ir.O1 {
		t.Errorf("ParseLevel(1) = %v, %v", l, err)
	}
	if _, err := ir.ParseLevel("9"); err == nil {
		t.Error("ParseLevel(9) accepted")
	}
	if got := ir.O0.String(); got != "-O0" {
		t.Errorf("O0.String() = %q", got)
	}
	// The zero value is the default level with every pass on, so existing
	// codegen.Options{...} construction sites inherit the optimizer.
	var def ir.OptLevel
	p := def.Passes()
	if !p.Coalesce || !p.ConstFold || !p.ElideRMW || !p.BatchIndex {
		t.Errorf("default level passes = %+v, want all enabled", p)
	}
	if p := ir.O0.Passes(); p != (ir.Passes{}) {
		t.Errorf("O0 passes = %+v, want none", p)
	}
	if got := ir.O0.Passes().String(); got != "none" {
		t.Errorf("O0 pass names = %q", got)
	}
	if got := def.Passes().String(); got != "coalesce,constfold,elide-rmw,batch-index" {
		t.Errorf("O1 pass names = %q", got)
	}
}

// golden compares a plan's stable listing.
func golden(t *testing.T, name string, got *ir.Plan, want string) {
	t.Helper()
	if g, w := got.String(), strings.TrimLeft(want, "\n"); g != w {
		t.Errorf("%s:\n--- got ---\n%s--- want ---\n%s", name, g, w)
	}
}

// A hand-built fragment of the cs4236 index/data window for the pass
// tests: the index variable IA and the data register I9 behind it.
var (
	ia  = &sema.Variable{Name: "IA"}
	pen = &sema.Variable{Name: "pen"}
	i9  = reg8("I9")
)

// reg8 returns a register on an 8-bit port.
func reg8(name string) *sema.Register {
	return &sema.Register{Name: name, Write: &sema.PortUse{Port: &sema.Port{Name: "base", Width: 8}}}
}

// selectI9 returns a fresh context call selecting I9: distinct action
// objects with equal contents, as two registers' pre actions are.
func selectI9(index uint64) ir.Step {
	return ir.Step{Kind: ir.SCtxCall, Reg: i9, Act: &sema.Action{
		TargetVar: ia, Value: sema.Value{Kind: sema.ValConst, Const: index},
	}}
}

// TestRuns checks the bit-run decomposition on a value concatenated from
// two registers, hi[3..0] # lo[6] # lo[1..0]: Runs lists one run per
// stretch of consecutive bits, Place and Extract invert each other, and
// VarMask is the union of a register's runs.
func TestRuns(t *testing.T) {
	hi, lo := &sema.Register{Name: "hi"}, &sema.Register{Name: "lo"}
	v := &sema.Variable{Width: 7, Chunks: []*sema.Chunk{
		{Reg: hi, Bits: []int{3, 2, 1, 0}},
		{Reg: lo, Bits: []int{6, 1, 0}},
	}}
	want := []ir.Run{
		{Reg: hi, ValLo: 3, RegLo: 0, N: 4},
		{Reg: lo, ValLo: 2, RegLo: 6, N: 1},
		{Reg: lo, ValLo: 0, RegLo: 0, N: 2},
	}
	runs := ir.Runs(v)
	if len(runs) != len(want) {
		t.Fatalf("Runs = %+v, want %+v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
	if m := ir.VarMask(lo, v); m != 0x43 {
		t.Errorf("VarMask(lo) = %#x, want 0x43", m)
	}
	for raw := uint64(0); raw < 1<<7; raw++ {
		h, l := ir.Place(runs, hi, raw), ir.Place(runs, lo, raw)
		if h != raw>>3 || l != raw>>2&1<<6|raw&3 {
			t.Fatalf("Place(%#x) = hi %#x lo %#x", raw, h, l)
		}
		if got := ir.Extract(runs, hi, h|0xf0) | ir.Extract(runs, lo, l|0x3c); got != raw {
			t.Fatalf("Extract(Place(%#x)) = %#x", raw, got)
		}
	}
}

func TestCoalesceGolden(t *testing.T) {
	p := &ir.Plan{Kind: ir.PSet, Var: pen, Steps: []ir.Step{
		{Kind: ir.SCompose, Reg: i9, Expr: ir.Expr{Terms: []ir.Term{{Kind: ir.TRaw, Mask: 0x1}}}},
		selectI9(9),
		{Kind: ir.SMask, Reg: i9, And: 0x5},
		selectI9(9), // the same window is already selected: dropped
		selectI9(8), // another window: kept
		{Kind: ir.SWrite, Reg: i9},
		selectI9(8), // a port operation intervened: kept
	}}
	golden(t, "coalesce", ir.Coalesce(p), `
plan pen.set:
  compose I9 = raw
  ctx IA = 0x9 -> I9
  mask &0x5 |0x0
  ctx IA = 0x8 -> I9
  write I9
  ctx IA = 0x8 -> I9
`)
}

func TestConstFoldGolden(t *testing.T) {
	reg := reg8("ctl")
	p := &ir.Plan{Kind: ir.PSet, Var: &sema.Variable{Name: "x"}, Steps: []ir.Step{
		{Kind: ir.SCompose, Reg: reg, Expr: ir.Expr{Terms: []ir.Term{
			{Kind: ir.TRaw, Mask: 0x3},
			{Kind: ir.TConst, Const: 0x20, Mask: 0x20}, // trigger neutral: kept, merged
			{Kind: ir.TConst, Const: 0x00, Mask: 0xc0}, // zero constant: dropped
			{Kind: ir.TShadow, Mask: 0x0},              // masked-out keep: dropped
		}}},
		{Kind: ir.SMask, Reg: reg, And: 0xff, Or: 0x0}, // no-op: dropped
		{Kind: ir.SWrite, Reg: reg},
	}}
	golden(t, "constfold", ir.ConstFold(p), `
plan x.set:
  compose ctl = raw | 0x20
  write ctl
`)
	// A mask that forces bits is not a no-op and must survive; a no-op
	// mask inside a serialization guard is dropped too.
	p2 := &ir.Plan{Kind: ir.PWrite, Struct: &sema.Structure{Name: "y"}, Steps: []ir.Step{
		{Kind: ir.SMask, Reg: reg, And: 0x60, Or: 0x80},
		{Kind: ir.SIf, Cond: &sema.Guard{Var: &sema.Variable{Name: "c", Cell: true}, Value: 1}, Body: []ir.Step{
			{Kind: ir.SMask, Reg: reg, And: 0xff},
			{Kind: ir.SWrite, Reg: reg},
		}},
	}}
	golden(t, "constfold-keep", ir.ConstFold(p2), `
plan y.write:
  mask &0x60 |0x80
  if cell.c == 0x1:
    write ctl
`)
}

func elidablePlan(ctx bool) *ir.Plan {
	xm := &sema.Variable{Name: "xm", Cell: true}
	return &ir.Plan{
		Kind:  ir.PSet,
		Var:   pen,
		Elide: &ir.Elision{Reg: i9, Ctx: ctx, Cells: []ir.CellCond{{Cell: xm, Val: 0}}},
		Steps: []ir.Step{
			{Kind: ir.SCompose, Reg: i9, Expr: ir.Expr{Terms: []ir.Term{{Kind: ir.TRaw, Mask: 0x1}}}},
			{Kind: ir.SMask, Reg: i9, And: 0x5},
			selectI9(9),
			{Kind: ir.SWrite, Reg: i9},
			{Kind: ir.SShadow, Reg: i9},
			{Kind: ir.SOkFlag, Reg: i9},
		},
	}
}

func TestElideRMWGolden(t *testing.T) {
	// Composition and mask stay outside the guard (the guard compares the
	// composed out value); everything effectful moves inside.
	want := `
plan pen.set:
  compose I9 = raw
  mask &0x5 |0x0
  guard unless ok.I9 && shadow.I9 == out && cell.xm == 0x0:
    ctx IA = 0x9 -> I9
    write I9
    shadow I9
    ok I9
`
	golden(t, "elide-rmw", ir.ElideRMW(elidablePlan(false)), want)
	// A context-selector plan is BatchIndex's job, not ElideRMW's.
	p := elidablePlan(true)
	if got := ir.ElideRMW(p).String(); strings.Contains(got, "guard") {
		t.Errorf("ElideRMW guarded a ctx-class plan:\n%s", got)
	}
	golden(t, "batch-index", ir.BatchIndex(p), want)
	// A plan without elision facts is left alone by both passes.
	bare := &ir.Plan{Kind: ir.PSet, Var: &sema.Variable{Name: "z"}, Steps: []ir.Step{{Kind: ir.SWrite, Reg: reg8("R")}}}
	if got := ir.Optimize(bare, ir.O1.Passes()).String(); strings.Contains(got, "guard") {
		t.Errorf("pass set guarded an ineligible plan:\n%s", got)
	}
}

// TestChecksArePure: a check step neither ends a Coalesce window nor
// enters an elision guard, since a check runs even when the write is
// elided.
func TestChecksArePure(t *testing.T) {
	co := &ir.Plan{Kind: ir.PGet, Var: pen, Steps: []ir.Step{
		selectI9(9),
		{Kind: ir.SCheckRead, Var: pen},
		selectI9(9), // only a check intervened: dropped
	}}
	golden(t, "coalesce", ir.Coalesce(co), `
plan pen.get:
  ctx IA = 0x9 -> I9
  check read pen
`)
	want := `
plan pen.set:
  check domain pen
  check write pen
  compose I9 = raw
  mask &0x5 |0x0
  guard unless ok.I9 && shadow.I9 == out && cell.xm == 0x0:
    ctx IA = 0x9 -> I9
    write I9
    shadow I9
    ok I9
`
	for _, ctx := range []bool{false, true} {
		p := elidablePlan(ctx)
		p.Steps = append([]ir.Step{{Kind: ir.SCheckDomain, Var: pen}, {Kind: ir.SCheckWrite, Var: pen}}, p.Steps...)
		golden(t, "guard", ir.Optimize(p, ir.O1.Passes()), want)
	}
}

func TestExprRender(t *testing.T) {
	e := &ir.Expr{}
	if got := e.Render(); got != "0" {
		t.Errorf("empty Render() = %q", got)
	}
	cell := &sema.Variable{Name: "xm", Cell: true}
	e = &ir.Expr{Terms: []ir.Term{
		{Kind: ir.TRaw, Mask: 1}, {Kind: ir.TConst, Const: 0x20, Mask: 0x20},
		{Kind: ir.TShadow, Mask: 0xc0}, {Kind: ir.TVar, Var: cell, Mask: 0x2},
	}}
	if got := e.Render(); got != "raw | 0x20 | shadow&0xc0 | cell.xm" {
		t.Errorf("Render() = %q", got)
	}
}

// TestLowerGolden pins the lowered plans of the library shapes the pass
// tests do not reach: a family getter whose context is a structure
// flush, a family setter, a checked read, a structure-field decode, a
// flush with guarded serialization steps, and a block read.
// Each listing is pinned at both levels; an empty O1 listing means the
// passes leave the plan unchanged.
func TestLowerGolden(t *testing.T) {
	cases := []struct {
		src    []byte
		plan   func(*sema.Device, *ir.Program) *ir.Plan
		o0, o1 string
	}{
		{
			// The cs4236 ext(j) getter: staging XA/XRAE and flushing XS
			// converts I23 into the extended data window.
			src: specs.CS4236,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Vars[s.Variable("ext").Index].Get
			},
			o0: `
plan ext.get:
  check domain ext
  action XS = {XA = arg, XRAE = 0x1}
  read X
  gather ext
`,
		},
		{
			// The ext(j) setter: the domain check, then the write check.
			src: specs.CS4236,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Vars[s.Variable("ext").Index].Set
			},
			o0: `
plan ext.set:
  check domain ext
  check write ext
  compose X = raw
  mask &0xff |0x0
  action XS = {XA = arg, XRAE = 0x1}
  write X
`,
			o1: `
plan ext.set:
  check domain ext
  check write ext
  compose X = raw
  action XS = {XA = arg, XRAE = 0x1}
  write X
`,
		},
		{
			// The int-set index register: the value read is checked.
			src: specs.CS4236,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Vars[s.Variable("IA").Index].Get
			},
			o0: `
plan IA.get:
  read control
  action xm = 0x0
  gather IA
  check read IA
`,
		},
		{
			// A structure field decodes from a snapshot that has been read.
			src: specs.Busmouse,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Vars[s.Variable("dx").Index].Get
			},
			o0: `
plan dx.get:
  check valid dx
  decode dx
`,
		},
		{
			// The XS flush the getter runs: a flush cache (ACF), a staged
			// trigger field, and the field set action updating xm.
			src: specs.CS4236,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Structs[s.Structure("XS").Index].Write
			},
			o0: `
plan XS.write:
  accum I23 = 0x0 | vc.ACF | fld.XA | stg.XRAE?fld.XRAE:0x0
  mask &0xfd |0x0
  ctx IA = 0x17 -> I23
  write I23
  shadow I23
  action xm = fld.XRAE
  unstage XRAE
`,
			o1: `
plan XS.write:
  accum I23 = 0x0 | vc.ACF | fld.XA | stg.XRAE?fld.XRAE:0x0
  mask &0xfd |0x0
  ctx IA = 0x17 -> I23
  write I23
  shadow I23
  ok I23
  action xm = fld.XRAE
  unstage XRAE
`,
		},
		{
			// The pic8259 ICW sequence: ICW3 and ICW4 go out only when the
			// staged ICW1 fields call for them.
			src: specs.PIC8259,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Structs[s.Structure("init").Index].Write
			},
			o0: `
plan init.write:
  accum icw1 = 0x10 | fld.lirq | fld.ltim | fld.adi | fld.sngl | fld.ic4
  mask &0xff |0x10
  write icw1
  accum icw2 = 0x0 | fld.base_vec
  mask &0xf8 |0x0
  write icw2
  if fld.sngl == 0x0:
    accum icw3 = 0x0 | fld.slaves
    mask &0xff |0x0
    write icw3
  if fld.ic4 == 0x1:
    accum icw4 = 0x0 | fld.sfnm | fld.buf | fld.aeoi | fld.microprocessor
    mask &0x1f |0x0
    write icw4
`,
			o1: `
plan init.write:
  accum icw1 = 0x10 | fld.lirq | fld.ltim | fld.adi | fld.sngl | fld.ic4
  mask &0xff |0x10
  write icw1
  accum icw2 = 0x0 | fld.base_vec
  mask &0xf8 |0x0
  write icw2
  if fld.sngl == 0x0:
    accum icw3 = 0x0 | fld.slaves
    write icw3
  if fld.ic4 == 0x1:
    accum icw4 = 0x0 | fld.sfnm | fld.buf | fld.aeoi | fld.microprocessor
    mask &0x1f |0x0
    write icw4
`,
		},
		{
			// The IDE 16-bit PIO data block read.
			src: specs.IDE,
			plan: func(s *sema.Device, p *ir.Program) *ir.Plan {
				return p.Vars[s.Variable("Ide_data").Index].BlockIn
			},
			o0: `
plan Ide_data.blockin:
  blockin Ide_data
`,
		},
	}
	for _, c := range cases {
		spec := core.MustCompile(c.src)
		for _, level := range []ir.OptLevel{ir.O0, ir.O1} {
			prog, err := ir.Lower(spec, level)
			if err != nil {
				t.Fatal(err)
			}
			p := c.plan(spec, prog)
			field := p.Kind == ir.PFieldGet || p.Kind == ir.PFieldSet
			if p.Spanned() == field || p.Span(spec.Name) != spec.Name+"."+p.Name() {
				t.Errorf("%s span = %q", p.Name(), p.Span(spec.Name))
			}
			want := c.o0
			if level == ir.O1 && c.o1 != "" {
				want = c.o1
			}
			golden(t, spec.Name+" "+level.String(), p, want)
		}
	}
}

// TestLowerRejects: the lowering is the one place that rejects the shapes
// neither back end implements, and it names the access.
func TestLowerRejects(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"guarded variable", `
device g (base : bit[8] port @ {0..1})
{
    private variable mode : bool;
    register lo = base @ 0 : bit[8];
    register hi = base @ 1 : bit[8];
    variable x = hi # lo : int(16)
        serialized as {lo; if (mode == true) hi};
}
`, "x.get: guarded variable reads are not supported"},
		{"top-level reference", `
device r (base : bit[8] port @ {0..2})
{
    register a = base @ 0 : bit[8];
    variable va = a : int(8);
    register c = base @ 2 : bit[8];
    variable vc = c : int(8);
    register b = base @ 1, pre {va = vc} : bit[8];
    variable vb = b : int(8);
}
`, "cannot compile reference to variable vc"},
	} {
		spec, err := core.Compile([]byte(c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := ir.Lower(spec, ir.O1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
