package codegen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/ir"
	"repro/internal/specs"
)

// TestGenerateOptLevels: -O0 emits the plain read-modify-write stubs with
// no elision machinery, the default level guards every eligible register,
// and the two levels really produce different source for devices the
// analysis can optimize.
func TestGenerateOptLevels(t *testing.T) {
	spec := core.MustCompile(specs.CS4236)
	plain, err := Generate(spec, Options{Package: "cs4236", Opt: ir.O0})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Generate(spec, Options{Package: "cs4236"})
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) == string(opt) {
		t.Fatal("-O0 and default emit identical cs4236 source")
	}
	for _, banned := range []string{"okControl", "okI9", "if !("} {
		if strings.Contains(string(plain), banned) {
			t.Errorf("-O0 output contains elision machinery %q", banned)
		}
	}
	for _, want := range []string{
		// batch-index guards the index register itself...
		"if !(d.okControl && d.shadowControl == out && d.cellXm == 0x0) {",
		// ...and elide-rmw guards the indexed data registers behind it.
		"if !(d.okI9 && d.shadowI9 == out) {",
		"d.okI9 = true",
		// The shadow doubles as elision state, documented on the field.
		"shadow is authoritative",
	} {
		if !strings.Contains(string(opt), want) {
			t.Errorf("default output missing %q", want)
		}
	}
	// The -O0 no-op width mask survives; constfold drops it.
	if !strings.Contains(string(plain), "out = out&0xff | 0x0") {
		t.Error("-O0 output lost the full-width mask")
	}
	if strings.Contains(string(opt), "out = out&0xff | 0x0") {
		t.Error("constfold left a no-op full-width mask in the default output")
	}
}

// TestGeneratePassSubsets generates under individual passes: each pass
// must only introduce its own shape of change.
func TestGeneratePassSubsets(t *testing.T) {
	spec := core.MustCompile(specs.CS4236)
	gen := func(p ir.Passes) string {
		t.Helper()
		raw, err := generate(spec, Options{Package: "cs4236", BusImport: "repro/internal/bus"}, p)
		if err != nil {
			t.Fatal(err)
		}
		code, err := verifySource(raw)
		if err != nil {
			t.Fatal(err)
		}
		return string(code)
	}

	constfold := gen(ir.Passes{ConstFold: true})
	if strings.Contains(constfold, "out = out&0xff | 0x0") {
		t.Error("constfold alone kept a no-op mask")
	}
	if strings.Contains(constfold, "d.okI9") {
		t.Error("constfold alone introduced elision guards")
	}

	elide := gen(ir.Passes{ElideRMW: true})
	if !strings.Contains(elide, "if !(d.okI9 && d.shadowI9 == out) {") {
		t.Error("elide-rmw did not guard the data-class register I9")
	}
	if strings.Contains(elide, "d.okControl") {
		t.Error("elide-rmw guarded the context-selector register (batch-index's job)")
	}

	batch := gen(ir.Passes{BatchIndex: true})
	if !strings.Contains(batch, "if !(d.okControl && d.shadowControl == out && d.cellXm == 0x0) {") {
		t.Error("batch-index did not guard the index register")
	}
	if strings.Contains(batch, "d.okI9") {
		t.Error("batch-index guarded a data-class register (elide-rmw's job)")
	}
}

// TestGenerateOptimizedLibraryVerifies: every library device must survive
// the built-in parse+gofmt verification at both levels — the verifier is
// what turns a bad pass into a named error instead of a broken stub.
func TestGenerateOptimizedLibraryVerifies(t *testing.T) {
	for name, src := range specs.All() {
		for _, level := range []ir.OptLevel{ir.O0, ir.O1} {
			spec := core.MustCompile(src)
			code, err := Generate(spec, Options{Package: name, Opt: level})
			if err != nil {
				t.Errorf("%s %s: %v", name, level, err)
				continue
			}
			if formatted, err := verifySource(code); err != nil {
				t.Errorf("%s %s: emitted source fails verification: %v", name, level, err)
			} else if string(formatted) != string(code) {
				t.Errorf("%s %s: emitted source is not gofmt-clean", name, level)
			}
		}
	}
}

// TestBisectPassesNamesCulprit: the bisection helper must point at the
// pass that first breaks verification, so codegen bugs surface with the
// responsible optimization in the error text.
func TestBisectPassesNamesCulprit(t *testing.T) {
	spec := core.MustCompile(specs.CS4236)
	if got := bisectPasses(spec, Options{Package: "cs4236"}, ir.O1.Passes()); got != "unknown (pass interaction)" {
		// All passes are healthy, so bisection walks the full ladder
		// without finding a breakage.
		t.Errorf("bisect on healthy passes = %q", got)
	}
}

// TestVerifySourceRejects: verification accepts only a complete,
// well-formed file. gofmt alone would format a declaration list without a
// package clause.
func TestVerifySourceRejects(t *testing.T) {
	for name, src := range map[string]string{
		"syntax error": "package p\n\nfunc f() {\n\treturn (\n}\n",
		"fragment":     "func f() {}\n",
	} {
		if _, err := verifySource([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := verifySource([]byte("package p\n\nfunc f() {}\n")); err != nil {
		t.Errorf("complete file rejected: %v", err)
	}
}
