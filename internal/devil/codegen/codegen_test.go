package codegen

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
	"repro/internal/specs"
)

func TestGoName(t *testing.T) {
	tests := []struct {
		in       string
		exported bool
		want     string
	}{
		{"logitech_busmouse", true, "LogitechBusmouse"},
		{"dx", true, "Dx"},
		{"mouse_state", true, "MouseState"},
		{"index", false, "index"},
		{"x_high", false, "xHigh"},
		{"ide_data", true, "IdeData"},
		{"type", false, "type_"},
		{"IA", true, "IA"},
	}
	for _, tt := range tests {
		if got := goName(tt.in, tt.exported); got != tt.want {
			t.Errorf("goName(%q,%v) = %q, want %q", tt.in, tt.exported, got, tt.want)
		}
	}
}

func TestSymName(t *testing.T) {
	if got := symName("config", "DEFAULT_MODE"); got != "ConfigDEFAULTMODE" {
		t.Errorf("symName = %q", got)
	}
}

// TestChunkRuns pins the expressions printed for a chunk's ir runs: one
// shift and mask per run of consecutive register bits.
func TestChunkRuns(t *testing.T) {
	reg := &sema.Register{Name: "r"}
	for _, tt := range []struct {
		bits            []int
		scatter, gather string
	}{
		// [3 2 1 0]: one run.
		{[]int{3, 2, 1, 0}, "(raw & 0xf)", "(r & 0xf)"},
		// The XA pattern [2 7 6 5 4]: two runs.
		{[]int{2, 7, 6, 5, 4},
			"((raw >> 4) & 0x1) << 2 | (raw & 0xf) << 4",
			"((r >> 2) & 0x1) << 4 | ((r >> 4) & 0xf)"},
		// Non-contiguous single bits [7 5 3]: three runs.
		{[]int{7, 5, 3},
			"((raw >> 2) & 0x1) << 7 | ((raw >> 1) & 0x1) << 5 | (raw & 0x1) << 3",
			"((r >> 7) & 0x1) << 2 | ((r >> 5) & 0x1) << 1 | ((r >> 3) & 0x1)"},
	} {
		v := &sema.Variable{Width: len(tt.bits), Chunks: []*sema.Chunk{{Reg: reg, Bits: tt.bits}}}
		if got := scatterExpr(ir.Runs(v), reg, "raw"); got != tt.scatter {
			t.Errorf("%v: scatter %s, want %s", tt.bits, got, tt.scatter)
		}
		if got := gatherExpr(ir.Runs(v), map[*sema.Register]string{reg: "r"}); got != tt.gather {
			t.Errorf("%v: gather %s, want %s", tt.bits, got, tt.gather)
		}
	}
}

func TestGenerateBusmouseCompilesIdempotently(t *testing.T) {
	spec := core.MustCompile(specs.Busmouse)
	a, err := Generate(spec, Options{Package: "busmouse"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, Options{Package: "busmouse"})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("generation is not deterministic")
	}
	for _, want := range []string{
		"func (d *Device) Dx() int8",
		"func (d *Device) ReadMouseState()",
		"func (d *Device) SetConfig(v ConfigVal)",
		"out = out&0x1 | 0x90",  // cr forced bits 1001000.
		"out = out&0x60 | 0x80", // index_reg forced bits 1..00000
	} {
		if !strings.Contains(string(a), want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

// TestGenerateMultiStepWritePlans guards against the out := redeclaration
// bug: a variable or structure whose write plan spans several registers
// (dma8237's serialized low/high byte pairs, pic8259's guarded ICW
// sequence) must reuse one out variable per function scope, or the
// generated file does not compile.
func TestGenerateMultiStepWritePlans(t *testing.T) {
	for _, tt := range []struct {
		name string
		src  []byte
		pkg  string
	}{
		{"dma8237", specs.DMA8237, "dma8237"},
		{"pic8259", specs.PIC8259, "pic8259"},
		{"cs4236", specs.CS4236, "cs4236"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			spec := core.MustCompile(tt.src)
			code, err := Generate(spec, Options{Package: tt.pkg})
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			file, err := goparser.ParseFile(fset, tt.pkg+".go", code, 0)
			if err != nil {
				t.Fatalf("generated code does not parse: %v", err)
			}
			// No function body may define out twice in the same block
			// scope (":= redeclaration" is a type error go/format does
			// not catch).
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkNoRedeclare(t, fset, fn.Name.Name, fn.Body)
			}
		})
	}
}

// checkNoRedeclare walks one block and its nested blocks, asserting that
// no identifier is short-declared twice in the same block.
func checkNoRedeclare(t *testing.T, fset *token.FileSet, fn string, block *ast.BlockStmt) {
	t.Helper()
	declared := map[string]bool{}
	for _, stmt := range block.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				continue
			}
			for _, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if declared[id.Name] {
					t.Errorf("%s: %s redeclared with := at %s", fn, id.Name, fset.Position(id.Pos()))
				}
				declared[id.Name] = true
			}
		case *ast.IfStmt:
			checkNoRedeclare(t, fset, fn, s.Body)
			if inner, ok := s.Else.(*ast.BlockStmt); ok {
				checkNoRedeclare(t, fset, fn, inner)
			}
		case *ast.BlockStmt:
			checkNoRedeclare(t, fset, fn, s)
		case *ast.ForStmt:
			checkNoRedeclare(t, fset, fn, s.Body)
		}
	}
}

func TestGenerateDebugVariant(t *testing.T) {
	spec := core.MustCompile(specs.Busmouse)
	code, err := Generate(spec, Options{Package: "busmouse", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "const debug = true") {
		t.Error("debug constant not set")
	}
}

func TestGenerateDefaultsPackageName(t *testing.T) {
	spec := core.MustCompile(specs.Busmouse)
	code, err := Generate(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "package logitechbusmouse") {
		t.Error("default package name not derived from device name")
	}
}
