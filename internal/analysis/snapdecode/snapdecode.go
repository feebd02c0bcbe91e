// Package snapdecode defines an analyzer keeping snapshot decoding on
// the snap package's total decoder.
//
// UnmarshalState implementations, and every snapshot walk (any function
// taking a *snap.Codec, which UnmarshalState runs to decode), must never
// index or re-slice raw payload bytes or decode them with encoding/binary
// directly: snap.Codec and snap.UnmarshalParts are total (truncated or
// corrupt input latches an error instead of panicking), and every
// hand-rolled offset computation is a skew bug waiting for the next added
// field. The snap package itself implements the decoder and is exempt.
package snapdecode

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the snapdecode analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "snapdecode",
	Doc:  "flag UnmarshalState bodies and snap.Codec walks that index raw payload bytes or decode with encoding/binary",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == "repro/internal/snap" {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			switch {
			case fn.Name.Name == "UnmarshalState":
				checkBody(pass, fn, "UnmarshalState")
			case takesCodec(pass, fn):
				checkBody(pass, fn, "snapshot walk "+fn.Name.Name)
			}
		}
	}
	return nil
}

// takesCodec reports whether fn has a *snap.Codec parameter.
func takesCodec(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		p, ok := pass.TypesInfo.TypeOf(field.Type).(*types.Pointer)
		if !ok {
			continue
		}
		if n, ok := p.Elem().(*types.Named); ok && n.Obj().Name() == "Codec" &&
			n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/snap" {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl, what string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[e.Sel]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "encoding/binary" {
				pass.Reportf(e.Pos(),
					"%s decodes with encoding/binary.%s: walk the field through snap.Codec (it is total on corrupt input)",
					what, e.Sel.Name)
				return false
			}
		case *ast.IndexExpr:
			if isByteSlice(pass, e.X) {
				pass.Reportf(e.Pos(),
					"%s indexes raw payload bytes: walk the field through snap.Codec or snap.UnmarshalParts", what)
				return false
			}
		case *ast.SliceExpr:
			if isByteSlice(pass, e.X) {
				pass.Reportf(e.Pos(),
					"%s re-slices raw payload bytes: walk the field through snap.Codec or snap.UnmarshalParts", what)
				return false
			}
		}
		return true
	})
}

// isByteSlice reports whether e has type []byte.
func isByteSlice(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	s, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
