package codegen

import (
	"fmt"
	"go/format"
	"go/parser"
	"go/token"

	"repro/internal/devil/ir"
	"repro/internal/devil/sema"
)

// generateVerified emits the stub source for the requested pass set and
// verifies it — go/parser first, then gofmt — before returning it. When
// verification fails, the pass configuration is bisected (passes added one
// at a time in application order) so the error names the optimization pass
// that produced the invalid plan.
func generateVerified(spec *sema.Device, opts Options) ([]byte, error) {
	passes := opts.Opt.Passes()
	raw, err := generate(spec, opts, passes)
	if err != nil {
		return nil, err
	}
	src, verr := verifySource(raw)
	if verr == nil {
		return src, nil
	}
	culprit := bisectPasses(spec, opts, passes)
	return nil, fmt.Errorf("devil codegen: %s: emitted invalid Go (introduced by pass %s): %w\n%s",
		spec.Name, culprit, verr, raw)
}

// verifySource checks that src parses as a Go source file and returns the
// gofmt-formatted form. The source is parsed in full once, by gofmt, which
// rejects any syntax error; the package-clause parse before it only keeps
// gofmt from accepting a fragment (gofmt formats partial source too).
func verifySource(src []byte) ([]byte, error) {
	if _, err := parser.ParseFile(token.NewFileSet(), "generated.go", src, parser.PackageClauseOnly); err != nil {
		return nil, fmt.Errorf("go/parser: %w", err)
	}
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("gofmt: %w", err)
	}
	return out, nil
}

// bisectPasses re-runs generation with passes enabled one at a time, in
// application order, and names the first pass whose addition breaks
// verification.
func bisectPasses(spec *sema.Device, opts Options, enabled ir.Passes) string {
	check := func(p ir.Passes) bool {
		raw, err := generate(spec, opts, p)
		if err != nil {
			return false
		}
		_, err = verifySource(raw)
		return err == nil
	}
	if !check(ir.Passes{}) {
		return "none (base emission)"
	}
	cur := ir.Passes{}
	stages := []struct {
		name   string
		on     bool
		enable func(*ir.Passes)
	}{
		{"coalesce", enabled.Coalesce, func(p *ir.Passes) { p.Coalesce = true }},
		{"constfold", enabled.ConstFold, func(p *ir.Passes) { p.ConstFold = true }},
		{"elide-rmw", enabled.ElideRMW, func(p *ir.Passes) { p.ElideRMW = true }},
		{"batch-index", enabled.BatchIndex, func(p *ir.Passes) { p.BatchIndex = true }},
	}
	for _, st := range stages {
		if !st.on {
			continue
		}
		st.enable(&cur)
		if !check(cur) {
			return st.name
		}
	}
	return "unknown (pass interaction)"
}
