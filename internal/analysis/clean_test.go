package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/nodeprecated"
	"repro/internal/analysis/rawport"
	"repro/internal/analysis/snapdecode"
	"repro/internal/analysis/spanpair"
)

// TestLoad exercises the loader on a small real package: syntax,
// types, and type-checker facts must all be populated.
func TestLoad(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./internal/snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "repro/internal/snap" {
		t.Errorf("path = %q", p.Path)
	}
	if len(p.Syntax) == 0 || p.Types == nil || p.TypesInfo == nil {
		t.Fatal("package not fully loaded")
	}
	if p.Types.Scope().Lookup("Codec") == nil {
		t.Error("type information missing snap.Codec")
	}
	for _, f := range p.Syntax {
		if f.Comments == nil {
			t.Error("syntax parsed without comments (pragmas and Deprecated: markers need them)")
			break
		}
	}
}

// TestRepositoryClean is the standing guard CI relies on: the whole
// module is free of findings from every analyzer. The hand-crafted
// drivers carry //devil:rawport pragmas; everything else must hold the
// invariants outright.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module via go list -export")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; pattern resolution broken?", len(pkgs))
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{
		nodeprecated.Analyzer, rawport.Analyzer, snapdecode.Analyzer, spanpair.Analyzer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		var b strings.Builder
		for _, f := range findings {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		t.Errorf("repository not clean:\n%s", b.String())
	}
}
