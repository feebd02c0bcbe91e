// Package gen_test verifies that every checked-in generated stub package is
// exactly what the current compiler produces from the library specification,
// so the two can never drift apart.
package gen_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devil/codegen"
	"repro/internal/devil/ir"
	"repro/internal/gen"
	"repro/internal/specs"
)

// TestUpdateCreatesMissingDirs covers the one-line-manifest-change
// workflow: Update must create the target directory of a new library
// entry instead of silently failing, write the stub, and be a no-op on
// the second run.
func TestUpdateCreatesMissingDirs(t *testing.T) {
	root := t.TempDir()
	lib := []gen.Stub{
		{Path: "internal/gen/busmouse/busmouse.go", Spec: gen.Library[0].Spec, Opts: gen.Library[0].Opts},
	}
	results, err := gen.Update(root, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Changed {
		t.Fatalf("first run results = %+v, want one changed entry", results)
	}
	dst := filepath.Join(root, "internal", "gen", "busmouse", "busmouse.go")
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("stub not written: %v", err)
	}
	results, err = gen.Update(root, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Changed {
		t.Fatalf("second run results = %+v, want one unchanged entry", results)
	}
}

// TestUpdateRejectsBadSpec: a library entry whose specification does not
// compile must abort the update with an error naming the stub path.
func TestUpdateRejectsBadSpec(t *testing.T) {
	root := t.TempDir()
	lib := []gen.Stub{
		{Path: "internal/gen/broken/broken.go", Spec: []byte("device broken ("), Opts: codegen.Options{Package: "broken"}},
	}
	if _, err := gen.Update(root, lib); err == nil {
		t.Fatal("Update accepted a spec that does not compile")
	} else if !strings.Contains(err.Error(), "internal/gen/broken/broken.go") {
		t.Errorf("error does not name the stub path: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(root, "internal", "gen", "broken")); !os.IsNotExist(statErr) {
		t.Error("Update created the target directory for a failing spec")
	}
}

func TestLibraryCoversAllSpecs(t *testing.T) {
	if got, want := len(gen.Library), len(specs.All()); got != want {
		t.Errorf("gen.Library has %d entries, specs library has %d devices", got, want)
	}
}

func TestCheckedInStubsAreCurrent(t *testing.T) {
	// The check follows DEVIL_STUBS_OPT and DEVIL_STUBS_DEBUG the way the
	// differential tests do, so the CI -O0 and debug legs (which regenerate
	// with devilc -update -O 0 and -debug) verify currency at their
	// setting instead of flagging every stub stale.
	level := ir.O1
	if os.Getenv("DEVIL_STUBS_OPT") == "0" {
		level = ir.O0
	}
	for _, gv := range gen.Library {
		// Library paths are repository-relative; the test runs in
		// internal/gen.
		file := strings.TrimPrefix(gv.Path, "internal/gen/")
		t.Run(file, func(t *testing.T) {
			spec := core.MustCompile(gv.Spec)
			opts := gv.Opts
			opts.Opt, opts.Debug = level, stubsDebug()
			want, err := codegen.Generate(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.FromSlash(file))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s is stale; regenerate with devilc -update", file)
			}
		})
	}
}
