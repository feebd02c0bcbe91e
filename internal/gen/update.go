package gen

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/devil/codegen"
	"repro/internal/devil/ir"
)

// UpdateResult reports what Update did for one library stub.
type UpdateResult struct {
	Path    string
	Changed bool
}

// Update regenerates the checked-in stub files of lib under the repository
// root at the default optimization level: every specification is compiled,
// the stubs are generated, and the target file is rewritten when its
// content differs. Missing target directories are created, so adding a
// device to the library is a one-line manifest change. A specification that
// fails to compile or generate aborts the update with an error naming the
// stub path.
func Update(root string, lib []Stub) ([]UpdateResult, error) {
	return UpdateLevel(root, lib, ir.O1, false)
}

// UpdateLevel is Update with an explicit optimization level and debug
// setting overriding each stub's manifest options (devilc -update -O 0
// -debug). Generation verifies the emitted source — go/parser and gofmt —
// before anything is written, and a verification failure names the
// optimization pass that produced the invalid plan.
func UpdateLevel(root string, lib []Stub, level ir.OptLevel, debug bool) ([]UpdateResult, error) {
	var results []UpdateResult
	for _, s := range lib {
		spec, err := core.Compile(s.Spec)
		if err != nil {
			return results, fmt.Errorf("%s: specification does not compile: %w", s.Path, err)
		}
		opts := s.Opts
		opts.Opt, opts.Debug = level, debug
		code, err := codegen.Generate(spec, opts)
		if err != nil {
			return results, fmt.Errorf("%s: %w", s.Path, err)
		}
		dst := filepath.Join(root, filepath.FromSlash(s.Path))
		if old, err := os.ReadFile(dst); err == nil && string(old) == string(code) {
			results = append(results, UpdateResult{Path: s.Path})
			continue
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return results, fmt.Errorf("%s: %w", s.Path, err)
		}
		if err := os.WriteFile(dst, code, 0o644); err != nil {
			return results, fmt.Errorf("%s: %w", s.Path, err)
		}
		results = append(results, UpdateResult{Path: s.Path, Changed: true})
	}
	return results, nil
}
