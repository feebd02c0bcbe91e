// Devilc is the Devil compiler driver: it checks a specification and
// generates a Go stub package.
//
// Usage:
//
//	devilc [-check] [-pkg name] [-debug] [-O level] [-o out.go] spec.dil
//	devilc -update [-root dir] [-debug] [-O level]
//	devilc vet [-json] [-Werror] [-Wall] [-suppress CODES] spec.dil...
//	devilc vet -codes
//
// With -check the specification is only verified (§3.1 properties) and
// diagnostics are printed. Otherwise Go stubs are written to -o (or stdout).
//
// The vet subcommand reports structured diagnostics: compiler errors (E…)
// and the warning-grade spec analyses of internal/devil/lint (W…), in text
// or -json form, with per-code suppression and -Werror gating for CI.
//
// -O selects the optimization level of the generated port-access plans:
// -O 1 (the default) enables all peephole passes — coalesce, constfold,
// elide-rmw, batch-index — and -O 0 disables them, emitting one port
// access per variable write.
//
// With -update devilc regenerates every checked-in stub package of the
// specification library (gen.Library) under the repository root given by
// -root, so the golden files in internal/gen never drift from their
// internal/specs sources. With -debug the stubs are regenerated with the
// §3.2 run-time checks enabled, for a test run over debug stubs.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/devil/codegen"
	"repro/internal/devil/ir"
	"repro/internal/gen"
)

func main() {
	// Subcommand form: `devilc vet [flags] spec.dil...` — structured
	// diagnostics (E… errors + W… spec analyses) in text or JSON.
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:], os.Stdout, os.Stderr))
	}

	checkOnly := flag.Bool("check", false, "verify the specification only")
	pkg := flag.String("pkg", "", "generated package name (default: device name)")
	debug := flag.Bool("debug", false, "generate with runtime checks enabled")
	out := flag.String("o", "", "output file (default: stdout)")
	busImport := flag.String("bus", "", "bus package import path")
	optFlag := flag.String("O", "1", "optimization level (0 disables all peephole passes)")
	update := flag.Bool("update", false, "regenerate every checked-in library stub package")
	root := flag.String("root", ".", "repository root for -update")
	flag.Parse()

	level, err := ir.ParseLevel(*optFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "devilc:", err)
		os.Exit(2)
	}

	if *update {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: devilc -update [-root dir] [-debug] [-O level]")
			os.Exit(2)
		}
		if err := updateLibrary(*root, level, *debug); err != nil {
			fmt.Fprintln(os.Stderr, "devilc:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: devilc [-check] [-pkg name] [-debug] [-O level] [-o out.go] spec.dil | devilc -update [-root dir] [-debug] [-O level]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "devilc:", err)
		os.Exit(1)
	}

	spec, err := core.Compile(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *checkOnly {
		fmt.Printf("%s: specification OK (%d registers, %d variables, %d structures)\n",
			flag.Arg(0), len(spec.Registers), len(spec.Variables), len(spec.Structures))
		return
	}

	code, err := codegen.Generate(spec, codegen.Options{
		Package:   *pkg,
		Debug:     *debug,
		BusImport: *busImport,
		Opt:       level,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(code)
		return
	}
	if err := os.WriteFile(*out, code, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "devilc:", err)
		os.Exit(1)
	}
}

// updateLibrary regenerates the checked-in stub files from the embedded
// library specifications at the given optimization level, with the
// run-time checks on when debug is set.
func updateLibrary(root string, level ir.OptLevel, debug bool) error {
	results, err := gen.UpdateLevel(root, gen.Library, level, debug)
	for _, r := range results {
		if r.Changed {
			fmt.Printf("%s regenerated\n", r.Path)
		} else {
			fmt.Printf("%s up to date\n", r.Path)
		}
	}
	return err
}
