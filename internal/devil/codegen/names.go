// Package codegen generates Go stub packages from resolved Devil
// specifications by printing the access plans of package ir — the same
// plans package exec interprets. Codegen owns only the Go side: naming,
// types, the §3.2 debug checks, the snapshot methods, and the
// verification of the emitted source.
//
// For a device the generator emits one Go source file containing:
//
//   - a Device struct holding the bus handle, port bases, register shadows
//     (for read-modify-write on shared registers), memory cells, structure
//     snapshot caches, and staged structure fields;
//   - a typed getter and/or setter per public device variable, with masking,
//     shifting, concatenation, pre/post/set actions, trigger-neutral
//     composition, and serialization compiled to straight-line code;
//   - named enum types with constants and String methods;
//   - Read<Struct>/Write<Struct> methods implementing snapshot reads and
//     guarded serialization flushes;
//   - Read/Write<Var>Block methods for block-transfer variables;
//   - optional §3.2 debug checks behind a generated "debug" constant, so
//     the checked build is one constant flip away (the Go analogue of the
//     paper's #define DEVIL_DEBUG).
package codegen

import (
	"strings"
	"unicode"
)

// goName converts a Devil identifier (typically snake_case) to an exported
// or unexported Go identifier.
func goName(devil string, exported bool) string {
	var b strings.Builder
	up := exported
	for _, r := range devil {
		if r == '_' {
			up = true
			continue
		}
		if up {
			b.WriteRune(unicode.ToUpper(r))
			up = false
		} else {
			b.WriteRune(r)
		}
	}
	s := b.String()
	if s == "" {
		return "x"
	}
	if !exported {
		// Lowercase the leading rune; avoid Go keywords by suffixing.
		rs := []rune(s)
		rs[0] = unicode.ToLower(rs[0])
		s = string(rs)
		switch s {
		case "break", "case", "chan", "const", "continue", "default", "defer",
			"else", "fallthrough", "for", "func", "go", "goto", "if", "import",
			"interface", "map", "package", "range", "return", "select",
			"struct", "switch", "type", "var":
			s += "_"
		}
	}
	return s
}

// symName converts an enum symbol (typically SHOUTING_CASE) into a Go
// constant name prefixed with the variable's exported name:
// config/CONFIGURATION -> ConfigCONFIGURATION.
func symName(varName, sym string) string {
	return goName(varName, true) + strings.ReplaceAll(sym, "_", "")
}
