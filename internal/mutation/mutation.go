// Package mutation implements the error-detection-coverage study of the
// paper's §4.2 (Table 1).
//
// Mutation analysis produces, for a program P, a set of alternate programs,
// each differing from P in a single token, generated by inserting,
// replacing, or removing one character of the token (operators, identifiers
// and literal constants are the mutation classes). A mutant counts as
// *detected* when the language's compiler/checker rejects it; the fewer
// undetected mutants, the more errors the language catches for free.
//
// Three checkers are compared, as in the paper:
//
//   - C          — hand-crafted driver fragments checked by the permissive
//     mini-C front end (package minic),
//   - Devil      — the device specifications checked by the Devil compiler
//     (§3.1 consistency properties),
//   - C_Devil    — driver fragments calling Devil-generated stubs, checked
//     by the stub-signature-aware mini-C mode (typed enums, arities,
//     compile-time range checks on constant arguments).
//
// The mutation rules follow the paper's conventions: mutants must remain
// lexically plausible (an identifier never mutates into a malformed token),
// and the rules are chosen so that C is favoured.
package mutation

import (
	"fmt"
	"strings"

	"repro/internal/devil/scanner"
	"repro/internal/devil/token"
	"repro/internal/minic"
)

// Class is a mutation-site class.
type Class int

// Site classes.
const (
	ClassIdent Class = iota
	ClassNumber
	ClassOp
	ClassBits // Devil bit patterns '1001000.'
)

// Site is one mutable token in a source text.
type Site struct {
	Pos   int // byte offset of the token
	Text  string
	Class Class
}

// Result aggregates one row of Table 1.
type Result struct {
	Lines      int
	Sites      int
	Mutants    int
	Undetected int
}

// MutantsPerSite is the paper's "Mutants per site" column.
func (r Result) MutantsPerSite() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Mutants) / float64(r.Sites)
}

// UndetectedPerSite is the paper's "Undetected mutants per site" column.
func (r Result) UndetectedPerSite() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Undetected) / float64(r.Sites)
}

// SitesWithUndetected is the paper's s_um = um_s/m_s * s estimator: the
// number of mutation sites expected to carry at least one undetected error.
func (r Result) SitesWithUndetected() float64 {
	if r.Mutants == 0 {
		return 0
	}
	return float64(r.Undetected) / float64(r.Mutants) * float64(r.Sites)
}

// Add combines two results (the paper's Devil+C_Devil rows).
func (r Result) Add(o Result) Result {
	return Result{
		Lines:      r.Lines + o.Lines,
		Sites:      r.Sites + o.Sites,
		Mutants:    r.Mutants + o.Mutants,
		Undetected: r.Undetected + o.Undetected,
	}
}

// ---------------------------------------------------------------------------
// Mutant generation

// identReplaceAlphabet and identInsertAlphabet are intentionally small —
// full [a-z0-9_] enumeration would multiply the Devil spec's mutant count
// (where identifiers dominate) without changing the verdicts, and the
// paper's rules favour C.
var (
	identReplaceAlphabet = []byte{'a', 'e', 'o', 'x', '1', '_'}
	identInsertAlphabet  = []byte{'x', '_'}
	bitChars             = []byte{'0', '1', '.', '*', '-'}
)

// opReplacements maps each operator to its confusable alternatives
// (the paper's example: || may become |).
var opReplacements = map[string][]string{
	"||":  {"|", "&&"},
	"&&":  {"&", "||"},
	"|":   {"||", "&", "^"},
	"&":   {"&&", "|", "^"},
	"^":   {"|", "&"},
	"<<":  {"<", ">>"},
	">>":  {">", "<<"},
	"<":   {"<<", "<="},
	">":   {">>", ">="},
	"<=":  {"<", "=="},
	">=":  {">", "=="},
	"==":  {"=", "!="},
	"!=":  {"==", "="},
	"=":   {"=="},
	"+":   {"-", "*"},
	"-":   {"+", "~"},
	"*":   {"+", "/"},
	"/":   {"*", "%"},
	"%":   {"/"},
	"~":   {"-", "!"},
	"!":   {"~"},
	"|=":  {"&=", "="},
	"&=":  {"|=", "="},
	"+=":  {"-=", "="},
	"-=":  {"+=", "="},
	"<<=": {">>=", "="},
	">>=": {"<<=", "="},
	// Devil operators.
	"@":   {"#"},
	"#":   {"@"},
	"..":  {"."},
	"=>":  {"<=", "<=>"},
	"<=>": {"<=", "=>"},
}

// mutate enumerates the replacement texts for one site.
func mutate(s Site) []string {
	var out []string
	add := func(m string) {
		if m != s.Text {
			out = append(out, m)
		}
	}
	switch s.Class {
	case ClassNumber:
		body := s.Text
		prefix := ""
		alphabet := "0123456789"
		if strings.HasPrefix(body, "0x") || strings.HasPrefix(body, "0X") {
			prefix, body = body[:2], body[2:]
			alphabet = "0123456789abcdef"
		}
		origVal, origOK := numValue(prefix, body)
		add = func(m string) {
			if m == s.Text {
				return
			}
			// Mutants must modify the semantics: a literal whose numeric
			// value is unchanged (leading zeros, case) is not an error.
			if v, ok := numValue2(m); ok && origOK && v == origVal {
				return
			}
			out = append(out, m)
		}
		// Deletions (keep at least one digit).
		if len(body) > 1 {
			for i := range body {
				add(prefix + body[:i] + body[i+1:])
			}
		}
		// Insertions and replacements.
		for i := 0; i <= len(body); i++ {
			for _, c := range []byte(alphabet) {
				add(prefix + body[:i] + string(c) + body[i:])
				if i < len(body) {
					add(prefix + body[:i] + string(c) + body[i+1:])
				}
			}
		}
	case ClassIdent:
		t := s.Text
		if len(t) > 1 {
			for i := range t {
				m := t[:i] + t[i+1:]
				if isIdentText(m) {
					add(m)
				}
			}
		}
		for i := 0; i < len(t); i++ {
			for _, c := range identReplaceAlphabet {
				m := t[:i] + string(c) + t[i+1:]
				if isIdentText(m) {
					add(m)
				}
			}
		}
		for i := 0; i <= len(t); i++ {
			for _, c := range identInsertAlphabet {
				m := t[:i] + string(c) + t[i:]
				if isIdentText(m) {
					add(m)
				}
			}
		}
	case ClassOp:
		for _, m := range opReplacements[s.Text] {
			add(m)
		}
	case ClassBits:
		// The site text is the pattern without quotes; the splice keeps
		// the quotes.
		t := s.Text
		if len(t) > 1 {
			for i := range t {
				add(t[:i] + t[i+1:])
			}
		}
		for i := 0; i <= len(t); i++ {
			for _, c := range bitChars {
				add(t[:i] + string(c) + t[i:])
				if i < len(t) && t[i] != c {
					add(t[:i] + string(c) + t[i+1:])
				}
			}
		}
	}
	return dedup(out)
}

// numValue parses a literal split into prefix ("0x" or "") and digit body.
func numValue(prefix, body string) (uint64, bool) {
	base := uint64(10)
	if prefix != "" {
		base = 16
	}
	var v uint64
	for _, r := range body {
		var d uint64
		switch {
		case r >= '0' && r <= '9':
			d = uint64(r - '0')
		case r >= 'a' && r <= 'f':
			d = uint64(r-'a') + 10
		case r >= 'A' && r <= 'F':
			d = uint64(r-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		v = v*base + d
	}
	return v, true
}

// numValue2 parses a whole literal text.
func numValue2(s string) (uint64, bool) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return numValue("0x", s[2:])
	}
	return numValue("", s)
}

func isIdentText(s string) bool {
	if s == "" {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		return false
	}
	return true
}

func dedup(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Site extraction

// cKeywords are not mutation sites in mini-C fragments (symmetrically,
// Devil keywords are distinct token kinds and never become sites).
var cKeywords = map[string]bool{
	"if": true, "else": true, "while": true, "int": true, "define": true,
}

// cPunctuation is structure, not an operator; it is not mutated.
var cPunctuation = map[string]bool{
	"(": true, ")": true, "{": true, "}": true, ",": true, ";": true,
}

// SitesForC extracts the mutation sites of a mini-C fragment.
func SitesForC(src string) []Site {
	var sites []Site
	for _, t := range minic.Lex(src) {
		switch t.Kind {
		case minic.TokIdent:
			if !cKeywords[t.Text] {
				sites = append(sites, Site{Pos: t.Pos, Text: t.Text, Class: ClassIdent})
			}
		case minic.TokNumber:
			sites = append(sites, Site{Pos: t.Pos, Text: t.Text, Class: ClassNumber})
		case minic.TokOp:
			if !cPunctuation[t.Text] {
				sites = append(sites, Site{Pos: t.Pos, Text: t.Text, Class: ClassOp})
			}
		}
	}
	return sites
}

// devilOps are the Devil operator spellings eligible for mutation.
var devilOps = map[token.Kind]string{
	token.AT:       "@",
	token.HASH:     "#",
	token.WRITEMAP: "=>",
	token.READMAP:  "<=",
	token.RWMAP:    "<=>",
	token.EQ:       "==",
	token.NEQ:      "!=",
	token.DOTDOT:   "..",
}

// SitesForDevil extracts the mutation sites of a Devil specification.
func SitesForDevil(src []byte) []Site {
	toks, errs := scanner.ScanAll(src)
	if errs.Err() != nil {
		panic(fmt.Sprintf("mutation: baseline spec does not scan: %v", errs))
	}
	var sites []Site
	for _, t := range toks {
		switch t.Kind {
		case token.IDENT:
			sites = append(sites, Site{Pos: t.Pos.Offset, Text: t.Lit, Class: ClassIdent})
		case token.INT:
			sites = append(sites, Site{Pos: t.Pos.Offset, Text: t.Lit, Class: ClassNumber})
		case token.BITS:
			// Pos is the opening quote; the pattern starts one byte later.
			sites = append(sites, Site{Pos: t.Pos.Offset + 1, Text: t.Lit, Class: ClassBits})
		default:
			if op, ok := devilOps[t.Kind]; ok {
				sites = append(sites, Site{Pos: t.Pos.Offset, Text: op, Class: ClassOp})
			}
		}
	}
	return sites
}

// ---------------------------------------------------------------------------
// The study

// Run mutates every site of src and counts detection by check. The
// unmutated source must pass the checker (the baseline must be valid).
func Run(src string, sites []Site, check func(string) error) Result {
	if err := check(src); err != nil {
		panic(fmt.Sprintf("mutation: baseline does not check: %v", err))
	}
	res := Result{Lines: strings.Count(src, "\n") + 1, Sites: len(sites)}
	for _, s := range sites {
		if src[s.Pos:s.Pos+len(s.Text)] != s.Text {
			panic(fmt.Sprintf("mutation: site text mismatch at %d: %q", s.Pos, s.Text))
		}
		for _, m := range mutate(s) {
			res.Mutants++
			mutant := src[:s.Pos] + m + src[s.Pos+len(s.Text):]
			if check(mutant) == nil {
				res.Undetected++
			}
		}
	}
	return res
}
