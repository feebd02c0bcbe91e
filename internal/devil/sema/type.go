package sema

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/devil/ast"
)

// TypeKind discriminates resolved device-variable types.
type TypeKind int

// Resolved type kinds.
const (
	TypeBool TypeKind = iota
	TypeUInt
	TypeSInt
	TypeIntSet
	TypeEnum
)

// Type is a resolved device-variable type. The semantic domain of every
// type is int64: booleans are 0/1, enums are their raw pattern values.
type Type struct {
	Kind TypeKind
	Bits int          // representation width
	Set  *ast.IntSet  // for TypeIntSet
	Enum []EnumSymbol // for TypeEnum
}

// EnumSymbol is one resolved symbol of an enumerated type. Pattern bits are
// stored as a value/mask pair: raw matches the symbol when
// raw&CareMask == Value. Fully specified symbols have CareMask covering the
// whole width.
type EnumSymbol struct {
	Name     string
	Dir      ast.EnumDir
	Value    uint64
	CareMask uint64
}

// Matches reports whether an encoded raw value matches the symbol pattern.
func (s EnumSymbol) Matches(raw uint64) bool { return raw&s.CareMask == s.Value }

// Readable reports whether the symbol participates in read mappings.
func (s EnumSymbol) Readable() bool { return s.Dir == ast.EnumRead || s.Dir == ast.EnumRW }

// Writable reports whether the symbol participates in write mappings.
func (s EnumSymbol) Writable() bool { return s.Dir == ast.EnumWrite || s.Dir == ast.EnumRW }

// String renders the type in source-like syntax.
func (t *Type) String() string {
	switch t.Kind {
	case TypeBool:
		return "bool"
	case TypeUInt:
		return fmt.Sprintf("int(%d)", t.Bits)
	case TypeSInt:
		return fmt.Sprintf("signed int(%d)", t.Bits)
	case TypeIntSet:
		return "int" + t.Set.String()
	case TypeEnum:
		var names []string
		for _, s := range t.Enum {
			names = append(names, s.Name)
		}
		return "{" + strings.Join(names, ", ") + "}"
	}
	return "?"
}

// WidthMask returns a mask of t.Bits low bits: the raw values of the type.
func (t *Type) WidthMask() uint64 {
	if t.Bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(t.Bits) - 1
}

// Symbol looks up an enum symbol by name; ok is false for non-enum types or
// unknown names.
func (t *Type) Symbol(name string) (EnumSymbol, bool) {
	for _, s := range t.Enum {
		if s.Name == name {
			return s, true
		}
	}
	return EnumSymbol{}, false
}

// SymbolFor returns the first readable symbol matching raw.
func (t *Type) SymbolFor(raw uint64) (EnumSymbol, bool) {
	for _, s := range t.Enum {
		if s.Readable() && s.Matches(raw) {
			return s, true
		}
	}
	return EnumSymbol{}, false
}

// Rule is the set of legal values of a type in one access direction. It
// is the one statement of the §3.2 type checks: Encode applies it to
// constants at compile time, and the check steps of package ir apply it at
// run time in both back ends. A value is legal when Range contains it and,
// for an enum, it matches one of Syms.
type Rule struct {
	Range *ast.IntSet
	// Enum marks the pattern constraint; Syms are the enum's symbols of
	// the direction, possibly none.
	Enum bool
	Syms []EnumSymbol
}

// Allows reports whether v is legal under the rule.
func (r Rule) Allows(v int64) bool {
	if !r.Range.Contains(int(v)) {
		return false
	}
	if !r.Enum {
		return true
	}
	for _, s := range r.Syms {
		if s.Matches(uint64(v)) {
			return true
		}
	}
	return false
}

// WriteRule is the rule of written values: the type's range (its members
// for an int set, its width for an enum) and an enum's writable symbols.
func (t *Type) WriteRule() Rule { return t.rule(EnumSymbol.Writable) }

// ReadRule is the rule of values read from the device: the type's range
// and an enum's readable symbols.
func (t *Type) ReadRule() Rule { return t.rule(EnumSymbol.Readable) }

func (t *Type) rule(dir func(EnumSymbol) bool) Rule {
	r := Rule{Range: t.Set}
	switch t.Kind {
	case TypeIntSet:
		return r
	case TypeSInt:
		r.Range = span(-(int64(1) << uint(t.Bits-1)), int64(1)<<uint(t.Bits-1)-1)
		return r
	case TypeEnum:
		r.Enum = true
		for _, s := range t.Enum {
			if dir(s) {
				r.Syms = append(r.Syms, s)
			}
		}
	}
	r.Range = span(0, int64(min(t.WidthMask(), math.MaxInt64)))
	return r
}

// span is the one-range set lo..hi.
func span(lo, hi int64) *ast.IntSet {
	return &ast.IntSet{Ranges: []ast.IntRange{{Lo: int(lo), Hi: int(hi)}}}
}

// Encode converts a semantic value to its raw bit representation, checking
// that the value is legal for the type under WriteRule. For enums the
// semantic value is the raw pattern value.
func (t *Type) Encode(v int64) (uint64, error) {
	if !t.WriteRule().Allows(v) {
		return 0, fmt.Errorf("value %d out of range for %s", v, t)
	}
	return uint64(v) & t.WidthMask(), nil
}

// Decode converts raw bits read from the device into the semantic value,
// sign-extending signed integers.
func (t *Type) Decode(raw uint64) int64 {
	raw &= t.WidthMask()
	if t.Kind == TypeSInt && t.Bits < 64 && raw&(1<<uint(t.Bits-1)) != 0 {
		return int64(raw | ^t.WidthMask())
	}
	return int64(raw)
}

// resolveType elaborates an AST type against the variable width. width is
// the number of bits of the variable's definition (0 for memory cells,
// where the type determines the width).
func (r *resolver) resolveType(at ast.Type, width int, varName string) *Type {
	switch t := at.(type) {
	case *ast.BoolType:
		return &Type{Kind: TypeBool, Bits: 1}
	case *ast.IntType:
		if t.Bits <= 0 || t.Bits > 64 {
			r.errorf("E104", t.Pos(), "unsupported integer width %d for %s", t.Bits, varName)
			return &Type{Kind: TypeUInt, Bits: 1}
		}
		k := TypeUInt
		if t.Signed {
			k = TypeSInt
		}
		return &Type{Kind: k, Bits: t.Bits}
	case *ast.IntSetType:
		bits := width
		if bits == 0 {
			// Memory cell: width derived from the largest member.
			for bits = 1; t.Set.Max() >= 1<<uint(bits); bits++ {
			}
		}
		if t.Set.Min() < 0 {
			r.errorf("E103", t.Pos(), "negative values not allowed in int set type of %s", varName)
		}
		return &Type{Kind: TypeIntSet, Bits: bits, Set: t.Set}
	case *ast.EnumType:
		rt := &Type{Kind: TypeEnum}
		if len(t.Items) == 0 {
			r.errorf("E107", t.Pos(), "empty enumerated type for %s", varName)
			rt.Bits = 1
			return rt
		}
		rt.Bits = t.Items[0].Pattern.Len()
		seen := map[string]bool{}
		for _, it := range t.Items {
			if seen[it.Name] {
				r.errorf("E101", it.NamePos, "symbol %s declared twice in enumerated type of %s", it.Name, varName)
				continue
			}
			seen[it.Name] = true
			if it.Pattern.Len() != rt.Bits {
				r.errorf("E104", it.Pattern.Pos(), "pattern %s of symbol %s has %d bits, type has %d",
					it.Pattern, it.Name, it.Pattern.Len(), rt.Bits)
				continue
			}
			sym := EnumSymbol{Name: it.Name, Dir: it.Dir}
			for i, c := range it.Pattern.Chars {
				bit := uint(rt.Bits - 1 - i)
				switch c {
				case '0':
					sym.CareMask |= 1 << bit
				case '1':
					sym.CareMask |= 1 << bit
					sym.Value |= 1 << bit
				case '.':
					// wildcard bit
				default:
					r.errorf("E107", it.Pattern.Pos(), "character %q not allowed in enum pattern %s (use 0, 1 or .)",
						string(c), it.Pattern)
				}
			}
			rt.Enum = append(rt.Enum, sym)
		}
		return rt
	}
	r.errorf("E107", at.Pos(), "unsupported type for %s", varName)
	return &Type{Kind: TypeUInt, Bits: 1}
}
