package sema

import (
	"testing"
	"testing/quick"

	"repro/internal/devil/ast"
)

func TestEncodeDecodeUInt(t *testing.T) {
	ty := &Type{Kind: TypeUInt, Bits: 6}
	f := func(v uint8) bool {
		val := int64(v % 64)
		raw, err := ty.Encode(val)
		if err != nil {
			return false
		}
		return ty.Decode(raw) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ty.Encode(64); err == nil {
		t.Error("64 should be out of range for int(6)")
	}
	if _, err := ty.Encode(-1); err == nil {
		t.Error("-1 should be out of range for int(6)")
	}
}

func TestEncodeDecodeSIntProperty(t *testing.T) {
	for _, bits := range []int{2, 5, 8, 13, 16, 31} {
		ty := &Type{Kind: TypeSInt, Bits: bits}
		min := -(int64(1) << uint(bits-1))
		max := int64(1)<<uint(bits-1) - 1
		f := func(seed int64) bool {
			val := min + (seed%(max-min+1)+max-min+1)%(max-min+1)
			raw, err := ty.Encode(val)
			if err != nil {
				return false
			}
			return ty.Decode(raw) == val
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("bits=%d: %v", bits, err)
		}
		if _, err := ty.Encode(max + 1); err == nil {
			t.Errorf("bits=%d: max+1 accepted", bits)
		}
		if _, err := ty.Encode(min - 1); err == nil {
			t.Errorf("bits=%d: min-1 accepted", bits)
		}
	}
}

func TestSignExtension(t *testing.T) {
	ty := &Type{Kind: TypeSInt, Bits: 8}
	if got := ty.Decode(0xff); got != -1 {
		t.Errorf("decode(0xff) = %d", got)
	}
	if got := ty.Decode(0x80); got != -128 {
		t.Errorf("decode(0x80) = %d", got)
	}
	if got := ty.Decode(0x7f); got != 127 {
		t.Errorf("decode(0x7f) = %d", got)
	}
}

func TestIntSetType(t *testing.T) {
	set := &ast.IntSet{Ranges: []ast.IntRange{{Lo: 0, Hi: 17}, {Lo: 25, Hi: 25}}}
	ty := &Type{Kind: TypeIntSet, Bits: 5, Set: set}
	for _, ok := range []int64{0, 17, 25} {
		if _, err := ty.Encode(ok); err != nil {
			t.Errorf("%d should encode: %v", ok, err)
		}
	}
	for _, bad := range []int64{18, 24, 26, -1} {
		if _, err := ty.Encode(bad); err == nil {
			t.Errorf("%d should be rejected", bad)
		}
	}
	if ty.ReadRule().Allows(20) {
		t.Error("read rule should reject 20")
	}
	if !ty.ReadRule().Allows(25) {
		t.Error("read rule rejected 25")
	}
}

func TestEnumEncodingAndWildcards(t *testing.T) {
	ty := &Type{Kind: TypeEnum, Bits: 3, Enum: []EnumSymbol{
		{Name: "NODMA", Dir: ast.EnumRW, Value: 0b100, CareMask: 0b111},
		{Name: "RREAD", Dir: ast.EnumWrite, Value: 0b001, CareMask: 0b111},
		{Name: "HIGH", Dir: ast.EnumRead, Value: 0b100, CareMask: 0b100},
	}}
	if raw, err := ty.Encode(0b100); err != nil || raw != 0b100 {
		t.Errorf("encode NODMA = %v %v", raw, err)
	}
	if _, err := ty.Encode(0b010); err == nil {
		t.Error("010 matches no writable symbol")
	}
	sym, ok := ty.SymbolFor(0b101)
	if !ok || sym.Name != "HIGH" {
		t.Errorf("0b101 decodes to %v", sym)
	}
	if s, ok := ty.Symbol("RREAD"); !ok || !s.Writable() || s.Readable() {
		t.Errorf("RREAD = %+v", s)
	}
	if ty.ReadRule().Allows(0b001) {
		t.Error("001 should fail the read rule (write-only symbol)")
	}
	// An enum's range is its width: 0b1100 matches HIGH's pattern in its
	// low bits but is no 3-bit value.
	if ty.ReadRule().Allows(0b1100) || ty.WriteRule().Allows(0b1100) {
		t.Error("out-of-width value accepted")
	}
}

func TestBoolType(t *testing.T) {
	ty := &Type{Kind: TypeBool, Bits: 1}
	if _, err := ty.Encode(2); err == nil {
		t.Error("2 accepted for bool")
	}
	raw, err := ty.Encode(1)
	if err != nil || raw != 1 || ty.Decode(raw) != 1 {
		t.Errorf("bool encode/decode broken: %v %v", raw, err)
	}
}

// TestGatherScatterInverse is the core bit-placement invariant shared by
// exec and codegen: scattering a value onto register bits and gathering it
// back is the identity, for arbitrary (well-formed) chunk shapes.
func TestGatherScatterInverse(t *testing.T) {
	src := `
device d (a : bit[8] port @ {0..2})
{
    register r0 = a @ 0 : bit[8];
    register r1 = a @ 1 : bit[8];
    register r2 = a @ 2 : bit[8];
    variable weird = r0[2, 7..4] # r1[0] # r2[6..3], volatile : int(10);
    variable pad0 = r0[3] # r0[1..0] : int(3);
    variable pad1 = r1[7..1] : int(7);
    variable pad2 = r2[7] # r2[2..0] : int(4);
}
`
	dev := resolveSrc(t, src)
	v := dev.Variable("weird")
	if v == nil || v.Width != 10 {
		t.Fatalf("weird = %+v", v)
	}

	f := func(raw16 uint16) bool {
		raw := uint64(raw16) & (1<<10 - 1)
		// Scatter per chunk, then gather back.
		regs := map[*Register]uint64{}
		pos := v.Width
		for _, ch := range v.Chunks {
			pos -= len(ch.Bits)
			for i, b := range ch.Bits {
				valBit := pos + len(ch.Bits) - 1 - i
				if raw&(1<<uint(valBit)) != 0 {
					regs[ch.Reg] |= 1 << uint(b)
				}
			}
		}
		var back uint64
		for _, ch := range v.Chunks {
			for _, b := range ch.Bits {
				back <<= 1
				if regs[ch.Reg]&(1<<uint(b)) != 0 {
					back |= 1
				}
			}
		}
		return back == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
