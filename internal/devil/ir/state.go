package ir

import "repro/internal/devil/sema"

// StateLayout is the canonical layout of a device's spec-derived driver
// state: the private memory cells, variable caches, register shadows,
// elision flags, and structure staging that the access plans read and
// write. The generated stubs hold these slots as struct fields and the
// exec interpreter as slices indexed by sema Index. Both paths marshal
// exactly these slots in exactly this order, so a snapshot taken through
// one path restores through the other and cross-path snapshots compare
// byte for byte.
//
// The wire order (every list in declaration order, i.e. sema Index order):
//
//  1. one u32 per memory cell (Cells)
//  2. one u32 per structure-flush-cached variable (VCached)
//  3. one u32 per shadowed register (Shadows): the last written raw value
//  4. one bool per elision-guarded register (Guarded): shadow authority
//  5. one u32 per structure-snapshot register (Snapped): the last raw read
//  6. one bool per readable structure (Readable): snapshot validity
//  7. per writable structure (Writable), per field: one u32 staged raw
//     value, plus one bool staged-flag for trigger fields
//
// The Guarded set depends on the enabled optimization passes, so
// snapshots are only exchangeable between producers running at the same
// optimization level; a mismatch surfaces as a payload-shape error, not
// silent corruption.
type StateLayout struct {
	Cells    []*sema.Variable  // memory cells, declaration order
	VCached  []*sema.Variable  // variables cached for structure flushes
	Shadows  []*sema.Register  // RMW-shadowed ∪ elision-guarded registers
	Guarded  []*sema.Register  // elision-guarded registers (under the passes)
	Snapped  []*sema.Register  // registers read through structure snapshots
	Readable []*sema.Structure // structures with a readable serialization
	Writable []*sema.Structure // structures with a writable serialization

	// The same classifications as sets, for membership tests.
	RMWShadowed map[*sema.Register]bool // needs a shadow for read-modify-write
	GuardedSet  map[*sema.Register]bool
	VCachedSet  map[*sema.Variable]bool
}

// NewStateLayout computes the canonical state layout of spec under the
// given optimization passes. info may be nil, in which case the elision
// analysis is run here.
func NewStateLayout(spec *sema.Device, info *Info, p Passes) *StateLayout {
	if info == nil {
		info = Analyze(spec)
	}
	l := &StateLayout{
		RMWShadowed: map[*sema.Register]bool{},
		GuardedSet:  info.GuardedRegs(p),
		VCachedSet:  map[*sema.Variable]bool{},
	}
	snapped := map[*sema.Register]bool{}

	// A register needs a shadow when some variable write composes with
	// cached co-tenant bits (KeepMask != 0 for some writer).
	for _, v := range spec.Variables {
		if v.Cell || !v.Writable || v.Struct != nil {
			continue
		}
		for _, step := range v.Order {
			if KeepMask(spec, step.Reg, v) != 0 {
				l.RMWShadowed[step.Reg] = true
			}
		}
	}
	for _, s := range spec.Structures {
		if StructReadable(s) {
			l.Readable = append(l.Readable, s)
			for _, step := range s.Order {
				snapped[step.Reg] = true
			}
		}
		// A structure flush composes non-member co-tenants from their
		// last known value (the register is written whole); those
		// variables carry a per-variable cache.
		if StructWritable(s) {
			l.Writable = append(l.Writable, s)
			for _, step := range s.Order {
				for _, t := range Tenants(spec, step.Reg) {
					if t.Struct != nil || t.Cell {
						continue
					}
					if t.Trigger != nil && t.Trigger.HasNeutral {
						continue
					}
					l.VCachedSet[t] = true
				}
			}
		}
	}

	for _, v := range spec.Variables {
		if v.Cell {
			l.Cells = append(l.Cells, v)
		}
		if l.VCachedSet[v] {
			l.VCached = append(l.VCached, v)
		}
	}
	for _, r := range spec.Registers {
		if l.RMWShadowed[r] || l.GuardedSet[r] {
			l.Shadows = append(l.Shadows, r)
		}
		if l.GuardedSet[r] {
			l.Guarded = append(l.Guarded, r)
		}
		if snapped[r] {
			l.Snapped = append(l.Snapped, r)
		}
	}
	return l
}

// StructReadable reports whether the structure's serialization is fully
// readable (every step register has a read port).
func StructReadable(s *sema.Structure) bool {
	for _, step := range s.Order {
		if !step.Reg.Readable() {
			return false
		}
	}
	return len(s.Order) > 0
}

// StructWritable reports whether the structure's serialization is fully
// writable.
func StructWritable(s *sema.Structure) bool {
	for _, step := range s.Order {
		if !step.Reg.Writable() {
			return false
		}
	}
	return len(s.Order) > 0
}

// Run is a maximal stretch of consecutive register bits within one chunk
// of a variable: N bits of Reg from bit RegLo hold the value bits from
// ValLo. A variable's runs are the one statement of its bit layout: exec
// places and extracts values run by run, and codegen prints one shift and
// mask per run.
type Run struct {
	Reg          *sema.Register
	ValLo, RegLo int
	N            int
}

// Runs decomposes v's chunks into runs, in chunk order (the value's MSB
// first) and, within a chunk, in the order of its bits.
func Runs(v *sema.Variable) []Run {
	var runs []Run
	forRuns(v, func(r Run) { runs = append(runs, r) })
	return runs
}

// forRuns calls f on each of v's runs, in the order Runs lists them,
// without building the list.
func forRuns(v *sema.Variable, f func(Run)) {
	pos := v.Width
	for _, ch := range v.Chunks {
		pos -= len(ch.Bits)
		vHi := pos + len(ch.Bits) - 1 // the value bit of ch.Bits[0]
		for i := 0; i < len(ch.Bits); {
			j := i
			for j+1 < len(ch.Bits) && ch.Bits[j+1] == ch.Bits[j]-1 {
				j++
			}
			f(Run{Reg: ch.Reg, ValLo: vHi - j, RegLo: ch.Bits[j], N: j - i + 1})
			i = j + 1
		}
	}
}

// low is the run's width mask.
func (r Run) low() uint64 { return 1<<uint(r.N) - 1 }

// Mask returns the register bits of the run.
func (r Run) Mask() uint64 { return r.low() << uint(r.RegLo) }

// Place moves the run's bits of the value raw onto its register bits.
func (r Run) Place(raw uint64) uint64 { return raw >> uint(r.ValLo) & r.low() << uint(r.RegLo) }

// Extract moves the run's register bits of regRaw to their value bits.
func (r Run) Extract(regRaw uint64) uint64 { return regRaw >> uint(r.RegLo) & r.low() << uint(r.ValLo) }

// Place scatters a raw variable value onto the bits of reg its runs own.
func Place(runs []Run, reg *sema.Register, raw uint64) uint64 {
	var out uint64
	for _, r := range runs {
		if r.Reg == reg {
			out |= r.Place(raw)
		}
	}
	return out
}

// Extract gathers the bits of reg the runs own out of the register value
// regRaw into their value bits: the inverse of Place.
func Extract(runs []Run, reg *sema.Register, regRaw uint64) uint64 {
	var out uint64
	for _, r := range runs {
		if r.Reg == reg {
			out |= r.Extract(regRaw)
		}
	}
	return out
}

// VarMask returns the register bits owned by v on reg.
func VarMask(reg *sema.Register, v *sema.Variable) uint64 {
	var m uint64
	forRuns(v, func(r Run) {
		if r.Reg == reg {
			m |= r.Mask()
		}
	})
	return m
}

// Tenants returns the variables owning bits of reg, in declaration order.
func Tenants(spec *sema.Device, reg *sema.Register) []*sema.Variable {
	var out []*sema.Variable
	for _, v := range spec.Variables {
		if VarMask(reg, v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// NeutralConst returns the placed neutral contributions of trigger
// co-tenants of v on reg, and the mask of their bits.
func NeutralConst(spec *sema.Device, reg *sema.Register, v *sema.Variable) (placed, mask uint64) {
	for _, t := range Tenants(spec, reg) {
		if t == v || t.Trigger == nil || !t.Trigger.HasNeutral {
			continue
		}
		placed |= Place(Runs(t), reg, t.Trigger.Neutral)
		mask |= VarMask(reg, t)
	}
	return placed, mask
}

// KeepMask returns the bits of reg composed from the shadow when v
// writes: relevant bits of cached (non-trigger) co-tenants.
func KeepMask(spec *sema.Device, reg *sema.Register, v *sema.Variable) uint64 {
	var m uint64
	for _, t := range Tenants(spec, reg) {
		if t == v {
			continue
		}
		if t.Trigger != nil && t.Trigger.HasNeutral {
			continue
		}
		m |= VarMask(reg, t)
	}
	return m
}
