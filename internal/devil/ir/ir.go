// Package ir is the single statement of Devil access semantics, between
// the resolved Devil model (package sema) and the two access back ends:
// package codegen prints its plans as Go stubs and package exec
// interprets the same plans.
//
// It has three parts:
//
//   - Lowering (Lower): every access of a device — variable get and set,
//     structure-field decode and staging, structure read and flush, block
//     in and out — becomes a Plan of typed Steps: register compositions
//     (Expr), forced-bit masks, context-selecting and other actions, port
//     reads and writes, cache and shadow updates, serialization guards and
//     elision guards. Steps reference registers, variables, sema actions
//     and guards; they carry no rendered code. Lowering is also the one
//     place that rejects specification shapes neither back end
//     implements.
//
//   - Composable peephole passes over plans (Coalesce, ConstFold, ElideRMW,
//     BatchIndex), selected by an optimization level (OptLevel) and
//     applied by Lower. The passes are pure Plan→Plan transformations, so
//     each is testable in isolation against golden plan listings.
//
//   - The elision eligibility analysis (Analyze): the static rules deciding
//     for which variables a redundant register write may be skipped at run
//     time. The decision becomes an SGuard step, which codegen prints and
//     exec evaluates, so the two back ends keep producing identical bus
//     traces at every optimization level.
//
// The run-time elision rule is deliberately conservative. A write of
// variable V to register R may be skipped only when R's last written value
// is known and equals the newly composed value, and every constant
// memory-cell assignment R's write would perform already holds. The
// eligibility analysis admits only registers for which "the register still
// holds the last written value" is a sound assumption: no volatile or
// neutral-less trigger tenants, no write-only command registers, no
// unwindowed sharing of the port offset with other registers, and no
// uncompilable side effects. Everything else — triggers, acknowledge
// registers, positional protocols like the 8237A flip-flop byte pairs —
// is written unconditionally, exactly as at -O0.
package ir

import (
	"fmt"
	"strings"
)

// OptLevel selects the optimization level of a generated stub package or a
// linked interpreter. The zero value is the default level O1, so existing
// construction sites inherit the optimizer without change; O0 disables
// every pass and reproduces the naive one-access-per-write emission.
type OptLevel int

const (
	// O1 is the default level: all peephole passes enabled.
	O1 OptLevel = iota
	// O0 disables all passes.
	O0
)

func (l OptLevel) String() string {
	switch l {
	case O0:
		return "-O0"
	case O1:
		return "-O1"
	}
	return fmt.Sprintf("OptLevel(%d)", int(l))
}

// ParseLevel converts a -O flag argument ("0" or "1") to a level.
func ParseLevel(s string) (OptLevel, error) {
	switch s {
	case "0":
		return O0, nil
	case "1":
		return O1, nil
	}
	return O1, fmt.Errorf("ir: unknown optimization level %q (want 0 or 1)", s)
}

// Passes selects the peephole passes individually. The level-to-pass
// mapping lives in OptLevel.Passes; LowerPasses accepts an explicit set to
// compose any subset.
type Passes struct {
	// Coalesce merges adjacent writes of the same register into one Out:
	// a repeated context-selector call with no intervening port operation
	// is dropped.
	Coalesce bool
	// ConstFold folds constants in register compositions and removes
	// forced-bit mask adjustments that cannot change the composed value.
	ConstFold bool
	// ElideRMW guards eligible data-register writes: when the register
	// shadow already holds the exact composed value, the whole
	// read-modify-write interaction — including its context selection —
	// is skipped at run time.
	ElideRMW bool
	// BatchIndex guards eligible context-selector writes (the cs4236
	// index register, the ne2000 page bits): consecutive accesses through
	// the same window share one selection write.
	BatchIndex bool
}

// Passes returns the pass set implied by the level.
func (l OptLevel) Passes() Passes {
	if l == O0 {
		return Passes{}
	}
	return Passes{Coalesce: true, ConstFold: true, ElideRMW: true, BatchIndex: true}
}

// Names lists the enabled passes in application order.
func (p Passes) Names() []string {
	var names []string
	if p.Coalesce {
		names = append(names, "coalesce")
	}
	if p.ConstFold {
		names = append(names, "constfold")
	}
	if p.ElideRMW {
		names = append(names, "elide-rmw")
	}
	if p.BatchIndex {
		names = append(names, "batch-index")
	}
	if len(names) == 0 {
		return []string{"none"}
	}
	return names
}

func (p Passes) String() string { return strings.Join(p.Names(), ",") }
