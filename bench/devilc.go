package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/devil/codegen"
	"repro/internal/devil/ir"
	"repro/internal/devil/lint"
	"repro/internal/devil/parser"
	"repro/internal/devil/scanner"
	"repro/internal/devil/sema"
	"repro/internal/gen"
)

// devilc: one request compiles one specification of gen.Library the way
// `devilc vet -Wall` and stub generation do: core.CompileDiags, lint.Check,
// then codegen.Generate at the entry's options (-O1). A cycle compiles
// every library entry once, in seeded order. It is the only workload for
// the compiler layers, and it never touches the bus or a simulator.
//
// The oracle does not come from the compiler under test: the output must be
// byte-equal to the checked-in stub file, read at set-up, and the library
// is known to be free of diagnostics.

type libEntry struct {
	src    []byte
	opts   codegen.Options
	golden []byte // the checked-in stub
	sites  uint64 // port-access call sites in the stub
}

type devilc struct {
	rng   *rand.Rand
	sum   digest
	lib   []libEntry
	order []int
	out   []byte // output of the last request
	diags int    // diagnostics of the last request

	tr *tracer
	// Traced-run probe accumulators.
	scanNS, parseNS        time.Duration
	semaNS, irNS           time.Duration
	semaAllocs, codeAllocs uint64
	probes                 int
}

// portCalls are the bus accessors a stub's port-access sites call.
var portCalls = []string{
	".In8(", ".Out8(", ".In16(", ".Out16(", ".In32(", ".Out32(",
	".InBlock16(", ".OutBlock16(", ".InBlock32(", ".OutBlock32(",
}

func newDevilc(e env, tr *tracer) (rig, error) {
	d := &devilc{rng: newRand(e.seed, "devilc"), tr: tr}
	for _, s := range gen.Library {
		golden, err := os.ReadFile(filepath.Join(e.root, filepath.FromSlash(s.Path)))
		if err != nil {
			return nil, fmt.Errorf("reading the checked-in stub: %w", err)
		}
		var sites int
		for _, c := range portCalls {
			sites += bytes.Count(golden, []byte(c))
		}
		d.lib = append(d.lib, libEntry{s.Spec, s.Opts, golden, uint64(sites)})
		d.order = append(d.order, len(d.order))
	}
	return d, nil
}

func (d *devilc) size() int { return len(d.lib) }

func (d *devilc) next() {
	d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	for _, i := range d.order {
		d.sum.add(uint64(i))
	}
}

func (d *devilc) do(i int) error {
	e := &d.lib[d.order[i]]
	sp := d.tr.begin("compile")
	spec, diags := core.CompileDiags(e.src)
	d.tr.end(sp)
	if diags.HasErrors() {
		return diags
	}
	sp = d.tr.begin("lint")
	d.diags = len(diags) + len(lint.Check(spec))
	d.tr.end(sp)
	sp = d.tr.begin("codegen")
	defer d.tr.end(sp)
	var err error
	d.out, err = codegen.Generate(spec, e.opts)
	return err
}

func (d *devilc) check(i int) (model, error) {
	e := &d.lib[d.order[i]]
	m := model{payload: uint64(len(e.golden)), ops: e.sites}
	if d.diags != 0 {
		return m, fmt.Errorf("devilc: %d diagnostics for a clean library spec", d.diags)
	}
	if !bytes.Equal(d.out, e.golden) {
		return m, fmt.Errorf("devilc: output differs from the checked-in stub (%d bytes, want %d)", len(d.out), len(e.golden))
	}
	return m, nil
}

// verify takes the traced run's probes for the cycle's specs: the scanner,
// parser, sema and ir.Analyze timed alone (the request times only the
// whole of core.CompileDiags), and the allocations of sema and codegen.
func (d *devilc) verify() int {
	if d.tr == nil {
		return 0
	}
	fails := 0
	var ms0, ms1 runtime.MemStats
	for _, i := range d.order {
		e := &d.lib[i]
		t0 := time.Now()
		_, serrs := scanner.ScanAll(e.src)
		d.scanNS += time.Since(t0)
		t0 = time.Now()
		tree, perrs := parser.Parse(e.src)
		d.parseNS += time.Since(t0)
		if len(serrs)+len(perrs) > 0 {
			fails++
			continue
		}
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		spec, diags := sema.Resolve(tree)
		d.semaNS += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		d.semaAllocs += ms1.Mallocs - ms0.Mallocs
		if diags.HasErrors() {
			fails++
			continue
		}
		t0 = time.Now()
		ir.Analyze(spec)
		d.irNS += time.Since(t0)
		runtime.ReadMemStats(&ms0)
		_, err := codegen.Generate(spec, e.opts)
		runtime.ReadMemStats(&ms1)
		d.codeAllocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			fails++
		}
		d.probes++
	}
	return fails
}

func (d *devilc) digest() uint64 { return uint64(d.sum) }

func (d *devilc) layers(n int, spans map[string]*spanAgg) []metric {
	us := func(t time.Duration, count int) float64 { return float64(t) / 1e3 / float64(max(count, 1)) }
	span := func(name string) float64 {
		if a := spans[name]; a != nil {
			return us(a.dur, a.n)
		}
		return 0
	}
	return []metric{
		{"scanner.us_per_spec", "us", us(d.scanNS, d.probes)},
		{"parser.us_per_spec", "us", us(d.parseNS, d.probes)},
		{"sema.us_per_spec", "us", us(d.semaNS, d.probes)},
		{"lint.us_per_spec", "us", span("lint")},
		{"ir.us_per_spec", "us", us(d.irNS, d.probes)},
		{"codegen.us_per_spec", "us", span("codegen")},
		{"sema.allocs_per_spec", "count", float64(d.semaAllocs) / float64(max(d.probes, 1))},
		{"codegen.allocs_per_spec", "count", float64(d.codeAllocs) / float64(max(d.probes, 1))},
	}
}
