package farm

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/sim/busmouse"
	"repro/internal/sim/cs4236"
	"repro/internal/sim/dma8237"
	simide "repro/internal/sim/ide"
	"repro/internal/sim/ne2000"
	"repro/internal/sim/permedia2"
	"repro/internal/sim/pic8259"
)

// TestMachinesHoldNoLocks guards the single-owner contract of the bus
// package doc: a machine's clock, spaces, span stack and simulators are
// used by one goroutine at a time, so none of them holds a sync value
// (directly, in a nested or embedded struct, or behind a pointer, slice,
// array or map), and no simulator package imports sync. bus.IRQLine, the
// one cross-goroutine entry point, is the documented exception.
func TestMachinesHoldNoLocks(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[bus.Space](),
		reflect.TypeFor[bus.Clock](),
		reflect.TypeFor[obs.Spans](),
		reflect.TypeFor[simide.Disk](),
		reflect.TypeFor[permedia2.Sim](),
		reflect.TypeFor[busmouse.Sim](),
		reflect.TypeFor[pic8259.Sim](),
		reflect.TypeFor[dma8237.Sim](),
		reflect.TypeFor[ne2000.Sim](),
		reflect.TypeFor[cs4236.Sim](),
	} {
		for _, path := range syncFields(typ, typ.String(), map[reflect.Type]bool{}) {
			t.Errorf("%s holds a sync value; a machine is single-owner and takes no lock", path)
		}
	}

	files, err := filepath.Glob("../sim/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no simulator sources found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
				t.Errorf("%s imports sync", file)
			}
		}
	}
}

// syncFields returns the field paths under typ whose type comes from
// package sync, skipping bus.IRQLine.
func syncFields(typ reflect.Type, path string, seen map[reflect.Type]bool) []string {
	if typ.PkgPath() == "sync" {
		return []string{path}
	}
	if seen[typ] || typ == reflect.TypeFor[bus.IRQLine]() {
		return nil
	}
	seen[typ] = true
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return syncFields(typ.Elem(), path+"[]", seen)
	case reflect.Map:
		return append(syncFields(typ.Key(), path+"{key}", seen), syncFields(typ.Elem(), path+"{}", seen)...)
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, syncFields(f.Type, path+"."+f.Name, seen)...)
		}
		return out
	}
	return nil
}
