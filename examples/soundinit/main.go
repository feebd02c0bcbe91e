// Soundinit: walk the CS4236B extended-register automaton (§2.2, "one of
// the most complex" chips the paper studied) and print every bus operation
// the compiled access plans emit.
//
// Writing one extended register X(j) requires establishing a context two
// levels deep: XS must be flushed into I23 (which converts I23 from an
// extended *address* register into an extended *data* register, tracked by
// the private mode cell xm), and I23 itself is reached by writing the index
// j=23 into the control register IA. All of that is derived from the
// specification — the "driver" below is three stub calls.
package main

import (
	"fmt"
	"log"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/specs"
)

func main() {
	spec, err := core.Compile(specs.CS4236)
	if err != nil {
		log.Fatal(err)
	}

	var clk bus.Clock
	io := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	// The "chip" is a plain register file: the point of this example is
	// the access sequence the compiler derives, which the observer records
	// with offsets relative to the chip's window.
	io.MustMapNamed("cs4236", 0x530, 2, bus.NewRAM(2))
	var events []obs.Event
	io.SetObserver(obs.Func(func(e obs.Event) {
		e.Addr -= 0x530
		events = append(events, e)
	}))

	dev, err := core.Link(spec, io, map[string]uint32{"base": 0x530}, core.Options{Debug: true})
	if err != nil {
		log.Fatal(err)
	}

	show := func(what string) {
		fmt.Printf("%s:\n", what)
		for _, e := range events {
			fmt.Printf("    %s\n", e)
		}
		events = nil
	}

	// A plain indexed register: one pre-action (IA=16), one data write.
	if err := dev.Set("afe2", 0x2a); err != nil {
		log.Fatal(err)
	}
	show("set afe2 = 0x2a (indexed register I16)")

	// An extended register: the full automaton.
	if err := dev.SetParam("ext", 5, 0xab); err != nil {
		log.Fatal(err)
	}
	show("set ext(5) = 0xab (extended register X5)")

	if xm, ok := dev.Peek("xm"); ok {
		fmt.Printf("mode cell xm = %d (I23 is now an extended data register)\n", xm)
	}

	// Writing IA resets the mode — the set-action updates the cell.
	if err := dev.Set("IA", 3); err != nil {
		log.Fatal(err)
	}
	show("set IA = 3 (control register write resets the mode)")
	if xm, ok := dev.Peek("xm"); ok {
		fmt.Printf("mode cell xm = %d (back to extended address mode)\n", xm)
	}

	// The checker rejects out-of-domain extended registers outright.
	if err := dev.SetParam("ext", 20, 0); err != nil {
		fmt.Println("domain check caught:", err)
	}
}
