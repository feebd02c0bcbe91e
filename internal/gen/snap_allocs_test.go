//go:build !race

package gen_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/gen"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	gendma "repro/internal/gen/dma8237"
	genide "repro/internal/gen/ide"
	genne "repro/internal/gen/ne2000"
	genpm "repro/internal/gen/permedia2"
	genpic "repro/internal/gen/pic8259"
	genpiix4 "repro/internal/gen/piix4"
	"repro/internal/snap"
)

// TestMarshalStateAllocs pins every simulator's and every compiled stub's
// MarshalState at zero allocations when appending into a buffer that
// already has room: the snapshot walk must stay on the stack. (The race
// detector's instrumentation perturbs allocation counts, hence the build
// constraint.)
func TestMarshalStateAllocs(t *testing.T) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	parts := map[string]snap.Snapshotter{
		"stub busmouse":  genbm.New(space, 0x23c),
		"stub cs4236":    gencs.New(space, 0x530),
		"stub dma8237":   gendma.New(space, 0x00),
		"stub ide":       genide.New(space, 0x1f0, 0x1f0, 0x1f0, 0x3f6),
		"stub ne2000":    genne.New(space, 0x300, 0x310, 0x31f),
		"stub permedia2": genpm.New(space, 0xf0000000),
		"stub pic8259":   genpic.New(space, 0x20),
		"stub piix4":     genpiix4.New(space, 0xc000, 0xc004),
	}
	for _, d := range gen.Devices {
		var clk bus.Clock
		parts["sim "+d.Name] = d.NewSim(&clk, newDeviceSpace(&clk, d))
	}
	for name, p := range parts {
		buf, err := p.MarshalState(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(10, func() { buf, _ = p.MarshalState(buf[:0]) })
		if allocs != 0 {
			t.Errorf("%s: MarshalState makes %v allocations, want 0", name, allocs)
		}
	}
}
