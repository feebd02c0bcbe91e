package gen

import (
	"repro/internal/bus"
	simbm "repro/internal/sim/busmouse"
	simcs "repro/internal/sim/cs4236"
	simdma "repro/internal/sim/dma8237"
	simide "repro/internal/sim/ide"
	simne "repro/internal/sim/ne2000"
	simpm "repro/internal/sim/permedia2"
	simpic "repro/internal/sim/pic8259"
	"repro/internal/snap"
	"repro/internal/specs"
)

// Window is one mapped register window of a device's canonical wiring.
type Window struct {
	Base uint32
	Len  uint32
}

// Device ties one library specification to its register-accurate
// simulator: the canonical port bindings (the values tests and tools link
// the spec's port parameters to), the bus windows the simulator occupies,
// and a constructor that wires a fresh simulator into a space. The table
// is the single registry pairing internal/specs, internal/gen stubs, and
// internal/sim back ends.
type Device struct {
	// Name matches the specification's device name and the stub package.
	Name string
	Spec []byte
	// Ports maps the spec's port parameters to canonical addresses.
	Ports map[string]uint32
	// Windows lists the bus ranges NewSim maps, in mapping order.
	Windows []Window
	// MMIO selects a memory-mapped space (bus.DefaultMemCosts) instead of
	// the port-I/O default.
	MMIO bool
	// NewSim builds the simulator and maps it into space at the canonical
	// windows.
	NewSim func(clk *bus.Clock, space *bus.Space) snap.Snapshotter
}

// Devices registers every library device, in Library order. The ide and
// piix4 entries build separate instances of the same simulator: the two
// specifications program the task-file and busmaster windows of one
// physical drive (internal/sim/ide carries both functions).
var Devices = []Device{
	{
		Name:    "busmouse",
		Spec:    specs.Busmouse,
		Ports:   map[string]uint32{"base": 0x23c},
		Windows: []Window{{0x23c, 4}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			m := simbm.New()
			space.MustMap(0x23c, 4, m)
			return m
		},
	},
	{
		Name:    "ide",
		Spec:    specs.IDE,
		Ports:   map[string]uint32{"data": 0x1f0, "data32": 0x1f0, "base": 0x1f0, "ctl": 0x3f6},
		Windows: []Window{{0x1f0, 8}, {0x3f6, 1}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			disk := simide.New(clk, 64, bus.NewRAM(1<<16))
			space.MustMap(0x1f0, 8, disk.TaskFile())
			space.MustMap(0x3f6, 1, disk.Control())
			return disk
		},
	},
	{
		Name:    "piix4",
		Spec:    specs.PIIX4,
		Ports:   map[string]uint32{"bm": 0xc000, "prd": 0xc004},
		Windows: []Window{{0xc000, 8}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			disk := simide.New(clk, 64, bus.NewRAM(1<<16))
			space.MustMap(0xc000, 8, disk.Busmaster())
			return disk
		},
	},
	{
		Name:    "ne2000",
		Spec:    specs.NE2000,
		Ports:   map[string]uint32{"base": 0x300, "dma": 0x310, "rst": 0x31f},
		Windows: []Window{{0x300, 0x20}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			n := simne.New()
			space.MustMap(0x300, 0x20, n)
			return n
		},
	},
	{
		Name:    "permedia2",
		Spec:    specs.Permedia2,
		Ports:   map[string]uint32{"reg": 0xf0000000},
		Windows: []Window{{0xf0000000, 0x100}},
		MMIO:    true,
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			p := simpm.New(clk, 640, 480)
			space.MustMap(0xf0000000, 0x100, p)
			return p
		},
	},
	{
		Name:    "pic8259",
		Spec:    specs.PIC8259,
		Ports:   map[string]uint32{"base": 0x20},
		Windows: []Window{{0x20, 2}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			p := simpic.New()
			space.MustMap(0x20, 2, p)
			return p
		},
	},
	{
		Name:    "dma8237",
		Spec:    specs.DMA8237,
		Ports:   map[string]uint32{"io": 0x00},
		Windows: []Window{{0x00, 13}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			d := simdma.New()
			space.MustMap(0x00, 13, d)
			return d
		},
	},
	{
		Name:    "cs4236",
		Spec:    specs.CS4236,
		Ports:   map[string]uint32{"base": 0x530},
		Windows: []Window{{0x530, 2}},
		NewSim: func(clk *bus.Clock, space *bus.Space) snap.Snapshotter {
			c := simcs.New()
			space.MustMap(0x530, 2, c)
			return c
		},
	},
}
