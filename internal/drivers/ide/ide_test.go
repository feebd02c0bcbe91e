package ide

import (
	"bytes"
	"fmt"
	"testing"

	simide "repro/internal/sim/ide"
)

// rig wires a fresh disk, memory, and IRQ line for one driver instance.
func rig(t *testing.T, sectors int) (Ports, *simide.Disk) {
	t.Helper()
	r := NewRig(sectors, 256)
	r.Space.StrictFaults = true
	return r.Ports(), r.Disk
}

func drivers(p Ports, cfg Config) []Driver {
	return []Driver{NewHand(p, cfg), NewDevil(p, cfg)}
}

// allConfigs enumerates the Table 2 rows plus block variants.
func allConfigs() []Config {
	cfgs := []Config{{Mode: DMA}}
	for _, spi := range []int{16, 8, 1} {
		for _, w := range []int{32, 16} {
			cfgs = append(cfgs, Config{Mode: PIO, Width: w, SectorsPerIRQ: spi})
			cfgs = append(cfgs, Config{Mode: PIO, Width: w, SectorsPerIRQ: spi, Block: true})
		}
	}
	return cfgs
}

func TestReadCorrectnessAllModes(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			p, disk := rig(t, 1024)
			want := disk.ReadImage(37, 40)
			for _, drv := range drivers(p, cfg) {
				if err := drv.Init(); err != nil {
					t.Fatalf("%s init: %v", drv.Name(), err)
				}
				got := make([]byte, 40*simide.SectorSize)
				if err := drv.ReadSectors(37, got); err != nil {
					t.Fatalf("%s read: %v", drv.Name(), err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s read data mismatch", drv.Name())
				}
			}
		})
	}
}

func TestWriteReadBack(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: DMA},
		{Mode: PIO, Width: 16, SectorsPerIRQ: 1},
		{Mode: PIO, Width: 32, SectorsPerIRQ: 8, Block: true},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			for _, which := range []string{"standard", "devil"} {
				p, disk := rig(t, 1024)
				var drv Driver = NewHand(p, cfg)
				if which == "devil" {
					drv = NewDevil(p, cfg)
				}
				if err := drv.Init(); err != nil {
					t.Fatal(err)
				}
				src := make([]byte, 20*simide.SectorSize)
				for i := range src {
					src[i] = byte(i*13 + 7)
				}
				if err := drv.WriteSectors(100, src); err != nil {
					t.Fatalf("%s write: %v", which, err)
				}
				if got := disk.ReadImage(100, 20); !bytes.Equal(got, src) {
					t.Errorf("%s: disk image does not match written data", which)
				}
				back := make([]byte, len(src))
				if err := drv.ReadSectors(100, back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, src) {
					t.Errorf("%s: read-back mismatch", which)
				}
			}
		})
	}
}

func TestMultiCommandTransfers(t *testing.T) {
	// More sectors than one ATA command allows (256), forcing command
	// splitting, in both PIO and DMA modes.
	for _, cfg := range []Config{{Mode: DMA}, {Mode: PIO, Width: 32, SectorsPerIRQ: 16, Block: true}} {
		t.Run(cfg.String(), func(t *testing.T) {
			p, disk := rig(t, 1024)
			drv := NewDevil(p, cfg)
			if err := drv.Init(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 600*simide.SectorSize)
			if err := drv.ReadSectors(0, got); err != nil {
				t.Fatal(err)
			}
			if want := disk.ReadImage(0, 600); !bytes.Equal(got, want) {
				t.Error("data mismatch across command boundary")
			}
		})
	}
}

// TestPIOOperationCounts pins the per-command and per-interrupt I/O
// operation constants of Table 2: the standard driver issues 7 + #irq(1) +
// data operations, the Devil driver 8 + #irq(3) + data operations (the
// -O1 elide-rmw pass skips the devhead and LBA rewrites whose registers
// already hold the composed value).
func TestPIOOperationCounts(t *testing.T) {
	const sectors = 16 // one command
	for _, tc := range []struct {
		spi, width int
		block      bool
	}{
		{16, 32, true}, {16, 16, true}, {8, 32, true}, {1, 16, true},
		{16, 32, false}, {1, 16, false},
	} {
		cfg := Config{Mode: PIO, Width: tc.width, SectorsPerIRQ: tc.spi, Block: tc.block}
		irqs := (sectors + tc.spi - 1) / tc.spi
		unitsPerSector := simide.SectorSize / (tc.width / 8)

		var wantData uint64
		if tc.block {
			wantData = uint64(irqs) // one block op per DRQ block
		} else {
			wantData = uint64(sectors * unitsPerSector)
		}

		t.Run(cfg.String(), func(t *testing.T) {
			for i, want := range []uint64{7 + uint64(irqs)*1 + wantData, 8 + uint64(irqs)*3 + wantData} {
				p, _ := rig(t, 256)
				drv := drivers(p, cfg)[i]
				if err := drv.Init(); err != nil {
					t.Fatal(err)
				}
				p.Space.ResetStats()
				buf := make([]byte, sectors*simide.SectorSize)
				if err := drv.ReadSectors(0, buf); err != nil {
					t.Fatal(err)
				}
				if got := p.Space.Stats().Ops(); got != want {
					t.Errorf("%s: %d I/O operations, want %d", drv.Name(), got, want)
				}
			}
		})
	}
}

// TestDMAOperationCounts pins the DMA constants: 14 standard, 18 Devil
// (down from 20 before the optimizer — the elide-rmw pass drops the two
// redundant LBA-register rewrites per command).
func TestDMAOperationCounts(t *testing.T) {
	for i, want := range []uint64{14, 18} {
		p, _ := rig(t, 256)
		drv := drivers(p, Config{Mode: DMA})[i]
		if err := drv.Init(); err != nil {
			t.Fatal(err)
		}
		p.Space.ResetStats()
		buf := make([]byte, 64*simide.SectorSize)
		if err := drv.ReadSectors(0, buf); err != nil {
			t.Fatal(err)
		}
		if got := p.Space.Stats().Ops(); got != want {
			t.Errorf("%s: %d I/O operations per DMA command, want %d", drv.Name(), got, want)
		}
	}
}

func TestReadErrorSurfaces(t *testing.T) {
	p, _ := rig(t, 64)
	drv := NewDevil(p, Config{Mode: PIO, Width: 16, SectorsPerIRQ: 1})
	if err := drv.Init(); err != nil {
		t.Fatal(err)
	}
	// Reading beyond the end of the disk must fail, not hang or fabricate.
	buf := make([]byte, 16*simide.SectorSize)
	if err := drv.ReadSectors(60, buf); err == nil {
		t.Error("expected out-of-range read to fail")
	}
}

func TestThroughputShape(t *testing.T) {
	// The qualitative Table 2 shape: DMA caps at the media rate for both
	// drivers; the Devil C-loop PIO driver lands near 90% of standard; the
	// Devil block driver is within 1%.
	read := func(drv Driver, p Ports) float64 {
		if err := drv.Init(); err != nil {
			t.Fatal(err)
		}
		start := p.Clock.Now()
		buf := make([]byte, 512*simide.SectorSize)
		if err := drv.ReadSectors(0, buf); err != nil {
			t.Fatal(err)
		}
		elapsed := p.Clock.Now() - start
		return float64(len(buf)) / (float64(elapsed) / 1e9) / 1e6 // MB/s
	}

	cfg := Config{Mode: PIO, Width: 32, SectorsPerIRQ: 16}
	ph, _ := rig(t, 1024)
	hand := read(NewHand(ph, Config{Mode: PIO, Width: 32, SectorsPerIRQ: 16, Block: true}), ph)
	pl, _ := rig(t, 1024)
	loop := read(NewDevil(pl, cfg), pl)
	pb, _ := rig(t, 1024)
	block := read(NewDevil(pb, Config{Mode: PIO, Width: 32, SectorsPerIRQ: 16, Block: true}), pb)

	if r := loop / hand; r < 0.85 || r > 0.96 {
		t.Errorf("devil C-loop / standard = %.2f, want ~0.90", r)
	}
	if r := block / hand; r < 0.98 || r > 1.01 {
		t.Errorf("devil block / standard = %.2f, want ~1.00", r)
	}

	pd1, _ := rig(t, 1024)
	dmaStd := read(NewHand(pd1, Config{Mode: DMA}), pd1)
	pd2, _ := rig(t, 1024)
	dmaDev := read(NewDevil(pd2, Config{Mode: DMA}), pd2)
	if r := dmaDev / dmaStd; r < 0.99 || r > 1.01 {
		t.Errorf("DMA ratio = %.2f, want 1.00", r)
	}
	// The media rate is ~14.25 MB/s (70ns/byte); both should be near it.
	if dmaStd < 12 || dmaStd > 14.5 {
		t.Errorf("DMA throughput = %.2f MB/s, want ~14", dmaStd)
	}
	fmt.Printf("PIO32/16: std %.2f, devil-loop %.2f, devil-block %.2f MB/s; DMA %.2f/%.2f\n",
		hand, loop, block, dmaStd, dmaDev)
}

// TestDMABounceBufferChunks: a DMA transfer larger than the bounce buffer
// is split into commands the buffer holds, in both directions, and a
// machine with no bounce room fails with an error instead of a lost
// interrupt or a nil dereference.
func TestDMABounceBufferChunks(t *testing.T) {
	for i, name := range []string{"standard", "devil"} {
		r := NewRig(64, 4)
		r.Space.StrictFaults = true
		drv := drivers(r.Ports(), Config{Mode: DMA})[i]
		if err := drv.Init(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8*simide.SectorSize)
		if err := drv.ReadSectors(3, got); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, r.Disk.ReadImage(3, 8)) {
			t.Errorf("%s: read data mismatch", name)
		}
		for j := range got {
			got[j] = byte(j*5 + 1)
		}
		if err := drv.WriteSectors(20, got); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		if !bytes.Equal(r.Disk.ReadImage(20, 8), got) {
			t.Errorf("%s: disk image does not match written data", name)
		}

		p := r.Ports()
		p.Mem = nil
		drv = drivers(p, Config{Mode: DMA})[i]
		if err := drv.ReadSectors(0, got); err == nil {
			t.Errorf("%s: DMA without bounce memory succeeded", name)
		}
	}
}
