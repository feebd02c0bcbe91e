// Diskpump: move data through the simulated IDE disk with the Devil-based
// driver in each of the paper's transfer modes, verifying data integrity
// and printing the virtual-clock throughput — a miniature of Table 2.
package main

import (
	"bytes"
	"fmt"
	"log"

	idedrv "repro/internal/drivers/ide"
	simide "repro/internal/sim/ide"
)

func run(cfg idedrv.Config) {
	rig := idedrv.NewRig(4096, 256)
	drv := idedrv.NewDevil(rig.Ports(), cfg)
	if err := drv.Init(); err != nil {
		log.Fatal(err)
	}

	// Write a recognizable pattern, then read it back.
	src := make([]byte, 128*simide.SectorSize)
	for i := range src {
		src[i] = byte(i>>8) ^ byte(i*31)
	}
	if err := drv.WriteSectors(512, src); err != nil {
		log.Fatal(cfg, ": write: ", err)
	}
	back := make([]byte, len(src))
	start := rig.Clock.Now()
	rig.Space.ResetStats()
	if err := drv.ReadSectors(512, back); err != nil {
		log.Fatal(cfg, ": read: ", err)
	}
	elapsed := rig.Clock.Now() - start
	if !bytes.Equal(src, back) {
		log.Fatal(cfg, ": data corruption")
	}
	mbs := float64(len(back)) / (float64(elapsed) / 1e9) / 1e6
	fmt.Printf("%-28s %6d I/O ops  %6.2f MB/s  (%d irqs)\n",
		cfg, rig.Space.Stats().Ops(), mbs, rig.IRQ.Total())
}

func main() {
	fmt.Println("devil IDE driver, 64 KiB write + verify read per mode")
	run(idedrv.Config{Mode: idedrv.DMA})
	run(idedrv.Config{Mode: idedrv.PIO, Width: 32, SectorsPerIRQ: 16, Block: true})
	run(idedrv.Config{Mode: idedrv.PIO, Width: 32, SectorsPerIRQ: 16})
	run(idedrv.Config{Mode: idedrv.PIO, Width: 16, SectorsPerIRQ: 1})
}
