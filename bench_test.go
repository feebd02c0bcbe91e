package repro

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	idedrv "repro/internal/drivers/ide"
	pmdrv "repro/internal/drivers/permedia2"
	snddrv "repro/internal/drivers/sound"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/gen"
	genbm "repro/internal/gen/busmouse"
	gencs "repro/internal/gen/cs4236"
	gendma "repro/internal/gen/dma8237"
	genpic "repro/internal/gen/pic8259"
	"repro/internal/mutation"
	"repro/internal/obs"
	simbm "repro/internal/sim/busmouse"
	simide "repro/internal/sim/ide"
)

// ---------------------------------------------------------------------------
// Table 1: mutation analysis. The benchmark reports the paper's headline
// metric — the ratio of undetected-error propensity, C over C_Devil — as a
// custom metric per device.

func BenchmarkTable1MutationAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := mutation.RunStudy("busmouse")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RatioCDevil(), "C/C_Devil-ratio")
		b.ReportMetric(rows[0].Devil.UndetectedPerSite(), "devil-undet/site")
	}
}

// ---------------------------------------------------------------------------
// Table 2: IDE throughput. One benchmark per table row; the reported
// MB/s metrics are simulated (virtual-clock) throughput for both drivers.

func BenchmarkTable2IDE(b *testing.B) {
	for _, cfg := range experiments.Table2Configs() {
		b.Run(cfg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table2Row(cfg, 1024)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.StdMBs, "std-MB/s")
				b.ReportMetric(r.DevilMBs, "devil-MB/s")
				b.ReportMetric(r.Ratio*100, "ratio-%")
				// Port-operation counts (lower is better): the bench gate
				// catches a codegen change that reopens the devil-vs-hand
				// I/O gap.
				b.ReportMetric(float64(r.StdOps), "std-ops/op")
				b.ReportMetric(float64(r.DevilOps), "devil-ops/op")
			}
		})
	}
}

// BenchmarkTable2IDEBlockStubs covers the §4.3 block-transfer result.
func BenchmarkTable2IDEBlockStubs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2BlockRows(1024)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1
		for _, r := range rows {
			if r.Ratio < worst {
				worst = r.Ratio
			}
		}
		b.ReportMetric(worst*100, "worst-ratio-%")
	}
}

// ---------------------------------------------------------------------------
// Tables 3 and 4: Permedia2 driver throughput.

func gfxBench(b *testing.B, row func(bpp, size, iters int) (experiments.GfxRow, error)) {
	for _, bpp := range experiments.GfxBPPs {
		for _, size := range experiments.GfxSizes {
			b.Run(fmt.Sprintf("%dbpp/%dx%d", bpp, size, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := row(bpp, size, 200)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.StdRate, "std-prim/s")
					b.ReportMetric(r.DevilRate, "devil-prim/s")
					b.ReportMetric(r.Ratio*100, "ratio-%")
					b.ReportMetric(float64(r.StdWrites), "std-ops/op")
					b.ReportMetric(float64(r.DevilWrites), "devil-ops/op")
				}
			})
		}
	}
}

func BenchmarkTable3Rectangles(b *testing.B) { gfxBench(b, experiments.Table3Row) }

func BenchmarkTable4ScreenCopies(b *testing.B) { gfxBench(b, experiments.Table4Row) }

// ---------------------------------------------------------------------------
// Table 5: the sound-DMA pipeline (cs4236 + dma8237 + pic8259). One
// benchmark per configuration; the reported MB/s metrics are simulated
// (virtual-clock) playback throughput for both drivers, so the CI bench
// gate guards the pipeline's trajectory.

func BenchmarkTable5(b *testing.B) {
	for _, cfg := range experiments.Table5Configs() {
		b.Run(cfg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table5Row(cfg, 4)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.StdMBs, "std-MB/s")
				b.ReportMetric(r.DevilMBs, "devil-MB/s")
				b.ReportMetric(r.Ratio*100, "ratio-%")
				b.ReportMetric(float64(r.StdOps), "std-ops/op")
				b.ReportMetric(float64(r.DevilOps), "devil-ops/op")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 6: device-farm scaling. One benchmark per worker count; the
// reported aggregate MB/s and ops/s are fleet totals over the
// virtual-time makespan, and the per-variant ops totals ride in the
// lower-is-better ops/op family so the gate catches an I/O regression in
// either driver family under fleet load. hosts/s is the physical scaling
// next to that modelled one: hosts run per wall-clock second of the
// worker pools, on the GOMAXPROCS the benchmark name ends in.

func BenchmarkTable6(b *testing.B) {
	for _, workers := range experiments.Table6Workers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var hosts, wallNS int64
			for i := 0; i < b.N; i++ {
				var perVariant [2]farm.FleetResult
				for vi, v := range []farm.Variant{farm.Hand, farm.Devil} {
					f := farm.RunFleet(farm.DefaultFleet(experiments.Table6Hosts, v), workers)
					if err := f.Err(); err != nil {
						b.Fatal(err)
					}
					perVariant[vi] = f
					hosts += int64(len(f.Hosts))
					wallNS += f.WallNS
				}
				hand, devil := perVariant[0], perVariant[1]
				b.ReportMetric(hand.MBPerSec(), "std-MB/s")
				b.ReportMetric(devil.MBPerSec(), "devil-MB/s")
				b.ReportMetric(hand.OpsPerSec(), "std-ops/s")
				b.ReportMetric(devil.OpsPerSec(), "devil-ops/s")
				b.ReportMetric(float64(hand.Ops), "std-ops/op")
				b.ReportMetric(float64(devil.Ops), "devil-ops/op")
			}
			b.ReportMetric(float64(hosts)/(float64(wallNS)/1e9), "hosts/s")
		})
	}
}

// ---------------------------------------------------------------------------
// §4.3 micro-analysis: a compiled Devil stub costs the same as the
// hand-crafted access it replaces. These two pairs measure real (wall-clock)
// cost of the generated code against raw bus calls.

func newMouseRig() (*bus.Space, *simbm.Sim) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	mouse := simbm.New()
	space.MustMap(0x23c, 4, mouse)
	return space, mouse
}

func BenchmarkMicroStubSetConfig(b *testing.B) {
	space, _ := newMouseRig()
	dev := genbm.New(space, 0x23c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.SetConfig(genbm.ConfigCONFIGURATION)
	}
}

func BenchmarkMicroHandSetConfig(b *testing.B) {
	space, _ := newMouseRig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Out8(0x23c+3, 0x91)
	}
}

func BenchmarkMicroStubMouseState(b *testing.B) {
	space, _ := newMouseRig()
	dev := genbm.New(space, 0x23c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.ReadMouseState()
		_ = dev.Dx() + dev.Dy()
	}
}

func BenchmarkMicroHandMouseState(b *testing.B) {
	space, _ := newMouseRig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Out8(0x23c+2, 0xa0)
		xh := space.In8(0x23c)
		space.Out8(0x23c+2, 0x80)
		xl := space.In8(0x23c)
		space.Out8(0x23c+2, 0xe0)
		yh := space.In8(0x23c)
		space.Out8(0x23c+2, 0xc0)
		yl := space.In8(0x23c)
		dx := int8(xh&0xf<<4 | xl&0xf)
		dy := int8(yh&0xf<<4 | yl&0xf)
		_ = dx + dy
	}
}

// ---------------------------------------------------------------------------
// Library-closure devices: one benchmark per device added by the 8/8
// coverage work, driving the compiled stubs against the register-accurate
// simulators (the three sound chips in their snddrv rig). The virtual-clock
// metrics give CI a trajectory to guard.

func BenchmarkPIC8259StubInitAndEOI(b *testing.B) {
	rig := snddrv.NewRig()
	dev := genpic.New(rig.Space, snddrv.PICBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := rig.Clock.Now()
		dev.SetSngl(genpic.SnglCASCADED)
		dev.SetIc4(true)
		dev.SetBaseVec(4)
		dev.SetSlaves(0x04)
		dev.SetMicroprocessor(genpic.MicroprocessorX8086)
		dev.WriteInit()
		dev.SetIrqMask(0xfb)
		rig.PIC.Raise(2)
		rig.PIC.Ack()
		dev.SetEoi(genpic.EoiSPECIFICEOI)
		dev.SetEoiLevel(2)
		dev.WriteEoiCmd()
		b.ReportMetric(float64(rig.Clock.Now()-start)/1e3, "virt-us/init")
	}
}

func BenchmarkDMA8237StubProgram(b *testing.B) {
	rig := snddrv.NewRig()
	dev := gendma.New(rig.Space, snddrv.DMABase)
	const words = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := rig.Clock.Now()
		dev.SetMaskChan(0)
		dev.SetMaskOn(true)
		dev.WriteSingleMask()
		dev.SetChan(0)
		dev.SetXfer(gendma.XferREADXFER)
		dev.SetMmode(gendma.MmodeSINGLE)
		dev.WriteMode()
		dev.SetAddr0(0x2000)
		dev.SetCount0(words - 1)
		dev.SetMaskOn(false)
		dev.WriteSingleMask()
		rig.DMA.Transfer(words)
		dev.ReadDmaStatus()
		virtSec := float64(rig.Clock.Now()-start) / 1e9
		b.ReportMetric(float64(words)/1e6/virtSec, "prog-MB/s")
		rig.Codec.ResetPlayback() // the channel fed the codec FIFO; drain it
	}
}

func BenchmarkCS4236StubExtAccess(b *testing.B) {
	rig := snddrv.NewRig()
	dev := gencs.New(rig.Space, snddrv.WSSBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := rig.Clock.Now()
		// One full three-step extended-register walk plus an indexed
		// access, the soundinit path.
		dev.SetExt(uint8(i), 5)
		dev.SetAfe2(uint8(i))
		b.ReportMetric(float64(rig.Clock.Now()-start)/1e3, "virt-us/access")
	}
}

// ---------------------------------------------------------------------------
// Raw substrate benchmarks, for calibration.

func BenchmarkBusPortAccess(b *testing.B) {
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMap(0, 16, bus.NewRAM(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Out8(0, uint8(i))
		_ = space.In8(0)
	}
}

func BenchmarkIDESimPIORead(b *testing.B) {
	rig := idedrv.NewRig(256, 64)
	drv := idedrv.NewHand(rig.Ports(), idedrv.Config{Mode: idedrv.PIO, Width: 32, SectorsPerIRQ: 16, Block: true})
	if err := drv.Init(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*simide.SectorSize)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drv.ReadSectors(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermedia2Fill(b *testing.B) {
	drv := pmdrv.NewDevil(pmdrv.NewRig().Ports())
	if err := drv.Init(8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.FillRect(0, 0, 10, 10, uint32(i))
	}
}

// ---------------------------------------------------------------------------
// Observation pipeline overhead. BenchmarkBusObserverNil is the
// zero-cost-when-disabled claim: the same port loop as
// BenchmarkBusPortAccess with the observer plumbing compiled in but
// detached — its wall-clock MB/s joins the CI bench gate, so a change
// that makes the disabled pipeline expensive fails the trajectory. The
// ring and metrics variants price the enabled paths, and the span
// benchmark prices the attribution a generated stub adds per call.

func busObserverBench(b *testing.B, attach func(*bus.Space)) {
	b.Helper()
	var clk bus.Clock
	space := bus.NewSpace("io", &clk, bus.DefaultPortCosts())
	space.MustMapNamed("ram", 0, 16, bus.NewRAM(16))
	if attach != nil {
		attach(space)
		defer space.SetObserver(nil)
	}
	b.SetBytes(2) // one 8-bit write + one 8-bit read per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Out8(0, uint8(i))
		_ = space.In8(0)
	}
}

func BenchmarkBusObserverNil(b *testing.B) { busObserverBench(b, nil) }

func BenchmarkBusObserverRing(b *testing.B) {
	ring := obs.NewRing(4096)
	busObserverBench(b, func(s *bus.Space) { s.SetObserver(ring) })
}

func BenchmarkBusObserverMetrics(b *testing.B) {
	m := obs.NewMetrics()
	busObserverBench(b, func(s *bus.Space) { s.SetObserver(m) })
}

// BenchmarkObsSpanDisabled pins the cost a stub pays on an unobserved
// host: a nil check plus one atomic load, no lock, no allocation.
func BenchmarkObsSpanDisabled(b *testing.B) {
	var sp obs.Spans
	for i := 0; i < b.N; i++ {
		if sp.Enabled() {
			b.Fatal("tracking unexpectedly on")
		}
		sp.Span("cs4236.pfmt.set")()
	}
}

// BenchmarkObsSpanNilHost pins the cost for a producer with no host at
// all (a stub bound to a bare test bus): one nil check.
func BenchmarkObsSpanNilHost(b *testing.B) {
	var sp *obs.Spans
	for i := 0; i < b.N; i++ {
		sp.Span("cs4236.pfmt.set")()
	}
}

func BenchmarkObsSpanEnabled(b *testing.B) {
	var sp obs.Spans
	sp.Enable()
	defer sp.Disable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Span("cs4236.pfmt.set")()
	}
}

// ---------------------------------------------------------------------------
// Snapshot serialization cost (see internal/snap): per-device marshal
// bandwidth over every registered simulator, plus whole-host save and
// restore through internal/farm. The *-MB/s metrics are wall-clock
// serialization bandwidth and sit behind the CI benchmark gate.

func BenchmarkSnapshotDevice(b *testing.B) {
	for _, d := range gen.Devices {
		b.Run(d.Name, func(b *testing.B) {
			var clk bus.Clock
			var space *bus.Space
			if d.MMIO {
				space = bus.NewSpace("mmio", &clk, bus.DefaultMemCosts())
			} else {
				space = bus.NewSpace("io", &clk, bus.DefaultPortCosts())
			}
			dev := d.NewSim(&clk, space)
			blob, err := dev.MarshalState(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blob, err = dev.MarshalState(blob[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(blob))*float64(b.N)/b.Elapsed().Seconds()/1e6, "snap-MB/s")
		})
	}
}

// benchSnapHost builds the acceptance pipeline's host — sound playback,
// Devil variant — suspended mid-stream between two terminal-count
// interrupts, the state a checkpoint actually captures.
func benchSnapHost(b *testing.B) *farm.Host {
	b.Helper()
	h := farm.New("bench", farm.WorkloadSpec{
		Kind: farm.Sound, Variant: farm.Devil,
		Sound: snddrv.Config{Rate: 22050, RingBytes: 512}, Revs: 4,
	})
	for h.Pos() < 4 {
		if _, err := h.StepOnce(); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func BenchmarkSnapshotHostSave(b *testing.B) {
	h := benchSnapHost(b)
	blob, err := h.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob, err = h.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob))*float64(b.N)/b.Elapsed().Seconds()/1e6, "snap-MB/s")
}

func BenchmarkSnapshotHostRestore(b *testing.B) {
	blob, err := benchSnapHost(b).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := farm.RestoreHost(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob))*float64(b.N)/b.Elapsed().Seconds()/1e6, "restore-MB/s")
}
