// Package experiments regenerates the paper's evaluation tables over the
// simulated substrates:
//
//	Table 1 — language error-detection coverage (mutation analysis)
//	Table 2 — IDE driver throughput, standard vs Devil
//	Table 3 — Permedia2 fill-rectangle throughput
//	Table 4 — Permedia2 screen-copy throughput
//	Table 5 — sound-DMA pipeline throughput (cs4236 + dma8237 + pic8259),
//	          standard vs Devil
//	Table 6 — device-farm scaling over fleets of those machines
//
// Each TableN function runs the experiment and returns both structured rows
// and the paper-format text. Every run builds its machine with the NewRig
// of the driver package under test, so the tables, the farm and the driver
// tests measure one wiring of each device. Absolute numbers depend on the
// simulator cost model (see package bus); the claims under test are the
// relative ones — who wins, by what factor, where the overhead vanishes.
package experiments

import (
	"fmt"
	"strings"

	idedrv "repro/internal/drivers/ide"
	pmdrv "repro/internal/drivers/permedia2"
	snddrv "repro/internal/drivers/sound"
	"repro/internal/farm"
	"repro/internal/mutation"
	"repro/internal/obs"
	simide "repro/internal/sim/ide"
)

// ---------------------------------------------------------------------------
// Table 1

// Table1 runs the mutation study and renders it in the paper's layout.
func Table1() (string, error) {
	rows, err := mutation.RunStudy("")
	if err != nil {
		return "", err
	}
	return "Table 1: Language Error-Detection Coverage Analysis\n\n" +
		mutation.FormatTable(rows), nil
}

// ---------------------------------------------------------------------------
// Table 2

// IDERow is one measured row of Table 2.
type IDERow struct {
	Config   idedrv.Config
	StdOps   uint64  // I/O operations for the whole transfer
	StdMBs   float64 // simulated throughput
	DevilOps uint64
	DevilMBs float64
	Ratio    float64 // Devil/standard throughput
}

// runIDE measures one driver over a whole transfer and returns (ops, MB/s).
func runIDE(mkDriver func(idedrv.Ports) idedrv.Driver, sectors int) (uint64, float64, error) {
	rig := idedrv.NewRig(sectors+64, 256)
	drv := mkDriver(rig.Ports())
	if err := drv.Init(); err != nil {
		return 0, 0, err
	}
	rig.Space.ResetStats()
	start := rig.Clock.Now()
	buf := make([]byte, sectors*simide.SectorSize)
	if err := drv.ReadSectors(0, buf); err != nil {
		return 0, 0, err
	}
	elapsed := rig.Clock.Now() - start
	mbs := float64(len(buf)) / (float64(elapsed) / 1e9) / 1e6
	return rig.Space.Stats().Ops(), mbs, nil
}

// pioConfigs lists the Table 2 PIO rows: sectors per interrupt 16, 8 and
// 1, each at 32- and 16-bit width, with block-transfer stubs or without.
func pioConfigs(block bool) []idedrv.Config {
	var cfgs []idedrv.Config
	for _, spi := range []int{16, 8, 1} {
		for _, w := range []int{32, 16} {
			cfgs = append(cfgs, idedrv.Config{Mode: idedrv.PIO, Width: w, SectorsPerIRQ: spi, Block: block})
		}
	}
	return cfgs
}

// Table2Row measures one configuration with both drivers over a transfer
// of the given number of sectors. The Devil driver runs the configuration
// as given; the standard driver always moves data with rep insw/insl.
func Table2Row(cfg idedrv.Config, sectors int) (IDERow, error) {
	stdCfg := cfg
	stdCfg.Block = true
	stdOps, stdMBs, err := runIDE(func(p idedrv.Ports) idedrv.Driver { return idedrv.NewHand(p, stdCfg) }, sectors)
	if err != nil {
		return IDERow{}, fmt.Errorf("standard %s: %w", cfg, err)
	}
	devOps, devMBs, err := runIDE(func(p idedrv.Ports) idedrv.Driver { return idedrv.NewDevil(p, cfg) }, sectors)
	if err != nil {
		return IDERow{}, fmt.Errorf("devil %s: %w", cfg, err)
	}
	return IDERow{
		Config: cfg, StdOps: stdOps, StdMBs: stdMBs,
		DevilOps: devOps, DevilMBs: devMBs, Ratio: devMBs / stdMBs,
	}, nil
}

// ideRows measures each configuration's row.
func ideRows(configs []idedrv.Config, sectors int) ([]IDERow, error) {
	var rows []IDERow
	for _, cfg := range configs {
		row, err := Table2Row(cfg, sectors)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Configs lists the Table 2 rows: DMA, then the PIO configurations
// without block-transfer stubs.
func Table2Configs() []idedrv.Config {
	return append([]idedrv.Config{{Mode: idedrv.DMA}}, pioConfigs(false)...)
}

// Table2Rows measures every Table 2 row over a transfer of the given number
// of sectors (the paper used hdparm's sequential read).
func Table2Rows(sectors int) ([]IDERow, error) { return ideRows(Table2Configs(), sectors) }

// Table2BlockRows measures the Devil block-stub variants (§4.3: "when using
// block transfer stubs that use a rep instruction, we did not observe an
// impact on the available throughput").
func Table2BlockRows(sectors int) ([]IDERow, error) {
	return ideRows(pioConfigs(true), sectors)
}

// Table2 renders the IDE comparison in the paper's layout.
func Table2(sectors int) (string, error) {
	rows, err := Table2Rows(sectors)
	if err != nil {
		return "", err
	}
	blocks, err := Table2BlockRows(sectors)
	if err != nil {
		return "", err
	}
	all := append(rows, blocks...)
	w := len("Transfer mode") // the label column fits the longest label
	for _, r := range all {
		w = max(w, len(r.Config.String()))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: IDE driver comparative performance (%d sectors = %.1f MiB read; Devil data loop in C)\n\n",
		sectors, float64(sectors)/2048)
	fmt.Fprintf(&b, "%-*s %12s %10s %12s %10s %8s\n",
		w, "Transfer mode", "Std I/O ops", "Std MB/s", "Devil ops", "Dev MB/s", "Ratio")
	for i, r := range all {
		if i == len(rows) {
			fmt.Fprintf(&b, "\nDevil block-transfer stubs (rep equivalent):\n")
		}
		fmt.Fprintf(&b, "%-*s %12d %10.2f %12d %10.2f %7.0f%%\n",
			w, r.Config, r.StdOps, r.StdMBs, r.DevilOps, r.DevilMBs, r.Ratio*100)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Tables 3 and 4

// GfxRow is one measured row of Table 3 or 4.
type GfxRow struct {
	BPP, Size   int
	StdWrites   uint64  // register writes per primitive
	StdRate     float64 // primitives per second (simulated)
	DevilWrites uint64
	DevilRate   float64
	Ratio       float64
}

// xServerOverheadNS is the simulated per-primitive cost of the X server's
// software path (dispatch, clipping, state checks) charged identically to
// both drivers, as in the paper's xbench runs.
const xServerOverheadNS = 400

// runGfx measures one driver drawing n primitives of the given size.
func runGfx(mk func(pmdrv.Ports) pmdrv.Driver, bpp, size, n int, copyTest bool) (uint64, float64, error) {
	rig := pmdrv.NewRig()
	drv := mk(rig.Ports())
	if err := drv.Init(bpp); err != nil {
		return 0, 0, err
	}

	// Writes per primitive, measured on an idle engine.
	rig.Space.ResetStats()
	if copyTest {
		drv.CopyRect(0, 0, 500, 300, size, size)
	} else {
		drv.FillRect(0, 0, size, size, 0x55)
	}
	writes := rig.Space.Stats().Out

	start := rig.Clock.Now()
	for i := 0; i < n; i++ {
		rig.Clock.Advance(xServerOverheadNS)
		if copyTest {
			drv.CopyRect(0, 0, 500, 300, size, size)
		} else {
			drv.FillRect(0, 0, size, size, uint32(i))
		}
	}
	// Run to completion: wait for the engine to drain so the measurement
	// covers drawn primitives, not issued ones (otherwise the drivers'
	// different FIFO pipelining depths skew short engine-bound runs).
	drv.WaitIdle()
	elapsed := rig.Clock.Now() - start
	rate := float64(n) / (float64(elapsed) / 1e9)
	return writes, rate, nil
}

// GfxBPPs and GfxSizes span the Table 3 and 4 sweeps: every depth at
// every square primitive size.
var (
	GfxBPPs  = []int{8, 16, 24, 32}
	GfxSizes = []int{2, 10, 100, 400}
)

// gfxRow measures one depth and size with both drivers. Large primitives
// run a tenth of iters (at least one).
func gfxRow(copyTest bool, bpp, size, iters int) (GfxRow, error) {
	n := iters
	if size >= 100 {
		n = max(iters/10, 1)
	}
	sw, sr, err := runGfx(func(p pmdrv.Ports) pmdrv.Driver { return pmdrv.NewHand(p) }, bpp, size, n, copyTest)
	if err != nil {
		return GfxRow{}, err
	}
	dw, dr, err := runGfx(func(p pmdrv.Ports) pmdrv.Driver { return pmdrv.NewDevil(p) }, bpp, size, n, copyTest)
	if err != nil {
		return GfxRow{}, err
	}
	return GfxRow{
		BPP: bpp, Size: size,
		StdWrites: sw, StdRate: sr,
		DevilWrites: dw, DevilRate: dr,
		Ratio: dr / sr,
	}, nil
}

// gfxRows measures one table's sweep.
func gfxRows(copyTest bool, iters int) ([]GfxRow, error) {
	var rows []GfxRow
	for _, bpp := range GfxBPPs {
		for _, size := range GfxSizes {
			row, err := gfxRow(copyTest, bpp, size, iters)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table3Row measures one fill-rectangle row.
func Table3Row(bpp, size, iters int) (GfxRow, error) { return gfxRow(false, bpp, size, iters) }

// Table4Row measures one screen-copy row.
func Table4Row(bpp, size, iters int) (GfxRow, error) { return gfxRow(true, bpp, size, iters) }

// Table3Rows measures the fill-rectangle sweep.
func Table3Rows(iters int) ([]GfxRow, error) { return gfxRows(false, iters) }

// Table4Rows measures the screen-copy sweep.
func Table4Rows(iters int) ([]GfxRow, error) { return gfxRows(true, iters) }

func renderGfx(title, unit string, rows []GfxRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%4s %9s %10s %12s %10s %12s %8s\n",
		"bpp", "size", "Std wr/op", "Std "+unit, "Dev wr/op", "Dev "+unit, "Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %4dx%-4d %10d %12.0f %10d %12.0f %7.0f%%\n",
			r.BPP, r.Size, r.Size, r.StdWrites, r.StdRate, r.DevilWrites, r.DevilRate, r.Ratio*100)
	}
	return b.String()
}

// Table3 renders the Permedia2 rectangle test.
func Table3(iters int) (string, error) {
	rows, err := Table3Rows(iters)
	if err != nil {
		return "", err
	}
	return renderGfx("Table 3: Permedia2 Xfree86 driver, rectangle test", "rect/s", rows), nil
}

// Table4 renders the Permedia2 screen-copy test.
func Table4(iters int) (string, error) {
	rows, err := Table4Rows(iters)
	if err != nil {
		return "", err
	}
	return renderGfx("Table 4: Permedia2 Xfree86 driver, screen copy test", "copy/s", rows), nil
}

// ---------------------------------------------------------------------------
// Table 5

// SoundRow is one measured row of Table 5: the sound-DMA pipeline
// (CS4236B codec + 8237A DMA + 8259A PIC) streaming a clip, standard vs
// Devil driver.
type SoundRow struct {
	Config   snddrv.Config
	StdOps   uint64  // I/O operations for the whole playback
	StdMBs   float64 // simulated throughput
	DevilOps uint64
	DevilMBs float64
	Ratio    float64 // Devil/standard throughput
}

// Table5Configs enumerates the measured buffer-size x sample-rate sweep.
func Table5Configs() []snddrv.Config {
	var cfgs []snddrv.Config
	for _, ring := range []int{512, 2048, 8192} {
		cfgs = append(cfgs,
			snddrv.Config{Rate: 22050, RingBytes: ring},
			snddrv.Config{Rate: 48000, Stereo: true, Bits16: true, RingBytes: ring},
		)
	}
	return cfgs
}

// runSound measures one driver streaming revs ring revolutions and returns
// (ops, MB/s). The consumed samples are verified against the clip — a
// pipeline that is fast but wrong does not get a row.
func runSound(mk func(snddrv.Ports) snddrv.Driver, cfg snddrv.Config, revs int) (uint64, float64, error) {
	rig := snddrv.NewRig()
	drv := mk(rig.Ports())
	if err := drv.Init(); err != nil {
		return 0, 0, err
	}
	clip := snddrv.Clip(cfg.RingBytes * revs)
	rig.Space.ResetStats()
	start := rig.Clock.Now()
	if err := drv.Play(clip); err != nil {
		return 0, 0, err
	}
	elapsed := rig.Clock.Now() - start
	if err := rig.CheckPlayback(clip); err != nil {
		return 0, 0, err
	}
	mbs := float64(len(clip)) / (float64(elapsed) / 1e9) / 1e6
	return rig.Space.Stats().Ops(), mbs, nil
}

// Table5Row measures one configuration with both drivers over a clip of
// revs ring revolutions (each revolution is one terminal-count interrupt).
func Table5Row(cfg snddrv.Config, revs int) (SoundRow, error) {
	stdOps, stdMBs, err := runSound(func(p snddrv.Ports) snddrv.Driver { return snddrv.NewHand(p, cfg) }, cfg, revs)
	if err != nil {
		return SoundRow{}, fmt.Errorf("standard %s: %w", cfg, err)
	}
	devOps, devMBs, err := runSound(func(p snddrv.Ports) snddrv.Driver { return snddrv.NewDevil(p, cfg) }, cfg, revs)
	if err != nil {
		return SoundRow{}, fmt.Errorf("devil %s: %w", cfg, err)
	}
	return SoundRow{
		Config: cfg, StdOps: stdOps, StdMBs: stdMBs,
		DevilOps: devOps, DevilMBs: devMBs, Ratio: devMBs / stdMBs,
	}, nil
}

// Table5Rows measures the whole Table 5 sweep.
func Table5Rows(revs int) ([]SoundRow, error) {
	var rows []SoundRow
	for _, cfg := range Table5Configs() {
		row, err := Table5Row(cfg, revs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table5 renders the sound pipeline comparison.
func Table5(revs int) (string, error) {
	rows, err := Table5Rows(revs)
	if err != nil {
		return "", err
	}
	w := len("Configuration") // the label column fits the longest label
	for _, r := range rows {
		w = max(w, len(r.Config.String()))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Sound-DMA pipeline (CS4236B + i8237A + i8259A), %d ring revolutions per run\n\n", revs)
	fmt.Fprintf(&b, "%-*s %12s %10s %12s %10s %8s\n",
		w, "Configuration", "Std I/O ops", "Std MB/s", "Devil ops", "Dev MB/s", "Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %12d %10.4f %12d %10.4f %7.0f%%\n",
			w, r.Config, r.StdOps, r.StdMBs, r.DevilOps, r.DevilMBs, r.Ratio*100)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Table 6

// FarmRow is one measured row of Table 6: one fleet run at one worker
// count with one driver variant.
type FarmRow struct {
	Variant farm.Variant
	Workers int
	Hosts   int
	Ops     uint64  // fleet total port/MMIO operations
	Bytes   uint64  // fleet total payload bytes
	OpsRate float64 // aggregate ops/s over the fleet makespan
	MBs     float64 // aggregate MB/s over the fleet makespan
	Speedup float64 // MBs relative to the same variant's 1-worker row
	WallNS  int64   // informational physical time of the pool
}

// Table6Workers is the worker-count sweep of Table 6.
var Table6Workers = []int{1, 2, 4, 8, 16}

// Table6Hosts is the default fleet size; it is a multiple of every entry
// in Table6Workers times the three workload families, so each worker's
// round-robin share is a balanced mix and makespan scales as 1/W.
const Table6Hosts = 48

// Table6Rows runs the device-farm scaling experiment: a fleet of hosts
// (IDE, Permedia2, and sound workloads in equal measure) executed at each
// worker count, hand and devil drivers separately. Aggregate throughput
// is defined on the virtual-time makespan (see package farm); per-host
// results are deterministic, so only the division of work changes with W.
func Table6Rows(hosts int) ([]FarmRow, error) {
	var rows []FarmRow
	for _, v := range []farm.Variant{farm.Hand, farm.Devil} {
		var base float64
		for _, w := range Table6Workers {
			f := farm.RunFleet(farm.DefaultFleet(hosts, v), w)
			if err := f.Err(); err != nil {
				return nil, fmt.Errorf("table 6 %s W=%d: %w", v, w, err)
			}
			row := FarmRow{
				Variant: v, Workers: w, Hosts: hosts,
				Ops: f.Ops, Bytes: f.Bytes,
				OpsRate: f.OpsPerSec(), MBs: f.MBPerSec(), WallNS: f.WallNS,
			}
			if w == 1 {
				base = row.MBs
			}
			if base > 0 {
				row.Speedup = row.MBs / base
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table6 renders the farm scaling experiment.
func Table6(hosts int) (string, error) {
	rows, err := Table6Rows(hosts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: device-farm scaling (%d hosts: IDE DMA + Permedia2 fill + sound playback, aggregate over virtual-time makespan)\n\n", hosts)
	fmt.Fprintf(&b, "%-8s %8s %14s %12s %12s %9s\n",
		"Driver", "Workers", "I/O ops", "Mops/s", "MB/s", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d %14d %12.2f %12.2f %8.1fx\n",
			r.Variant, r.Workers, r.Ops, r.OpsRate/1e6, r.MBs, r.Speedup)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Trace capture

// CaptureSound runs one sound-pipeline playback on a farm host observed
// from construction and returns the captured event stream: every port
// access stamped with virtual time and attributed to the driver phase (and,
// for the Devil driver, the .dil variable the generated stub was accessing),
// interleaved with the IRQ, DMA terminal-count, and clock-advance events of
// the three chips. driver selects "standard" (or "hand") or "devil". The
// playback is checked as in Table 5: a run whose DAC played the wrong
// bytes or underran returns an error, not a trace.
func CaptureSound(driver string, cfg snddrv.Config, revs int) ([]obs.Event, error) {
	var v farm.Variant
	switch driver {
	case "standard", "hand":
		v = farm.Hand
	case "devil":
		v = farm.Devil
	default:
		return nil, fmt.Errorf("unknown driver %q (want standard or devil)", driver)
	}
	ring := obs.NewRing(1 << 20)
	h := farm.New("capture", farm.WorkloadSpec{Kind: farm.Sound, Variant: v, Sound: cfg, Revs: revs, Observer: ring})
	if err := h.Run().Err; err != nil {
		return nil, err
	}
	if dropped := ring.Dropped(); dropped > 0 {
		return nil, fmt.Errorf("trace ring overflowed: %d events dropped", dropped)
	}
	return ring.Events(), nil
}

// DefaultCaptureConfig is the Table 5 row the trace tooling records by
// default: the small-ring 22050 Hz mono configuration, whose per-revolution
// refill cycle is the paper's running example.
func DefaultCaptureConfig() snddrv.Config {
	return snddrv.Config{Rate: 22050, RingBytes: 512}
}
