package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"repro/internal/bus"
	idedrv "repro/internal/drivers/ide"
	simide "repro/internal/sim/ide"
)

// disk-pio: the Devil IDE driver in PIO mode, 16-bit, one sector per
// interrupt, loop style, on a 4096-sector simulated disk. A cycle is 64
// requests — for every sector count 1..16, three ReadSectors and one
// WriteSectors — in seeded order at seeded LBAs with seeded data. About
// 260 generated-stub calls per sector go through bus.Space.In16/Out16 into
// the IDE simulator, so the generated stubs, bus dispatch and per-word
// simulator work dominate, on the read side.

const (
	diskSectors  = 4096
	diskMaxCount = 16
	diskCycle    = diskMaxCount * 4
	ideCmdBase   = 0x1f0
	ideCtlBase   = 0x3f6
	ideBMBase    = 0xc000
	sectorSize   = simide.SectorSize
)

type diskReq struct {
	write  bool
	lba, n int
}

type disk struct {
	rng   *rand.Rand
	sum   digest
	clock *bus.Clock
	space *bus.Space
	irq   *bus.IRQLine
	sim   *simide.Disk
	drv   *idedrv.Devil

	cycle   [diskCycle]diskReq
	data    [diskCycle][]byte // write payloads
	buf     []byte            // read destination
	mirror  []byte            // expected disk image: Disk.ReadImage plus every write issued
	writes  []int             // requests of this cycle that wrote, re-read by verify
	prevLBA int               // LBA of the previous request
	ops     uint64            // space operation count after the last checked request
	now     uint64            // clock after the last checked request

	tr   *tracer
	base bus.Stats // space counters when the traced phase starts
	irq0 uint64    // interrupts raised before it
}

func newDisk(e env, tr *tracer) (rig, error) {
	d := &disk{
		rng:    newRand(e.seed, "disk-pio"),
		tr:     tr,
		buf:    make([]byte, diskMaxCount*sectorSize),
		writes: make([]int, 0, diskCycle),
	}
	d.clock = &bus.Clock{}
	d.space = bus.NewSpace("io", d.clock, bus.DefaultPortCosts())
	d.sim = simide.New(d.clock, diskSectors, nil)
	d.irq = &bus.IRQLine{}
	d.sim.IRQ = d.irq.Raise
	d.space.MustMapNamed("ide", ideCmdBase, 8, timed(d.sim.TaskFile(), tr))
	d.space.MustMapNamed("ide", ideCtlBase, 1, timed(d.sim.Control(), tr))
	d.space.MustMapNamed("ide", ideBMBase, 8, timed(d.sim.Busmaster(), tr))
	d.drv = idedrv.NewDevil(idedrv.Ports{
		Space: d.space, Clock: d.clock, IRQ: d.irq,
		CmdBase: ideCmdBase, CtlBase: ideCtlBase, BMBase: ideBMBase,
	}, idedrv.Config{Mode: idedrv.PIO, Width: 16, SectorsPerIRQ: 1})
	if err := d.drv.Init(); err != nil {
		return nil, err
	}
	for i := range d.data {
		d.data[i] = make([]byte, diskMaxCount*sectorSize)
	}
	d.mirror = d.sim.ReadImage(0, diskSectors)
	// Prime the stubs' register shadows with one read of sector 0, so the
	// first request finds them in the same state as every later one.
	if err := d.drv.ReadSectors(0, d.buf[:sectorSize]); err != nil {
		return nil, err
	}
	d.base, d.irq0 = d.space.Stats(), d.irq.Total()
	d.ops, d.now = d.base.Ops(), d.clock.Now()
	return d, nil
}

func (d *disk) size() int { return diskCycle }

func (d *disk) next() {
	k := 0
	for n := 1; n <= diskMaxCount; n++ {
		for j := 0; j < 4; j++ {
			d.cycle[k] = diskReq{write: j == 3, n: n}
			k++
		}
	}
	d.rng.Shuffle(len(d.cycle), func(i, j int) { d.cycle[i], d.cycle[j] = d.cycle[j], d.cycle[i] })
	for i := range d.cycle {
		q := &d.cycle[i]
		// At -O1 the stubs skip rewriting an LBA byte register that
		// already holds the value, so consecutive requests never share an
		// LBA low or mid byte: the port-operation count stays the same
		// for every seed.
		for {
			q.lba = d.rng.IntN(diskSectors - q.n + 1)
			if q.lba&0xff != d.prevLBA&0xff && q.lba>>8 != d.prevLBA>>8 {
				break
			}
		}
		d.prevLBA = q.lba
		d.sum.add(uint64(q.lba)<<8 | uint64(q.n))
		if q.write {
			fill := d.rng.Uint64()
			d.sum.add(fill)
			fillBytes(d.data[i][:q.n*sectorSize], fill)
		}
	}
	d.writes = d.writes[:0]
}

// fillBytes expands one seed into a block of data (splitmix64); len(b) is
// a multiple of 8.
func fillBytes(b []byte, x uint64) {
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^z>>31)
	}
}

func (d *disk) do(i int) error {
	q := d.cycle[i]
	sp := d.tr.begin("drivers.ide")
	defer d.tr.end(sp)
	if q.write {
		return d.drv.WriteSectors(q.lba, d.data[i][:q.n*sectorSize])
	}
	return d.drv.ReadSectors(q.lba, d.buf[:q.n*sectorSize])
}

func (d *disk) check(i int) (model, error) {
	q := d.cycle[i]
	ops, now := d.space.Stats().Ops(), d.clock.Now()
	m := model{payload: uint64(q.n * sectorSize), ops: ops - d.ops, virtNS: now - d.now}
	d.ops, d.now = ops, now
	lo, hi := q.lba*sectorSize, (q.lba+q.n)*sectorSize
	if q.write {
		copy(d.mirror[lo:hi], d.data[i])
		d.writes = append(d.writes, i)
		return m, nil
	}
	if !bytes.Equal(d.buf[:hi-lo], d.mirror[lo:hi]) {
		return m, fmt.Errorf("disk-pio: read of %d sectors at LBA %d differs from the disk image", q.n, q.lba)
	}
	return m, nil
}

// verify reads every sector range written this cycle back from the disk
// image.
func (d *disk) verify() int {
	failed := 0
	for _, i := range d.writes {
		q := d.cycle[i]
		lo, hi := q.lba*sectorSize, (q.lba+q.n)*sectorSize
		if !bytes.Equal(d.sim.ReadImage(q.lba, q.n), d.mirror[lo:hi]) {
			failed++
		}
	}
	return failed
}

func (d *disk) digest() uint64 { return uint64(d.sum) }

func (d *disk) layers(n int, spans map[string]*spanAgg) []metric {
	ms := deviceLayers("ide", n, spans["drivers.ide"], d.tr.cost, d.base, d.space.Stats())
	return append(ms, metric{"bus.ide.irqs_per_req", "count", float64(d.irq.Total()-d.irq0) / float64(n)})
}

// deviceLayers splits a driver-over-simulator request: the driver span,
// the handler time accumulated into it (the simulator), and the rest —
// driver, generated stubs and bus dispatch, which cannot be told apart
// from outside. Timer overhead is subtracted. The port counts come from
// the space's own counters: counting through an obs.Observer would switch
// on the stubs' span attribution, which costs more than the driver does.
func deviceLayers(dev string, n int, a *spanAgg, tc timerCost, before, after bus.Stats) []metric {
	per := func(x float64) float64 { return x / float64(n) }
	calls := float64(a.calls)
	sim := float64(a.callNS) - calls*tc.inside
	self := float64(a.self) - calls*(tc.wrap-tc.inside)
	reads := after.In + after.BlockIn - before.In - before.BlockIn
	writes := after.Out + after.BlockOut - before.Out - before.BlockOut
	return []metric{
		{"drivers." + dev + ".us_per_req", "us", per(float64(a.dur)) / 1e3},
		{"drivers." + dev + ".self_us_per_req", "us", per(self) / 1e3},
		{"sim." + dev + ".us_per_req", "us", per(sim) / 1e3},
		{"sim." + dev + ".calls_per_req", "count", per(calls)},
		{"bus." + dev + ".reads_per_req", "count", per(float64(reads))},
		{"bus." + dev + ".writes_per_req", "count", per(float64(writes))},
	}
}
