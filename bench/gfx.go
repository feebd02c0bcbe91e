package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bus"
	pmdrv "repro/internal/drivers/permedia2"
	simpm "repro/internal/sim/permedia2"
)

// gfx-fill: the Devil Permedia2 driver at 8 bpp on a 1024×768 simulated
// chip. One request is 64 FillRects of 2–16 px on a side followed by
// WaitIdle. It is MMIO-write dominated (Out32 through the stubs, FIFO
// back-pressure reads) with little pixel work: the write-side counterpart
// of disk-pio for the same stub and bus layers.
//
// Rectangle sizes follow a fixed schedule and the seed draws positions and
// colours. The engine's drain time after the last fill sets how often
// WaitIdle polls, so a seeded size order would make the port-operation
// count depend on the seed.

const (
	gfxRects  = 64
	gfxCycle  = 64
	gfxWidth  = 1024
	gfxHeight = 768
	pmBase    = 0xf000_0000
)

type rect struct {
	x, y, w, h int
	color      uint32
}

// pixel is one oracle probe: the colour expected at (x, y).
type pixel struct {
	x, y int
	want uint32
}

type gfx struct {
	rng   *rand.Rand
	sum   digest
	clock *bus.Clock
	space *bus.Space
	chip  *simpm.Sim
	drv   *pmdrv.Devil

	reqs   [gfxCycle][gfxRects]rect
	probes [gfxCycle][4 * gfxRects]pixel
	ops    uint64
	now    uint64

	tr   *tracer
	base bus.Stats // space counters when the traced phase starts
}

// gfxSize is the fixed size schedule: every side length 2..16 appears.
func gfxSize(k int) (w, h int) { return 2 + k%15, 2 + (k*7)%15 }

func newGfx(e env, tr *tracer) (rig, error) {
	g := &gfx{rng: newRand(e.seed, "gfx-fill"), tr: tr}
	g.clock = &bus.Clock{}
	g.space = bus.NewSpace("mmio", g.clock, bus.DefaultMemCosts())
	g.chip = simpm.New(g.clock, gfxWidth, gfxHeight)
	g.space.MustMapNamed("permedia2", pmBase, 0x100, timed(g.chip, tr))
	g.drv = pmdrv.NewDevil(pmdrv.Ports{Space: g.space, Base: pmBase})
	if err := g.drv.Init(8); err != nil {
		return nil, err
	}
	g.base = g.space.Stats()
	g.ops, g.now = g.base.Ops(), g.clock.Now()
	return g, nil
}

func (g *gfx) size() int { return gfxCycle }

func (g *gfx) next() {
	for r := range g.reqs {
		rs := &g.reqs[r]
		for k := range rs {
			w, h := gfxSize(k)
			rs[k] = rect{x: g.rng.IntN(gfxWidth - w + 1), y: g.rng.IntN(gfxHeight - h + 1), w: w, h: h,
				color: uint32(g.rng.IntN(256))}
			g.sum.add(uint64(rs[k].x)<<24 | uint64(rs[k].y)<<8 | uint64(rs[k].color))
		}
		// Each corner must hold the colour of the last rectangle covering it.
		for k, q := range rs {
			for c, pt := range [4][2]int{{q.x, q.y}, {q.x + q.w - 1, q.y}, {q.x, q.y + q.h - 1}, {q.x + q.w - 1, q.y + q.h - 1}} {
				want := q.color
				for _, later := range rs[k+1:] {
					if pt[0] >= later.x && pt[0] < later.x+later.w && pt[1] >= later.y && pt[1] < later.y+later.h {
						want = later.color
					}
				}
				g.probes[r][4*k+c] = pixel{pt[0], pt[1], want}
			}
		}
	}
}

func (g *gfx) do(i int) error {
	sp := g.tr.begin("drivers.permedia2")
	for _, q := range &g.reqs[i] {
		g.drv.FillRect(q.x, q.y, q.w, q.h, q.color)
	}
	g.drv.WaitIdle()
	g.tr.end(sp)
	return nil
}

func (g *gfx) check(i int) (model, error) {
	ops, now := g.space.Stats().Ops(), g.clock.Now()
	m := model{ops: ops - g.ops, virtNS: now - g.now}
	g.ops, g.now = ops, now
	for _, q := range &g.reqs[i] {
		m.payload += uint64(q.w * q.h) // one byte per pixel at 8 bpp
	}
	for _, p := range &g.probes[i] {
		if got := g.chip.Pixel(p.x, p.y); got != p.want {
			return m, fmt.Errorf("gfx-fill: pixel (%d,%d) = %#x, want %#x", p.x, p.y, got, p.want)
		}
	}
	return m, nil
}

func (g *gfx) verify() int { return 0 }

func (g *gfx) digest() uint64 { return uint64(g.sum) }

func (g *gfx) layers(n int, spans map[string]*spanAgg) []metric {
	return deviceLayers("permedia2", n, spans["drivers.permedia2"], g.tr.cost, g.base, g.space.Stats())
}
