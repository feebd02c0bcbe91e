// Package farm runs fleets of simulated hosts concurrently.
//
// A Host is one self-contained machine: its own virtual clock, port and
// memory spaces, IRQ lines, device models, and driver. Nothing in a host
// points at process-global mutable state — the host's one observer and
// its span attribution live on its clock, statistics live on its Space,
// and fault counters live on its RAM — so thousands of hosts can run on a
// goroutine pool without synchronizing with each other, and an observer
// attached to one host costs every other host nothing. A host is a
// single-owner machine in the sense of the bus package doc: its parts
// take no locks, and RunFleet hands each host to exactly one worker.
//
// A host's machine is the rig its driver package wires (NewRig in
// internal/drivers/ide, permedia2 and sound), the same machine the
// experiments measure; the farm adds the workload steps and the order in
// which the machine's parts are snapshotted.
//
// A host's workload is a list of steps with a cursor, and the cursor's
// step boundaries are checkpoint points: Snapshot serializes the whole
// machine (clock, operation counters, memory, interrupt lines, device
// simulators, and driver state, each as one self-delimiting part blob, see
// package snap), and RestoreHost rebuilds the wiring from the embedded
// WorkloadSpec and restores every part, so a host suspended mid-workload —
// including mid-DMA, between two terminal-count interrupts of the sound
// ring — resumes in a fresh process and produces the bit-identical
// remainder of its event stream and Result.
//
// RunFleet executes a fleet over a fixed worker pool with a static
// round-robin assignment (host i runs on worker i%W). Because every host
// is deterministic in virtual time, the per-host Results are identical
// whatever the worker count; only the division of wall-clock work
// changes. Aggregate fleet throughput is therefore defined on virtual
// time: the fleet makespan is the largest per-worker sum of host virtual
// times — the simulated time at which the slowest worker's queue drains —
// and ops/s and MB/s divide fleet totals by it. Wall time is reported
// alongside as an informational figure only (it depends on the physical
// core count, which the simulation does not model).
package farm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bus"
	idedrv "repro/internal/drivers/ide"
	pmdrv "repro/internal/drivers/permedia2"
	snddrv "repro/internal/drivers/sound"
	"repro/internal/obs"
	simide "repro/internal/sim/ide"
	"repro/internal/snap"
)

// Variant selects which driver implementation a host runs.
type Variant int

// The two driver families every workload ships.
const (
	Hand  Variant = iota // hand-crafted driver, raw port I/O
	Devil                // driver built on the generated Devil stubs
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Devil {
		return "devil"
	}
	return "hand"
}

// WorkloadKind selects which machine a host simulates.
type WorkloadKind int

// The three workload families.
const (
	IDE   WorkloadKind = iota // DMA sector reads from a disk model
	Gfx                       // Permedia2 rectangle fills
	Sound                     // codec+DMA+PIC ring playback
)

// String implements fmt.Stringer.
func (k WorkloadKind) String() string {
	switch k {
	case IDE:
		return "ide"
	case Gfx:
		return "gfx"
	case Sound:
		return "snd"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// WorkloadSpec describes one host's machine and workload. Only the fields
// of the selected Kind matter; the rest are ignored. The spec travels in
// every snapshot (it is what RestoreHost rebuilds the wiring from), except
// for Observer, which is runtime wiring — attach one to a restored host
// with Observe.
type WorkloadSpec struct {
	Kind    WorkloadKind
	Variant Variant

	// IDE: the number of sequential sectors one run DMA-reads.
	Sectors int

	// Gfx: Rects size×size rectangle fills at 8 bpp.
	Size  int
	Rects int

	// Sound: a clip of Revs ring revolutions through the given format.
	Sound snddrv.Config
	Revs  int

	// Observer, when non-nil, is attached to the host at construction.
	Observer obs.Observer
}

// step is one resumable unit of a host's workload. run returns the payload
// bytes the step moved.
type step struct {
	name string
	run  func() (uint64, error)
}

// Host is one self-contained simulated machine, ready to run its
// workload. Construct hosts with New (or restore one with RestoreHost);
// the value owns every piece of mutable state it touches, so distinct
// hosts may run concurrently without any synchronization.
type Host struct {
	Name  string
	Clock *bus.Clock
	Space *bus.Space

	spec  WorkloadSpec
	steps []step
	// parts are the host's stateful components in canonical snapshot
	// order; wiring between them is rebuilt by New, never serialized.
	parts []snap.Snapshotter

	pos    int    // index of the next step to run
	moved  uint64 // payload bytes accumulated since step 0
	start  uint64 // clock reading when step 0 ran
	failed error  // first step error, latched until the next fresh run
}

// New builds a host for the given workload description.
func New(name string, spec WorkloadSpec) *Host {
	h := &Host{Name: name, spec: spec}
	switch spec.Kind {
	case IDE:
		h.buildIDE()
	case Gfx:
		h.buildGfx()
	case Sound:
		h.buildSound()
	default:
		h.Clock = &bus.Clock{}
		h.Space = bus.NewSpace("io", h.Clock, bus.DefaultPortCosts())
		h.steps = []step{{name: "invalid", run: func() (uint64, error) {
			return 0, fmt.Errorf("farm: unknown workload kind %d", int(spec.Kind))
		}}}
	}
	if spec.Observer != nil {
		h.Observe(spec.Observer)
	}
	return h
}

// buildIDE wires a host that DMA-reads Sectors sequential sectors from its
// own disk model.
func (h *Host) buildIDE() {
	sectors := h.spec.Sectors
	rig := idedrv.NewRig(sectors+64, sectors+4)
	cfg := idedrv.Config{Mode: idedrv.DMA}
	var drv idedrv.Driver
	if h.spec.Variant == Devil {
		drv = idedrv.NewDevil(rig.Ports(), cfg)
	} else {
		drv = idedrv.NewHand(rig.Ports(), cfg)
	}
	h.Clock, h.Space = rig.Clock, rig.Space
	h.parts = []snap.Snapshotter{rig.Clock, rig.Space, rig.Mem, rig.IRQ, rig.Disk, drv}
	h.steps = []step{
		{name: "init", run: func() (uint64, error) { return 0, drv.Init() }},
		{name: "read", run: func() (uint64, error) {
			buf := make([]byte, sectors*simide.SectorSize)
			if err := drv.ReadSectors(0, buf); err != nil {
				return 0, err
			}
			return uint64(len(buf)), nil
		}},
	}
}

// buildGfx wires a host that fills Rects Size×Size rectangles on its own
// Permedia2 model at 8 bpp and drains the engine FIFO.
func (h *Host) buildGfx() {
	size, n := h.spec.Size, h.spec.Rects
	rig := pmdrv.NewRig()
	var drv pmdrv.Driver
	if h.spec.Variant == Devil {
		drv = pmdrv.NewDevil(rig.Ports())
	} else {
		drv = pmdrv.NewHand(rig.Ports())
	}
	h.Clock, h.Space = rig.Clock, rig.Space
	h.parts = []snap.Snapshotter{rig.Clock, rig.Space, rig.Chip, drv}
	h.steps = []step{
		{name: "init", run: func() (uint64, error) { return 0, drv.Init(8) }},
		{name: "draw", run: func() (uint64, error) {
			for i := 0; i < n; i++ {
				drv.FillRect(0, 0, size, size, uint32(i))
			}
			// Drain: the measurement covers drawn primitives, not issued ones.
			drv.WaitIdle()
			return uint64(n * size * size), nil
		}},
	}
}

// buildSound wires a host that streams the sound test clip, Revs ring
// revolutions long, through its own codec+DMA+PIC rig, one step per
// revolution — the suspension granularity Snapshot checkpoints at — and
// checks the playback.
func (h *Host) buildSound() {
	cfg := h.spec.Sound
	rig := snddrv.NewRig()
	var drv snddrv.Driver
	if h.spec.Variant == Devil {
		drv = snddrv.NewDevil(rig.Ports(), cfg)
	} else {
		drv = snddrv.NewHand(rig.Ports(), cfg)
	}
	clip := snddrv.Clip(cfg.RingBytes * h.spec.Revs)
	buf, revs := cfg.Pad(clip)
	h.Clock, h.Space = rig.Clock, rig.Space
	h.parts = []snap.Snapshotter{rig.Clock, rig.Space, rig.Mem, rig.IRQ, rig.Codec, rig.DMA, rig.PIC, drv}
	h.steps = []step{{name: "init", run: func() (uint64, error) {
		// A fresh run replays the clip from silence; ResetPlayback touches
		// no bus state, so the trace is unchanged.
		rig.Codec.ResetPlayback()
		return 0, drv.Init()
	}}}
	if revs == 0 {
		return
	}
	h.steps = append(h.steps, step{name: "start", run: func() (uint64, error) {
		return 0, drv.Start(buf)
	}})
	for rev := 1; rev <= revs; rev++ {
		h.steps = append(h.steps, step{
			name: fmt.Sprintf("rev%d", rev),
			run: func() (uint64, error) {
				if err := drv.ServeRev(buf, rev, revs); err != nil {
					return 0, err
				}
				return uint64(cfg.RingBytes), nil
			},
		})
	}
	h.steps = append(h.steps, step{name: "finish", run: func() (uint64, error) {
		if err := drv.Finish(); err != nil {
			return 0, err
		}
		return 0, rig.CheckPlayback(clip)
	}})
}

// Observe attaches o to the whole host: its spaces, clock, IRQ lines and
// device engines all emit through the host clock, and span attribution is
// enabled for this host only. Pass nil to detach.
func (h *Host) Observe(o obs.Observer) { h.Space.SetObserver(o) }

// Spec returns the workload description the host was built from.
func (h *Host) Spec() WorkloadSpec { return h.spec }

// Steps returns the number of workload steps.
func (h *Host) Steps() int { return len(h.steps) }

// Pos returns the index of the next step to run: 0 before a fresh run,
// Steps() after a complete one.
func (h *Host) Pos() int { return h.pos }

// StepName returns the name of step i.
func (h *Host) StepName(i int) string { return h.steps[i].name }

// Result is the outcome of one host's workload.
type Result struct {
	Name   string
	Ops    uint64    // port/MMIO operations issued by the driver
	Bytes  uint64    // payload bytes moved (sectors read, pixels drawn, samples played)
	VirtNS uint64    // virtual nanoseconds the workload took on the host's clock
	Stats  bus.Stats // full per-host operation counters
	Err    error
}

// StepOnce runs the next workload step and reports whether the workload
// is now complete. Statistics reset when step 0 runs, so a completed (or
// failed) host re-runs its workload cleanly on the next call; a restored
// host continues accumulating from its snapshot. A step error latches
// into the host's Result and stops progress until the next fresh run.
func (h *Host) StepOnce() (done bool, err error) {
	if h.pos >= len(h.steps) || h.failed != nil {
		h.pos, h.failed = 0, nil
	}
	if h.pos == 0 {
		h.Space.ResetStats()
		h.moved = 0
		h.start = h.Clock.Now()
	}
	n, err := h.steps[h.pos].run()
	if err != nil {
		h.failed = err
		return false, err
	}
	h.moved += n
	h.pos++
	return h.pos >= len(h.steps), nil
}

// Run executes the host's workload and returns its Result: all of it for
// a fresh (or completed) host, the remaining steps for one restored
// mid-workload. The Result always covers the whole workload — statistics
// and virtual time count from step 0, whether it ran here or before the
// snapshot.
func (h *Host) Run() Result {
	var err error
	for {
		done, e := h.StepOnce()
		if e != nil {
			err = e
			break
		}
		if done {
			break
		}
	}
	r := Result{
		Name:   h.Name,
		VirtNS: h.Clock.Now() - h.start,
		Stats:  h.Space.Stats(),
		Err:    err,
	}
	if err == nil {
		r.Bytes = h.moved
	}
	r.Ops = r.Stats.Ops()
	return r
}

// ---------------------------------------------------------------------------
// Snapshot / restore

// specCap bounds the workload sizes a snapshot may declare, far above any
// real fleet configuration: a corrupted blob must not translate into an
// arbitrary allocation.
const specCap = 1 << 16

// hostMeta is the "host-meta" part of a host snapshot: the name, the
// workload spec (its observer is wiring), the step cursor, and the byte
// and time accounting.
type hostMeta struct {
	name         string
	spec         WorkloadSpec
	pos          int
	moved, start uint64
}

func (m *hostMeta) snapState(c *snap.Codec) {
	c.String(&m.name)
	snap.Byte(c, &m.spec.Kind)
	snap.Byte(c, &m.spec.Variant)
	c.Int(&m.spec.Sectors)
	c.Int(&m.spec.Size)
	c.Int(&m.spec.Rects)
	c.Int(&m.spec.Sound.Rate)
	c.Bool(&m.spec.Sound.Stereo)
	c.Bool(&m.spec.Sound.Bits16)
	c.Int(&m.spec.Sound.RingBytes)
	c.Int(&m.spec.Revs)
	c.Int(&m.pos)
	c.U64(&m.moved)
	c.U64(&m.start)
}

// validate checks a spec decoded from a snapshot: a known kind and
// variant, and workload sizes under specCap.
func (s WorkloadSpec) validate() error {
	if s.Kind < IDE || s.Kind > Sound {
		return fmt.Errorf("farm: snapshot names unknown workload kind %d", int(s.Kind))
	}
	if s.Variant != Hand && s.Variant != Devil {
		return fmt.Errorf("farm: snapshot names unknown variant %d", int(s.Variant))
	}
	for _, v := range []int{s.Sectors, s.Size, s.Rects, s.Sound.RingBytes, s.Revs} {
		if v > specCap {
			return fmt.Errorf("farm: snapshot workload size %d exceeds the %d cap (corrupt blob)", v, specCap)
		}
	}
	return nil
}

// Snapshot serializes the whole host: a "host" container blob holding a
// "host-meta" part followed by one part blob per stateful component, in
// the canonical order New wires them. Snapshot at a step boundary; state
// internal to a running step is not captured.
func (h *Host) Snapshot() ([]byte, error) {
	if h.failed != nil {
		return nil, fmt.Errorf("farm: host %s failed (%v); snapshot would not resume", h.Name, h.failed)
	}
	dst, patch := snap.AppendHeader(nil, "host")
	m := hostMeta{h.Name, h.spec, h.pos, h.moved, h.start}
	c := snap.NewEncoder(dst, "host-meta")
	m.snapState(&c)
	dst, err := c.Finish()
	if err != nil {
		return nil, err
	}
	for _, p := range h.parts {
		if dst, err = p.MarshalState(dst); err != nil {
			return nil, err
		}
	}
	return snap.FinishHeader(dst, patch), nil
}

// RestoreHost rebuilds a host from a Snapshot blob: the wiring is
// reconstructed by New from the embedded WorkloadSpec, then every part
// restores its serialized state and the step cursor is reinstated, so Run
// continues exactly where the snapshot was taken. Observers do not travel
// in snapshots; attach one with Observe before resuming.
func RestoreHost(data []byte) (*Host, error) {
	hd, payload, _, err := snap.ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if hd.Name != "host" {
		return nil, fmt.Errorf("farm: blob is %q, want %q", hd.Name, "host")
	}
	meta, rest, err := snap.Part(payload)
	if err != nil {
		return nil, err
	}
	c, err := snap.NewDecoder(meta, "host-meta")
	if err != nil {
		return nil, err
	}
	var m hostMeta
	m.snapState(&c)
	if err := c.Close(); err != nil {
		return nil, err
	}
	if err := m.spec.validate(); err != nil {
		return nil, err
	}
	h := New(m.name, m.spec)
	if m.pos > len(h.steps) {
		return nil, fmt.Errorf("farm: snapshot cursor at step %d, workload has %d", m.pos, len(h.steps))
	}
	for _, p := range h.parts {
		blob, next, err := snap.Part(rest)
		if err != nil {
			return nil, err
		}
		if err := p.UnmarshalState(blob); err != nil {
			return nil, err
		}
		rest = next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("farm: %d trailing bytes after host parts (state shape mismatch)", len(rest))
	}
	h.pos, h.moved, h.start = m.pos, m.moved, m.start
	return h, nil
}

// DefaultFleet builds n hosts of the given variant cycling through the
// three workload families (IDE DMA read, Permedia2 fill, sound playback)
// with deliberately small per-host workloads. Cycling by host index keeps
// every round-robin worker assignment with W | n balanced, so fleet
// makespan scales as 1/W.
func DefaultFleet(n int, v Variant) []*Host {
	hosts := make([]*Host, n)
	for i := range hosts {
		switch i % 3 {
		case 0:
			hosts[i] = New(fmt.Sprintf("ide-%s-%d", v, i), WorkloadSpec{Kind: IDE, Variant: v, Sectors: 64})
		case 1:
			hosts[i] = New(fmt.Sprintf("gfx-%s-%d", v, i), WorkloadSpec{Kind: Gfx, Variant: v, Size: 64, Rects: 32})
		default:
			hosts[i] = New(fmt.Sprintf("snd-%s-%d", v, i), WorkloadSpec{
				Kind: Sound, Variant: v,
				Sound: snddrv.Config{Rate: 22050, RingBytes: 512}, Revs: 4,
			})
		}
	}
	return hosts
}

// FleetResult aggregates a RunFleet execution.
type FleetResult struct {
	Hosts      []Result // per-host outcomes, in fleet order
	Workers    int
	Ops, Bytes uint64 // fleet totals
	MakespanNS uint64 // max over workers of the sum of their hosts' VirtNS
	WallNS     int64  // informational: physical time the pool took
}

// OpsPerSec is the fleet's aggregate operation rate over the makespan.
func (f FleetResult) OpsPerSec() float64 {
	if f.MakespanNS == 0 {
		return 0
	}
	return float64(f.Ops) / (float64(f.MakespanNS) / 1e9)
}

// MBPerSec is the fleet's aggregate payload throughput over the makespan.
func (f FleetResult) MBPerSec() float64 {
	if f.MakespanNS == 0 {
		return 0
	}
	return float64(f.Bytes) / (float64(f.MakespanNS) / 1e9) / 1e6
}

// Err returns the first host error in fleet order, if any.
func (f FleetResult) Err() error {
	for _, r := range f.Hosts {
		if r.Err != nil {
			return fmt.Errorf("host %s: %w", r.Name, r.Err)
		}
	}
	return nil
}

// RunFleet executes every host on a pool of workers goroutines with the
// static assignment host i → worker i%workers, and aggregates the
// results. Each worker runs its hosts sequentially, so the fleet makespan
// is the largest per-worker virtual-time total.
func RunFleet(hosts []*Host, workers int) FleetResult {
	if workers < 1 {
		workers = 1
	}
	results := make([]Result, len(hosts))
	wallStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hosts); i += workers {
				results[i] = hosts[i].Run()
			}
		}(w)
	}
	wg.Wait()
	f := FleetResult{Hosts: results, Workers: workers, WallNS: int64(time.Since(wallStart))}
	worker := make([]uint64, workers)
	for i, r := range results {
		f.Ops += r.Ops
		f.Bytes += r.Bytes
		worker[i%workers] += r.VirtNS
	}
	for _, ns := range worker {
		if ns > f.MakespanNS {
			f.MakespanNS = ns
		}
	}
	return f
}
