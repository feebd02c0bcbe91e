// Package sound contains the two sound-playback drivers of the sound-DMA
// pipeline: a hand-crafted driver programmed with raw port I/O and magic
// constants, and a Devil-based driver built exclusively on the stubs
// generated from the cs4236, dma8237, and pic8259 specifications.
//
// This is the repository's first multi-chip workload: one driver must
// coordinate three devices — the CS4236B codec (sample format, rate, and
// playback enable through the indexed register file), the 8237A DMA
// controller (an auto-init channel streaming the sample ring into the
// codec FIFO), and the 8259A interrupt controller (the terminal-count line
// the ISR acknowledges). A playback run arms the ring, enables the DAC,
// and then services one interrupt per ring revolution: acknowledge the
// vector, check the DMA status and the codec's playback-interrupt flag,
// refill the ring with the next slice of the clip, clear the flag, and
// send the end-of-interrupt command.
//
// Both drivers implement the same Driver interface and are functionally
// interchangeable; the experiments (Table 5) measure their I/O-operation
// counts and virtual-time throughput across buffer sizes and sample rates.
// The playback protocol lives once, in this file's engine; hand.go and
// devil.go hold only the register layer the comparison is about (see
// chips).
package sound

import (
	"bytes"
	"fmt"

	"repro/internal/bus"
	simcs "repro/internal/sim/cs4236"
	simdma "repro/internal/sim/dma8237"
	simpic "repro/internal/sim/pic8259"
	"repro/internal/snap"
)

// IRQLatencyNS is the simulated cost of taking one interrupt (context
// switch + dispatch), charged when a driver consumes a pending IRQ.
const IRQLatencyNS = 11200

// pumpBurst bounds one hardware-runs step: the codec consumes at most this
// many sample frames before the driver loop rechecks its interrupt line.
const pumpBurst = 8192

// Conventional wiring for the pipeline (the Rig uses these; drivers take
// whatever their Ports carry).
const (
	WSSBase  = 0x534  // WSS codec window (index + data ports)
	DMABase  = 0x000  // 8237 channel/control ports
	PICBase  = 0x020  // 8259 command/data ports
	RingAddr = 0x4000 // physical address of the DMA sample ring
	IRQLine  = 5      // the 8259 input the DMA terminal count drives
	VecBase  = 4      // ICW2 vector-base field: vectors 0x20..0x27
)

// Config selects one Table 5 configuration.
type Config struct {
	Rate      int  // sample rate in Hz (8000, 11025, 16000, 22050, 32000, 44100, 48000)
	Stereo    bool // two channels per frame
	Bits16    bool // 16-bit PCM samples instead of 8-bit
	RingBytes int  // DMA ring size in bytes (one terminal count per revolution)
}

// FrameBytes returns the size of one sample frame.
func (c Config) FrameBytes() int {
	n := 1
	if c.Bits16 {
		n = 2
	}
	if c.Stereo {
		n *= 2
	}
	return n
}

// String renders the configuration like the Table 5 rows.
func (c Config) String() string {
	ch := "mono"
	if c.Stereo {
		ch = "stereo"
	}
	bits := 8
	if c.Bits16 {
		bits = 16
	}
	return fmt.Sprintf("%dHz %d-bit %s, %dB ring", c.Rate, bits, ch, c.RingBytes)
}

// Driver is the common surface of the two implementations. Play is the
// whole workload; Start, ServeRev, and Finish are the same workload cut at
// its natural suspension points — between terminal-count interrupts — so a
// host can checkpoint mid-stream (see internal/farm) and a restored driver
// resumes with the next revolution. Play is exactly Start + revs×ServeRev
// + Finish and produces an identical bus trace.
type Driver interface {
	Name() string
	// Init programs the interrupt controller and the codec sample format.
	Init() error
	// Play streams the clip through the DMA ring until it has been fully
	// consumed by the DAC, servicing one terminal-count interrupt per ring
	// revolution. The clip is padded with silence to a whole revolution.
	Play(clip []byte) error
	// Start arms the pipeline for a prepared buffer (a whole number of
	// ring revolutions, see Config.Pad): first revolution copied into the
	// ring, DMA channel armed, DAC enabled.
	Start(buf []byte) error
	// ServeRev waits for and services the terminal-count interrupt of
	// revolution rev of revs: ring refill with the next slice of buf, or
	// channel mask-off after the final revolution.
	ServeRev(buf []byte, rev, revs int) error
	// Finish drains the FIFO tail through the DAC and disables playback.
	Finish() error
	// Drivers snapshot alongside the chips they program: the Devil variant
	// serializes its three stubs' driver state, the hand variant has none.
	snap.Snapshotter
}

// Ports groups the bus wiring shared by both drivers.
type Ports struct {
	Space *bus.Space
	Clock *bus.Clock
	Mem   *bus.RAM     // simulated main memory holding the DMA ring
	IRQ   *bus.IRQLine // the PIC INT line to the CPU

	// Ack models the CPU's interrupt-acknowledge cycle on the PIC (a
	// processor bus cycle, not port I/O — identical for both variants).
	Ack func() (vector uint8, ok bool)
	// Pump lets the hardware run while the CPU idles: the codec consumes
	// up to the given number of sample frames, pulling the DMA channel as
	// needed, and stops at a pending interrupt.
	Pump func(maxFrames int) int

	WSSBase  uint32 // codec window base (index port at +0, data at +1)
	DMABase  uint32 // 8237 port block base
	PICBase  uint32 // 8259 port pair base
	RingAddr uint32 // physical address of the sample ring in Mem
	IRQLine  int    // the 8259 input wired to the DMA terminal count
	VecBase  uint8  // ICW2 vector-base field the driver programs
}

// vector returns the interrupt vector the PIC delivers for the pipeline's
// line once initialized.
func (p *Ports) vector() uint8 { return p.VecBase<<3 | uint8(p.IRQLine&7) }

// span pushes a driver phase onto the host's attribution stack (the one
// anchored on the port space's clock) and returns the pop. Near-free when
// the host is unobserved, and private to this host when it is.
func (p *Ports) span(name string) func() { return p.Space.Spans().Span(name) }

// withSpan runs fn under a phase span.
func (p *Ports) withSpan(name string, fn func()) { p.Space.Spans().With(name, fn) }

// waitIRQ runs the hardware until the next interrupt arrives, then charges
// the interrupt latency. The pipeline streams synchronously: a pump step
// that makes no progress with no interrupt pending is a stall (FIFO
// underrun or protocol bug), not a timing race.
func (p *Ports) waitIRQ() error {
	// "play.wait" attributes everything the hardware does while the CPU
	// idles — sample-clock advances, DMA terminal count, the IRQ raise —
	// plus the interrupt-latency charge, identically for both drivers.
	defer p.span("play.wait")()
	for !p.IRQ.Consume() {
		if p.Pump == nil {
			return fmt.Errorf("sound: playback stalled waiting for terminal count")
		}
		// A zero-frame pump step is still progress when the pull itself hit
		// terminal count (a ring no deeper than the FIFO interrupts before
		// the first frame drains); only a quiet line on top of it stalls.
		if p.Pump(pumpBurst) == 0 && !p.IRQ.Pending() {
			return fmt.Errorf("sound: playback stalled waiting for terminal count")
		}
	}
	p.Clock.Advance(IRQLatencyNS)
	return nil
}

// Pad returns clip padded with silence to a whole number of ring
// revolutions, plus the revolution count. An empty clip pads to nothing.
func (c Config) Pad(clip []byte) ([]byte, int) {
	if len(clip) == 0 || c.RingBytes <= 0 {
		return nil, 0
	}
	revs := (len(clip) + c.RingBytes - 1) / c.RingBytes
	buf := make([]byte, revs*c.RingBytes)
	copy(buf, clip)
	return buf, revs
}

// checkRing validates the configuration against the wiring.
func checkRing(cfg Config, p *Ports) error {
	fb := cfg.FrameBytes()
	if cfg.RingBytes < fb || cfg.RingBytes%fb != 0 {
		return fmt.Errorf("sound: ring size %d not a positive multiple of the %d-byte frame", cfg.RingBytes, fb)
	}
	if cfg.RingBytes > 1<<16 {
		return fmt.Errorf("sound: ring size %d exceeds the 8237's 16-bit reach", cfg.RingBytes)
	}
	if int(p.RingAddr)+cfg.RingBytes > p.Mem.Len() {
		return fmt.Errorf("sound: ring [%#x,%#x) outside simulated memory", p.RingAddr, int(p.RingAddr)+cfg.RingBytes)
	}
	return nil
}

// checkBuf validates a prepared buffer for Start and ServeRev.
func checkBuf(cfg Config, p *Ports, buf []byte) error {
	if err := checkRing(cfg, p); err != nil {
		return err
	}
	if len(buf) == 0 || len(buf)%cfg.RingBytes != 0 {
		return fmt.Errorf("sound: buffer of %d bytes is not a whole number of %d-byte revolutions", len(buf), cfg.RingBytes)
	}
	return nil
}

// chips is a variant's register layer: how it programs the codec, the
// DMA channel and the interrupt controller — the only part of a driver
// the paper's comparison is about. The engine runs the playback over it.
type chips interface {
	// arm programs the DMA channel over the sample ring.
	arm()
	// isr services the terminal-count interrupt of revolution rev of revs
	// once the engine has acknowledged its vector.
	isr(buf []byte, rev, revs int) error
	// dac enables or disables codec playback.
	dac(on bool)
}

// engine is the playback protocol, written once for both variants. Each
// variant embeds it, so Start, ServeRev, Finish and Play are the engine's.
type engine struct {
	p   Ports
	cfg Config
	c   chips
}

// load copies revolution rev of buf into the sample ring.
func (e *engine) load(buf []byte, rev int) {
	ring := e.cfg.RingBytes
	e.p.Mem.Store(int(e.p.RingAddr), buf[rev*ring:(rev+1)*ring])
}

// Start implements Driver: first revolution into the ring, channel armed,
// DAC enabled.
func (e *engine) Start(buf []byte) error {
	if err := checkBuf(e.cfg, &e.p, buf); err != nil {
		return err
	}
	e.load(buf, 0)
	e.c.arm()
	e.p.withSpan("play.start", func() { e.c.dac(true) })
	return nil
}

// ServeRev implements Driver: one terminal-count interrupt taken,
// acknowledged and serviced.
func (e *engine) ServeRev(buf []byte, rev, revs int) error {
	if err := e.p.waitIRQ(); err != nil {
		return err
	}
	defer e.p.span("play.isr")()
	if vec, ok := e.p.Ack(); !ok || vec != e.p.vector() {
		return fmt.Errorf("sound: spurious interrupt vector %#x", vec)
	}
	return e.c.isr(buf, rev, revs)
}

// Finish implements Driver: FIFO tail drained through the DAC, DAC off.
func (e *engine) Finish() error {
	e.p.withSpan("play.stop", func() {
		for e.p.Pump(pumpBurst) > 0 {
		}
		e.c.dac(false)
	})
	return nil
}

// Play implements Driver: the configuration checked, the clip padded to
// whole ring revolutions, then Start, one ServeRev per revolution, and
// Finish.
func (e *engine) Play(clip []byte) error {
	if err := checkRing(e.cfg, &e.p); err != nil {
		return err
	}
	buf, revs := e.cfg.Pad(clip)
	if revs == 0 {
		return nil
	}
	if err := e.Start(buf); err != nil {
		return err
	}
	for rev := 1; rev <= revs; rev++ {
		if err := e.ServeRev(buf, rev, revs); err != nil {
			return err
		}
	}
	return e.Finish()
}

// rateCode maps a sample rate to the I8 divider encoding; the same table
// backs the generated RateVal symbols and the hand driver's magic nibbles.
func rateCode(hz int) (uint8, error) {
	codes := map[int]uint8{
		8000: 0x0, 16000: 0x2, 11025: 0x3, 32000: 0x6,
		22050: 0x7, 44100: 0xb, 48000: 0xc,
	}
	c, ok := codes[hz]
	if !ok {
		return 0, fmt.Errorf("sound: unsupported sample rate %d Hz", hz)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Rig: the three-chip machine

// Rig wires the complete pipeline around one port space and virtual clock:
// the codec pulls the DMA channel (DREQ), the channel deposits ring bytes
// into the codec FIFO and pulses terminal count into the PIC and the
// codec's playback-interrupt flag, and the PIC's INT output latches the
// CPU interrupt line the drivers consume. The three chips and the line
// emit their events through the clock, so Space.SetObserver observes the
// whole machine.
type Rig struct {
	Clock *bus.Clock
	Space *bus.Space
	Mem   *bus.RAM
	Codec *simcs.Sim
	DMA   *simdma.Sim
	PIC   *simpic.Sim
	IRQ   *bus.IRQLine
}

// NewRig builds the pipeline at the conventional addresses.
func NewRig() *Rig {
	clk := &bus.Clock{}
	space := bus.NewSpace("io", clk, bus.DefaultPortCosts())
	mem := bus.NewRAM(1 << 16)
	codec := simcs.New()
	dma := simdma.New()
	pic := simpic.New()
	irq := &bus.IRQLine{Name: "irq5", Clock: clk} // named for its PIC input, IRQLine

	codec.Clock = clk
	dma.Clock = clk
	pic.Clock = clk
	codec.DREQ = dma.Transfer
	codec.Halt = irq.Pending
	dma.Mem = mem
	dma.Sink = codec.FIFOPush
	dma.OnTC = func() { codec.RaisePI(); pic.Raise(IRQLine) }
	pic.INT = irq.Raise

	space.MustMapNamed("cs4236", WSSBase, 2, codec)
	space.MustMapNamed("dma8237", DMABase, 13, dma)
	space.MustMapNamed("pic8259", PICBase, 2, pic)
	return &Rig{Clock: clk, Space: space, Mem: mem, Codec: codec, DMA: dma, PIC: pic, IRQ: irq}
}

// Ports returns the driver-facing wiring of the rig.
func (r *Rig) Ports() Ports {
	return Ports{
		Space: r.Space, Clock: r.Clock, Mem: r.Mem, IRQ: r.IRQ,
		Ack: r.PIC.Ack, Pump: r.Codec.Pump,
		WSSBase: WSSBase, DMABase: DMABase, PICBase: PICBase,
		RingAddr: RingAddr, IRQLine: IRQLine, VecBase: VecBase,
	}
}

// Clip returns the n-byte clip the sound workloads play. The pattern
// repeats only every 4 KiB, so a ring slice refilled from the wrong offset
// shows up in the played bytes.
func Clip(n int) []byte {
	clip := make([]byte, n)
	for i := range clip {
		clip[i] = byte(i>>4) ^ byte(i*11)
	}
	return clip
}

// CheckPlayback verifies that the DAC consumed exactly clip and never
// underran: a pipeline that is fast but wrong does not count as a run.
func (r *Rig) CheckPlayback(clip []byte) error {
	if played := r.Codec.Played(); !bytes.Equal(played, clip) {
		return fmt.Errorf("sound: DAC consumed wrong data (%d of %d bytes)", len(played), len(clip))
	}
	if r.Codec.Underrun() {
		return fmt.Errorf("sound: DAC underran")
	}
	return nil
}
