// Package cs4236 simulates the Crystal CS4236B audio controller's indexed
// register file — the automata-based addressing example of the paper's
// §2.2 ("one of the most complex" chips the paper studied).
//
// The device occupies two 8-bit ports:
//
//	base+0  R0, the index/control register: the bottom five bits select
//	        which indexed register the data port addresses.
//	base+1  the data port: indexed register I(IA), or — after I23 was
//	        written with XRAE set — the extended register X(XA).
//
// The quirk the Devil specification captures with a parameterized register
// family and a private mode cell is the three-step extended-register
// automaton: writing I23 with the extended-register-access enable bit
// turns the data port into a window onto the extended register named by
// the XA field, and any write to the index register drops back to plain
// indexed addressing.
package cs4236

import (
	"repro/internal/bus"
	"repro/internal/obs"
)

// Port offsets relative to the device base.
const (
	PortIndex = 0 // R0: index/control
	PortData  = 1 // indexed or extended data
)

// I23 (extended register address) fields.
const (
	I23ACF      = 0x01 // ADC compare flag
	I23Reserved = 0x02 // must be written as zero
	I23XA4      = 0x04 // extended address bit 4
	I23XRAE     = 0x08 // extended register access enable
	I23XAMask   = 0xf0 // extended address bits 3..0
	ExtIndex    = 23   // the index holding the extended window
)

// Playback-relevant indexed registers and their fields (the registers the
// sound-DMA pipeline programs; see internal/specs/cs4236.dil).
const (
	RegPfmt  = 8  // I8: rate divider (3..0), stereo (4), format (6..5)
	RegIface = 9  // I9: PEN playback enable (0), SDC single-DMA (2)
	RegAFS   = 24 // I24: alternate feature status, PI playback interrupt (4)

	PfmtStereo = 0x10
	Pfmt16Bit  = 0x40 // format bit 6: 16-bit samples (PCM16/ADPCM encodings)
	IfacePEN   = 0x01
	AFSPI      = 0x10
	AFSCI      = 0x20 // capture interrupt (the planned capture path)
	AFSTI      = 0x40 // timer interrupt
	afsFlags   = AFSPI | AFSCI | AFSTI
)

// FIFODepth is the DAC FIFO size in bytes. The playback engine pulls from
// the DMA channel in FIFO-refill bursts, so the ring boundary (terminal
// count) can land mid-FIFO — the tail of a buffer keeps playing while the
// ISR refills memory behind it, as on hardware.
const FIFODepth = 16

// rateHz maps the 4-bit divider encoding of I8 (CSS clock-source select in
// bit 0, CFS divide select in bits 3..1) to the sample rate, after the
// CS4236B datasheet's frequency table. The two reserved encodings map to 0:
// no sample clock, so playback does not advance.
var rateHz = [16]uint64{
	8000, 5513, 16000, 11025, 27429, 18900, 32000, 22050,
	0, 37800, 0, 44100, 48000, 33075, 9600, 6615,
}

// Sim is a simulated CS4236B register file plus playback engine. It
// implements bus.Handler over a 2-port window. The zero value has index 0
// selected and extended addressing disabled.
//
// The playback wiring turns the register file into the consumer end of the
// sound-DMA pipeline: DREQ is the channel pull (the pipeline wires it to
// dma8237.Transfer, which deposits bytes through FIFOPush), Clock is the
// shared virtual clock each consumed sample frame advances, and Halt is
// the pump barrier (the pipeline stops streaming while an interrupt is
// pending so the driver's ISR runs before more data moves).
type Sim struct {
	control uint8 // last value written to R0; IA is the bottom five bits
	indexed [32]uint8
	ext     [32]uint8
	xa      uint8 // latched extended address
	xm      bool  // the mode cell: data port is an extended data window

	fifo     []byte
	played   []byte
	underrun bool

	// Wiring; set before traffic, never changed mid-experiment.
	Clock *bus.Clock      // shared virtual clock (sample timing, engine events)
	DREQ  func(n int) int // pull up to n bytes from the DMA channel
	Halt  func() bool     // pump barrier (e.g. an interrupt is pending)
}

// emit sends an engine event (PI raise, underrun) through the clock.
func (s *Sim) emit(kind obs.Kind, detail string) {
	s.Clock.Emit(obs.Event{Kind: kind, Source: "cs4236", Detail: detail})
}

// New returns a codec with all registers zeroed.
func New() *Sim { return &Sim{} }

// IA returns the selected index.
func (s *Sim) IA() uint8 { return s.control & 0x1f }

// Extended reports whether the data port currently addresses an extended
// register (the specification's xm mode cell).
func (s *Sim) Extended() bool { return s.xm }

// Indexed returns indexed register i without touching the automaton.
func (s *Sim) Indexed(i int) uint8 { return s.indexed[i&0x1f] }

// Ext returns extended register j without touching the automaton.
func (s *Sim) Ext(j int) uint8 { return s.ext[j&0x1f] }

// SetExt backdoor-sets extended register j, as codec-internal state
// updates (volume sliders, AFE results) would.
func (s *Sim) SetExt(j int, v uint8) { s.ext[j&0x1f] = v }

// BusRead implements bus.Handler.
func (s *Sim) BusRead(offset uint32, width int) uint32 {
	switch offset {
	case PortIndex:
		return uint32(s.control)
	case PortData:
		if s.xm {
			return uint32(s.ext[s.xa&0x1f])
		}
		return uint32(s.indexed[s.control&0x1f])
	}
	return 0xff
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(offset uint32, width int, v uint32) {
	b := uint8(v)
	switch offset {
	case PortIndex:
		// Any index write drops the extended-data mode: I23 is an address
		// register again.
		s.control = b
		s.xm = false
	case PortData:
		switch {
		case s.xm:
			s.ext[s.xa&0x1f] = b
		case s.control&0x1f == ExtIndex:
			// I23: latch the extended address, arm the window when XRAE
			// is set. The reserved bit reads back as zero.
			b &^= I23Reserved
			s.indexed[ExtIndex] = b
			s.xa = (b&I23XA4)<<2 | b>>4&0xf
			s.xm = b&I23XRAE != 0
		case s.control&0x1f == RegAFS:
			// I24: a host write acknowledges ALL pending interrupt flags
			// regardless of the value written (datasheet §alternate
			// feature status) — so a driver clearing PI cannot behave
			// differently about a concurrently pending CI/TI whether it
			// composes the write from a read-back or from zeros.
			s.indexed[RegAFS] = b &^ afsFlags
		default:
			s.indexed[s.control&0x1f] = b
		}
	}
}

// ---------------------------------------------------------------------------
// Playback engine

// FIFOPush deposits one sample byte into the DAC FIFO — the device end of
// the DMA channel (dma8237.Sim.Sink).
func (s *Sim) FIFOPush(b byte) { s.fifo = append(s.fifo, b) }

// FIFOLevel returns the number of bytes queued in the DAC FIFO.
func (s *Sim) FIFOLevel() int { return len(s.fifo) }

// RaisePI latches the playback-interrupt flag in the alternate feature
// status register I24 — the pipeline pulses it from the 8237's terminal
// count. The driver acknowledges by writing the bit back as zero.
func (s *Sim) RaisePI() {
	s.indexed[RegAFS] |= AFSPI
	s.emit(obs.KindIRQRaise, "PI")
}

// Played returns every sample byte the DAC has consumed since the last
// ResetPlayback, in order — the pipeline tests compare it against the clip
// the driver streamed.
func (s *Sim) Played() []byte { return append([]byte(nil), s.played...) }

// Underrun reports whether the DAC starved mid-frame: playback enabled, a
// partial sample frame in the FIFO, and the DMA channel unable to supply
// the rest. A FIFO drained to empty over a masked channel is the clean
// end-of-clip state, not an underrun.
func (s *Sim) Underrun() bool { return s.underrun }

// ResetPlayback clears the playback record, the FIFO, and the underrun
// latch (the registers keep their state).
func (s *Sim) ResetPlayback() {
	s.fifo = nil
	s.played = nil
	s.underrun = false
}

// frame decodes the programmed sample format: the virtual-clock
// nanoseconds per sample frame and the frame size in bytes.
func (s *Sim) frame() (periodNS uint64, frameBytes int) {
	pfmt := s.indexed[RegPfmt]
	hz := rateHz[pfmt&0x0f]
	if hz == 0 {
		return 0, 0
	}
	frameBytes = 1
	if pfmt&Pfmt16Bit != 0 {
		frameBytes = 2
	}
	if pfmt&PfmtStereo != 0 {
		frameBytes *= 2
	}
	return 1e9 / hz, frameBytes
}

// Pump streams up to maxFrames sample frames through the DAC on the shared
// virtual clock: whenever the FIFO holds less than one frame, the engine
// pulls a refill burst from the DMA channel; each consumed frame advances
// the clock by one sample period. Pumping stops early when playback is
// disabled, the Halt barrier fires (an interrupt is pending), the sample
// clock is not programmed, or the channel runs dry. It returns the number
// of frames consumed.
func (s *Sim) Pump(maxFrames int) int {
	frames := 0
	for frames < maxFrames {
		if s.Halt != nil && s.Halt() {
			break
		}
		if s.indexed[RegIface]&IfacePEN == 0 {
			break
		}
		periodNS, frameBytes := s.frame()
		if frameBytes == 0 {
			break
		}

		if level := len(s.fifo); level < frameBytes {
			// Refill the FIFO from the DMA channel (its sink re-enters
			// FIFOPush).
			if s.DREQ == nil || s.DREQ(FIFODepth-level) == 0 {
				if len(s.fifo) > 0 {
					s.underrun = true // a partial frame is stuck
					s.emit(obs.KindMark, "underrun")
				}
				break
			}
			continue // recheck the barrier: the pull may have hit TC
		}

		s.played = append(s.played, s.fifo[:frameBytes]...)
		s.fifo = append(s.fifo[:0], s.fifo[frameBytes:]...)
		if s.Clock != nil {
			s.Clock.Advance(periodNS)
		}
		frames++
	}
	return frames
}
