package sound

import (
	"fmt"

	gencs "repro/internal/gen/cs4236"
	gendma "repro/internal/gen/dma8237"
	genpic "repro/internal/gen/pic8259"
	"repro/internal/snap"
)

// Devil is the Devil-based driver: every device access goes through the
// stubs generated from cs4236.dil, dma8237.dil, and pic8259.dil. No magic
// constant appears in this file — indexed-register walks, flip-flop
// discipline, ICW sequencing, and bit encodings all live in the
// specifications.
type Devil struct {
	engine
	codec *gencs.Device
	dma   *gendma.Device
	pic   *genpic.Device
}

// NewDevil builds the Devil-based driver on the generated stub packages.
func NewDevil(p Ports, cfg Config) *Devil {
	d := &Devil{
		engine: engine{p: p, cfg: cfg},
		codec:  gencs.New(p.Space, p.WSSBase),
		dma:    gendma.New(p.Space, p.DMABase),
		pic:    genpic.New(p.Space, p.PICBase),
	}
	d.c = d
	return d
}

// Name implements Driver.
func (d *Devil) Name() string { return "devil" }

// rateSym maps a sample rate to its specification symbol.
func rateSym(hz int) (gencs.RateVal, error) {
	switch hz {
	case 8000:
		return gencs.RateR8000, nil
	case 11025:
		return gencs.RateR11025, nil
	case 16000:
		return gencs.RateR16000, nil
	case 22050:
		return gencs.RateR22050, nil
	case 32000:
		return gencs.RateR32000, nil
	case 44100:
		return gencs.RateR44100, nil
	case 48000:
		return gencs.RateR48000, nil
	}
	return 0, fmt.Errorf("sound: unsupported sample rate %d Hz", hz)
}

// Init implements Driver: the guarded ICW serialization is one structure
// write, and the codec format/rate programming is one structure flush of
// the pfmt fields into I8.
func (d *Devil) Init() error {
	defer d.p.span("init")()
	d.pic.SetLirq(0)
	d.pic.SetLtim(false)
	d.pic.SetAdi(false)
	d.pic.SetSngl(genpic.SnglSINGLE)
	d.pic.SetIc4(true)
	d.pic.SetBaseVec(d.p.VecBase)
	d.pic.SetSfnm(false)
	d.pic.SetBuf(0)
	d.pic.SetAeoi(false)
	d.pic.SetMicroprocessor(genpic.MicroprocessorX8086)
	d.pic.WriteInit()
	d.pic.SetIrqMask(^(uint8(1) << uint(d.p.IRQLine&7)))

	rate, err := rateSym(d.cfg.Rate)
	if err != nil {
		return err
	}
	d.codec.SetRate(rate)
	d.codec.SetStereo(d.cfg.Stereo)
	if d.cfg.Bits16 {
		d.codec.SetFmt(gencs.FmtPCM16)
	} else {
		d.codec.SetFmt(gencs.FmtPCM8)
	}
	d.codec.WritePfmt()
	return nil
}

// arm programs the 8237 channel over the sample ring: auto-init single
// mode, memory-to-device, one terminal count per revolution. The generated
// address and count stubs each re-clear the first/last flip-flop — the
// serialization the specification makes unskippable (one more I/O
// operation than the hand driver's shared-flip-flop shortcut).
func (d *Devil) arm() {
	defer d.p.span("play.arm")()
	d.dma.SetMaskChan(0)
	d.dma.SetMaskOn(true)
	d.dma.WriteSingleMask()
	d.dma.SetChan(0)
	d.dma.SetXfer(gendma.XferREADXFER)
	d.dma.SetAutoInit(true)
	d.dma.SetDown(false)
	d.dma.SetMmode(gendma.MmodeSINGLE)
	d.dma.WriteMode()
	d.dma.SetAddr0(uint16(d.p.RingAddr))
	d.dma.SetCount0(uint16(d.cfg.RingBytes - 1))
	d.dma.SetMaskOn(false)
	d.dma.WriteSingleMask()
}

// isr services one acknowledged terminal-count interrupt: check the DMA
// status and the codec's playback-interrupt flag, refill the ring (or mask
// the channel after the final revolution), clear the flag, and send the
// specific EOI.
func (d *Devil) isr(buf []byte, rev, revs int) error {
	d.dma.ReadDmaStatus()
	if d.dma.Reached()&0x1 == 0 {
		return fmt.Errorf("sound: interrupt without terminal count")
	}
	if !d.codec.Pi() {
		return fmt.Errorf("sound: terminal count without playback interrupt")
	}
	if rev < revs {
		d.load(buf, rev)
	} else {
		// Final revolution: silence the channel before the ring wraps.
		d.dma.SetMaskOn(true)
		d.dma.WriteSingleMask()
	}
	d.codec.SetPi(false)
	d.pic.SetEoi(genpic.EoiSPECIFICEOI)
	d.pic.SetEoiLevel(uint8(d.p.IRQLine & 7))
	d.pic.WriteEoiCmd()
	return nil
}

// dac enables or disables playback.
func (d *Devil) dac(on bool) { d.codec.SetPen(on) }

// MarshalState implements snap.Snapshotter: the driver state of the three
// generated stubs (codec, DMA, PIC) in wiring order — cached variable
// values, staged trigger fields, and register shadows, as emitted by
// devilc for each specification.
func (d *Devil) MarshalState(dst []byte) ([]byte, error) {
	return snap.MarshalParts(dst, "sound-devil", d.codec, d.dma, d.pic)
}

// UnmarshalState implements snap.Snapshotter.
func (d *Devil) UnmarshalState(data []byte) error {
	return snap.UnmarshalParts(data, "sound-devil", d.codec, d.dma, d.pic)
}
