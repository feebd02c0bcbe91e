// The hand-crafted baseline driver: raw port I/O with magic offsets is
// this file's whole point — it is the interface the paper's generated
// stubs replace, kept for the Tables' comparisons.
//
//devil:rawport
package sound

import (
	"fmt"

	"repro/internal/snap"
)

// The magic constants a hand-crafted sound driver carries around — WSS
// indexed-register numbers, 8237 mode encodings, and 8259 command words
// transcribed from three different datasheets, exactly the error-prone
// layer Devil replaces.
const (
	hwWSSIndex = 0 // R0: index register
	hwWSSData  = 1 // indexed data port

	hwRegPfmt  = 8  // I8: Fs & playback data format
	hwRegIface = 9  // I9: interface configuration
	hwRegAFS   = 24 // I24: alternate feature status

	hwStereo = 0x10
	hw16Bit  = 0x40
	hwPEN    = 0x01
	hwPI     = 0x10

	hwDMAAddr0   = 0
	hwDMACount0  = 1
	hwDMAStatus  = 8
	hwDMAMask    = 10
	hwDMAMode    = 11
	hwDMAClearFF = 12
	hwDMAMaskOn  = 0x04
	hwDMATC0     = 0x01
	// single mode | auto-init | read transfer (memory -> device) | channel 0
	hwDMAModePlay = 0x58

	hwPICCmd      = 0
	hwPICData     = 1
	hwICW1        = 0x13 // INIT | SINGLE | IC4
	hwICW48086    = 0x01
	hwEOISpecific = 0x60
)

// Hand is the standard driver: raw inb/outb with hand-computed masks.
type Hand struct{ engine }

// NewHand builds the hand-crafted driver.
func NewHand(p Ports, cfg Config) *Hand {
	d := &Hand{engine{p: p, cfg: cfg}}
	d.c = d
	return d
}

// Name implements Driver.
func (d *Hand) Name() string { return "standard" }

// Init implements Driver.
func (d *Hand) Init() error {
	defer d.p.span("init")()
	io := d.p.Space
	io.Out8(d.p.PICBase+hwPICCmd, hwICW1)
	io.Out8(d.p.PICBase+hwPICData, d.p.VecBase<<3) // ICW2
	io.Out8(d.p.PICBase+hwPICData, hwICW48086)     // ICW4
	io.Out8(d.p.PICBase+hwPICData, ^(uint8(1) << uint(d.p.IRQLine&7)))

	code, err := rateCode(d.cfg.Rate)
	if err != nil {
		return err
	}
	pfmt := code
	if d.cfg.Stereo {
		pfmt |= hwStereo
	}
	if d.cfg.Bits16 {
		pfmt |= hw16Bit
	}
	io.Out8(d.p.WSSBase+hwWSSIndex, hwRegPfmt)
	io.Out8(d.p.WSSBase+hwWSSData, pfmt)
	return nil
}

// arm programs the 8237 channel. The hand driver exploits the shared
// first/last flip-flop: ONE clear, then the address pair and the count
// pair ride the same toggle — one I/O operation saved over the generated
// stubs, and exactly the interleaving hazard §2.2 describes when someone
// later inserts an access in the middle.
func (d *Hand) arm() {
	defer d.p.span("play.arm")()
	io := d.p.Space
	io.Out8(d.p.DMABase+hwDMAMask, hwDMAMaskOn|0)
	io.Out8(d.p.DMABase+hwDMAMode, hwDMAModePlay)
	io.Out8(d.p.DMABase+hwDMAClearFF, 0)
	io.Out8(d.p.DMABase+hwDMAAddr0, uint8(d.p.RingAddr))
	io.Out8(d.p.DMABase+hwDMAAddr0, uint8(d.p.RingAddr>>8))
	n := d.cfg.RingBytes - 1
	io.Out8(d.p.DMABase+hwDMACount0, uint8(n))
	io.Out8(d.p.DMABase+hwDMACount0, uint8(n>>8))
	io.Out8(d.p.DMABase+hwDMAMask, 0)
}

// isr services one terminal-count interrupt with the same device protocol
// as the Devil variant (and the same I/O-operation count on this path).
func (d *Hand) isr(buf []byte, rev, revs int) error {
	io := d.p.Space
	if st := io.In8(d.p.DMABase + hwDMAStatus); st&hwDMATC0 == 0 {
		return fmt.Errorf("sound: interrupt without terminal count, status %#x", st)
	}
	io.Out8(d.p.WSSBase+hwWSSIndex, hwRegAFS)
	afs := io.In8(d.p.WSSBase + hwWSSData)
	if afs&hwPI == 0 {
		return fmt.Errorf("sound: terminal count without playback interrupt, AFS %#x", afs)
	}
	if rev < revs {
		d.load(buf, rev)
	} else {
		io.Out8(d.p.DMABase+hwDMAMask, hwDMAMaskOn|0)
	}
	io.Out8(d.p.WSSBase+hwWSSIndex, hwRegAFS)
	io.Out8(d.p.WSSBase+hwWSSData, afs&^hwPI)
	io.Out8(d.p.PICBase+hwPICCmd, hwEOISpecific|uint8(d.p.IRQLine&7))
	return nil
}

// dac enables or disables playback in I9.
func (d *Hand) dac(on bool) {
	pen := uint8(0)
	if on {
		pen = hwPEN
	}
	d.p.Space.Out8(d.p.WSSBase+hwWSSIndex, hwRegIface)
	d.p.Space.Out8(d.p.WSSBase+hwWSSData, pen)
}

// MarshalState implements snap.Snapshotter. The hand driver keeps no
// device state in host memory — every latched value lives in the chips —
// so its blob is a named empty payload.
func (d *Hand) MarshalState(dst []byte) ([]byte, error) {
	c := snap.NewEncoder(dst, "sound-hand")
	return c.Finish()
}

// UnmarshalState implements snap.Snapshotter.
func (d *Hand) UnmarshalState(data []byte) error {
	c, err := snap.NewDecoder(data, "sound-hand")
	if err != nil {
		return err
	}
	return c.Close()
}
