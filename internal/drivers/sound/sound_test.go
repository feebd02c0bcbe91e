package sound

import (
	"bytes"
	"testing"
)

// clip builds a recognizable sample pattern.
func clip(n int) []byte {
	c := make([]byte, n)
	for i := range c {
		c[i] = byte(i>>6) ^ byte(i*13) ^ 0x55
	}
	return c
}

func drivers(p Ports, cfg Config) []Driver {
	return []Driver{NewHand(p, cfg), NewDevil(p, cfg)}
}

func configs() []Config {
	return []Config{
		{Rate: 8000, RingBytes: 256},
		{Rate: 22050, RingBytes: 1024},
		{Rate: 22050, Stereo: true, RingBytes: 1024},
		{Rate: 44100, Bits16: true, RingBytes: 2048},
		{Rate: 48000, Stereo: true, Bits16: true, RingBytes: 4096},
		{Rate: 48000, Stereo: true, Bits16: true, RingBytes: 16}, // ring == FIFO depth
	}
}

// TestPlaybackDataIntegrity streams a clip that is NOT a whole number of
// ring revolutions through both drivers and checks that the DAC consumed
// exactly the clip followed by silence padding, with one interrupt per
// revolution and no underrun.
func TestPlaybackDataIntegrity(t *testing.T) {
	for _, cfg := range configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			for _, name := range []string{"standard", "devil"} {
				rig := NewRig()
				rig.Space.StrictFaults = true
				p := rig.Ports()
				var drv Driver
				if name == "devil" {
					drv = NewDevil(p, cfg)
				} else {
					drv = NewHand(p, cfg)
				}
				if err := drv.Init(); err != nil {
					t.Fatalf("%s init: %v", name, err)
				}
				// Two and a half revolutions: exercises padding.
				c := clip(cfg.RingBytes*2 + cfg.RingBytes/2)
				if err := drv.Play(c); err != nil {
					t.Fatalf("%s play: %v", name, err)
				}
				played := rig.Codec.Played()
				if len(played) != cfg.RingBytes*3 {
					t.Fatalf("%s: played %d bytes, want 3 revolutions = %d",
						name, len(played), cfg.RingBytes*3)
				}
				if !bytes.Equal(played[:len(c)], c) {
					t.Errorf("%s: clip corrupted in flight", name)
				}
				for i, b := range played[len(c):] {
					if b != 0 {
						t.Errorf("%s: padding byte %d = %#x, want silence", name, i, b)
						break
					}
				}
				if rig.Codec.Underrun() {
					t.Errorf("%s: DAC underran", name)
				}
				if got := rig.IRQ.Total(); got != 3 {
					t.Errorf("%s: %d interrupts, want one per revolution (3)", name, got)
				}
				if rig.Codec.FIFOLevel() != 0 {
					t.Errorf("%s: %d bytes stuck in the FIFO", name, rig.Codec.FIFOLevel())
				}
			}
		})
	}
}

// TestInterruptPathOpsParity is the pipeline's Table 5 claim: on the
// interrupt/refill path the Devil driver costs no more I/O operations than
// the hand-crafted one — and with the -O1 batch-index pass it costs fewer,
// because the codec's index register is rewritten only when the window
// actually changes (4 ops/revolution vs the hand driver's 6). Measured as
// the per-revolution delta between a 2-revolution and a 6-revolution clip,
// so setup costs cancel.
func TestInterruptPathOpsParity(t *testing.T) {
	cfg := Config{Rate: 22050, RingBytes: 512}
	perRev := map[string]uint64{}
	total := map[string]uint64{}
	for _, name := range []string{"standard", "devil"} {
		ops := func(revs int) uint64 {
			rig := NewRig()
			p := rig.Ports()
			var drv Driver
			if name == "devil" {
				drv = NewDevil(p, cfg)
			} else {
				drv = NewHand(p, cfg)
			}
			if err := drv.Init(); err != nil {
				t.Fatal(err)
			}
			rig.Space.ResetStats()
			if err := drv.Play(clip(cfg.RingBytes * revs)); err != nil {
				t.Fatal(err)
			}
			return rig.Space.Stats().Ops()
		}
		o2, o6 := ops(2), ops(6)
		if (o6-o2)%4 != 0 {
			t.Fatalf("%s: ops delta %d not a multiple of 4 revolutions", name, o6-o2)
		}
		perRev[name] = (o6 - o2) / 4
		total[name] = o6
	}
	if perRev["devil"] > perRev["standard"] {
		t.Errorf("interrupt/refill path: devil %d ops/revolution, standard %d — devil must not cost more",
			perRev["devil"], perRev["standard"])
	}
	// Pin the exact optimizer win so a codegen regression is caught: the
	// hand driver spends 6 ops per revolution (index write + flag read,
	// index write + ack write, EOI, counter re-read), the generated stubs
	// elide both index rewrites once IA already holds 24.
	if perRev["devil"] != 4 || perRev["standard"] != 6 {
		t.Errorf("interrupt/refill path: devil %d / standard %d ops/revolution, want 4 / 6",
			perRev["devil"], perRev["standard"])
	}
	if total["devil"] >= total["standard"] {
		t.Errorf("total ops: devil %d, standard %d, want devil < standard",
			total["devil"], total["standard"])
	}
}

// TestThroughputParity: the transfer is DAC-bound, so both drivers deliver
// the same virtual-time throughput within a fraction of a percent.
func TestThroughputParity(t *testing.T) {
	cfg := Config{Rate: 48000, Stereo: true, Bits16: true, RingBytes: 4096}
	elapsed := map[string]uint64{}
	for _, name := range []string{"standard", "devil"} {
		rig := NewRig()
		p := rig.Ports()
		var drv Driver
		if name == "devil" {
			drv = NewDevil(p, cfg)
		} else {
			drv = NewHand(p, cfg)
		}
		if err := drv.Init(); err != nil {
			t.Fatal(err)
		}
		start := rig.Clock.Now()
		if err := drv.Play(clip(cfg.RingBytes * 4)); err != nil {
			t.Fatal(err)
		}
		elapsed[name] = rig.Clock.Now() - start
	}
	ratio := float64(elapsed["standard"]) / float64(elapsed["devil"])
	if ratio < 0.995 || ratio > 1.005 {
		t.Errorf("virtual-time ratio standard/devil = %.4f, want ~1.0 (DAC-bound)", ratio)
	}
	// Sanity: the run is dominated by sample time — 4 revolutions of 4 KiB
	// at 192 KB/s is ~85 ms of virtual time.
	if elapsed["devil"] < 80e6 || elapsed["devil"] > 95e6 {
		t.Errorf("devil elapsed = %d ns, want ~85 ms of DAC time", elapsed["devil"])
	}
}

func TestConfigValidation(t *testing.T) {
	rig := NewRig()
	p := rig.Ports()
	// Unsupported rate fails Init.
	for _, drv := range drivers(p, Config{Rate: 12345, RingBytes: 256}) {
		if err := drv.Init(); err == nil {
			t.Errorf("%s: unsupported rate accepted", drv.Name())
		}
	}
	// Ring not a multiple of the frame size fails Play.
	cfg := Config{Rate: 48000, Stereo: true, Bits16: true, RingBytes: 255}
	for _, drv := range drivers(p, cfg) {
		if err := drv.Play(make([]byte, 512)); err == nil {
			t.Errorf("%s: frame-misaligned ring accepted", drv.Name())
		}
	}
	// An empty clip is a no-op.
	ok := Config{Rate: 8000, RingBytes: 256}
	for _, drv := range drivers(p, ok) {
		if err := drv.Play(nil); err != nil {
			t.Errorf("%s: empty clip: %v", drv.Name(), err)
		}
	}
	if rig.IRQ.Total() != 0 {
		t.Error("no-op plays raised interrupts")
	}
}

// TestCheckPlayback: the shared playback check accepts the clip the DAC
// played, and rejects a different clip and a codec that underran.
func TestCheckPlayback(t *testing.T) {
	cfg := Config{Rate: 22050, Bits16: true, RingBytes: 512}
	rig := NewRig()
	drv := NewDevil(rig.Ports(), cfg)
	if err := drv.Init(); err != nil {
		t.Fatal(err)
	}
	c := Clip(cfg.RingBytes * 2)
	if err := drv.Play(c); err != nil {
		t.Fatal(err)
	}
	if err := rig.CheckPlayback(c); err != nil {
		t.Fatalf("the played clip was rejected: %v", err)
	}
	other := append([]byte(nil), c...)
	other[len(other)/2] ^= 0xff
	if err := rig.CheckPlayback(other); err == nil {
		t.Error("a clip the DAC did not play passed the check")
	}

	// Half a 16-bit frame in the FIFO, the DAC enabled, and the channel
	// masked off after the final revolution: the codec starves mid-frame.
	rig.Codec.FIFOPush(0)
	rig.Space.Out8(WSSBase+hwWSSIndex, hwRegIface)
	rig.Space.Out8(WSSBase+hwWSSData, hwPEN)
	rig.Codec.Pump(1)
	if !rig.Codec.Underrun() {
		t.Fatal("setup: the codec did not underrun")
	}
	if err := rig.CheckPlayback(c); err == nil {
		t.Error("a run whose DAC underran passed the check")
	}
}
