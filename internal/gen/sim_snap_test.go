package gen_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/gen"
)

// newDeviceSpace builds the canonical space kind for a Devices entry.
func newDeviceSpace(clk *bus.Clock, d gen.Device) *bus.Space {
	if d.MMIO {
		return bus.NewSpace("mmio", clk, bus.DefaultMemCosts())
	}
	return bus.NewSpace("io", clk, bus.DefaultPortCosts())
}

// unsafeWrites lists ports random traffic must not write: the IDE command
// register starts transfer engines against whatever LBA the random task
// file happens to hold, which is driver misbehaviour, not state to model.
var unsafeWrites = map[string][]uint32{"ide": {0x1f0 + 7}}

// driveRandom applies n random raw bus accesses across the device's
// windows.
func driveRandom(space *bus.Space, d gen.Device, rng *rand.Rand, n int) {
	skip := map[uint32]bool{}
	for _, a := range unsafeWrites[d.Name] {
		skip[a] = true
	}
	for i := 0; i < n; i++ {
		w := d.Windows[rng.Intn(len(d.Windows))]
		addr := w.Base + uint32(rng.Intn(int(w.Len)))
		if rng.Intn(2) == 0 && !skip[addr] {
			space.Out8(addr, uint8(rng.Intn(256)))
		} else {
			space.In8(addr)
		}
	}
}

// TestSimSnapshotRoundTrip drives every registered simulator with random
// register traffic and requires snapshot → restore → snapshot to be
// byte-identical, both into a freshly constructed simulator and into the
// same instance after it has been driven further.
func TestSimSnapshotRoundTrip(t *testing.T) {
	for _, d := range gen.Devices {
		t.Run(d.Name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				var clk bus.Clock
				space := newDeviceSpace(&clk, d)
				dev := d.NewSim(&clk, space)
				rng := rand.New(rand.NewSource(seed))
				driveRandom(space, d, rng, 200)

				blob, err := dev.MarshalState(nil)
				if err != nil {
					t.Fatalf("seed %d: MarshalState: %v", seed, err)
				}

				var clk2 bus.Clock
				fresh := d.NewSim(&clk2, newDeviceSpace(&clk2, d))
				if err := fresh.UnmarshalState(blob); err != nil {
					t.Fatalf("seed %d: restore into fresh simulator: %v", seed, err)
				}
				again, err := fresh.MarshalState(nil)
				if err != nil {
					t.Fatalf("seed %d: re-marshal: %v", seed, err)
				}
				if !bytes.Equal(blob, again) {
					t.Fatalf("seed %d: snapshot did not round-trip through a fresh simulator:\nin  %x\nout %x", seed, blob, again)
				}

				// Restoring into the same instance after more traffic must
				// overwrite every piece of live state.
				driveRandom(space, d, rng, 200)
				if moved, err := dev.MarshalState(nil); err != nil || bytes.Equal(moved, blob) {
					t.Fatalf("seed %d: further traffic left no state to overwrite (err %v)", seed, err)
				}
				if err := dev.UnmarshalState(blob); err != nil {
					t.Fatalf("seed %d: restore over live state: %v", seed, err)
				}
				final, err := dev.MarshalState(nil)
				if err != nil {
					t.Fatalf("seed %d: final marshal: %v", seed, err)
				}
				if !bytes.Equal(blob, final) {
					t.Fatalf("seed %d: restore did not overwrite live state:\nin  %x\nout %x", seed, blob, final)
				}
			}
		})
	}
}

// TestSimSnapshotCorruptInput feeds truncated and bit-flipped blobs to
// every simulator's UnmarshalState: each must return an error (or decode a
// still-consistent blob) without panicking.
func TestSimSnapshotCorruptInput(t *testing.T) {
	for _, d := range gen.Devices {
		t.Run(d.Name, func(t *testing.T) {
			var clk bus.Clock
			space := newDeviceSpace(&clk, d)
			dev := d.NewSim(&clk, space)
			driveRandom(space, d, rand.New(rand.NewSource(1)), 100)
			blob, err := dev.MarshalState(nil)
			if err != nil {
				t.Fatal(err)
			}
			var clk2 bus.Clock
			victim := d.NewSim(&clk2, newDeviceSpace(&clk2, d))
			// Sample ~64 offsets; exhaustive sweeps over megabyte blobs
			// (the permedia2 framebuffer) cost minutes for no more signal.
			step := len(blob)/64 + 1
			for cut := 0; cut < len(blob); cut += step {
				if err := victim.UnmarshalState(blob[:cut]); err == nil {
					t.Fatalf("truncation to %d bytes decoded without error", cut)
				}
			}
			bad := append([]byte(nil), blob...)
			for i := 0; i < len(bad); i += step {
				bad[i] ^= 0xff
				_ = victim.UnmarshalState(bad) // must not panic
				bad[i] ^= 0xff
			}
		})
	}
}

// TestDevicesCoverLibrary pins the registry to the stub library: every
// checked-in stub has exactly one Devices entry, in the same order.
func TestDevicesCoverLibrary(t *testing.T) {
	if len(gen.Devices) != len(gen.Library) {
		t.Fatalf("Devices has %d entries, Library has %d", len(gen.Devices), len(gen.Library))
	}
	for i, d := range gen.Devices {
		if want := gen.Library[i].Opts.Package; d.Name != want {
			t.Errorf("Devices[%d] is %q, Library[%d] is %q", i, d.Name, i, want)
		}
		if d.NewSim == nil {
			t.Errorf("Devices[%d] (%s) has no simulator constructor", i, d.Name)
		}
	}
}
